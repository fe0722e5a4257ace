"""xdoc: language-independent document analysis over XML resource bundles.

Every algorithm here (tokenization, sentence splitting, tagging, tagset
mapping, chart parsing, semantic interpretation, relation extraction)
is language independent; everything a language needs is data in one XML
bundle.  Analyzing a new language means writing a bundle, not code.
"""

from .errors import AnalysisError, InputError, ResourceError, XdocError
from .parsing import chunks, parse
from .pipeline import (
    STAGES,
    AnnotatedDocument,
    analyze_text,
    emit_xml,
    export_relations,
    run_pipeline,
)
from .resources import load_bundle, serialize_bundle, validate_bundle
from .semantics import (
    grammatical_functions,
    instantiate_frames,
    map_np_structure,
    semantic_tag,
    subsumes,
)
from .tagging import apply_rules, initial_tag, map_tagset

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "AnnotatedDocument",
    "InputError",
    "ResourceError",
    "STAGES",
    "XdocError",
    "analyze_text",
    "apply_rules",
    "chunks",
    "emit_xml",
    "export_relations",
    "grammatical_functions",
    "initial_tag",
    "instantiate_frames",
    "load_bundle",
    "map_np_structure",
    "map_tagset",
    "parse",
    "run_pipeline",
    "semantic_tag",
    "serialize_bundle",
    "subsumes",
    "validate_bundle",
]
