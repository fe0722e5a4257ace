"""Stage orchestration over one document, plus output formats.

Stages run in a fixed order: tok, sent, tag, map, parse, sem, frames,
rel.  A run selects a prefix of that order.  Sentences reach the stage
loop from one of two segmenters: :func:`xdoc.structure.segment` for raw
text, or the import adapter for an external tag file, whose tags stand
for the tag stage's output; the stage loop alone decides what a prefix
keeps, so a prefix means the same for both inputs.  Strict runs abort
on the first analysis error; lenient runs record a diagnostic on the
failing sentence and continue with the rest.

The parse stage keeps one tree per sentence, the first in the
derivation order of :mod:`xdoc.parsing`, and reads only that tree off
the packed chart, so no sentence is refused for its number of readings.
A sentence without a complete parse falls back to chunks, whose trees
feed frames and structure patterns and are then dropped (see below).

A sentence's ``tagged`` holds every token with all its annotations and
``parse_input`` its words, the same objects; both are set once per sentence.
Pure punctuation tokens are tagged like everything else but excluded
from mapping, parsing and semantics: tagset maps cover word classes,
and sentence terminators carry no constituent structure.

Output is deterministic byte for byte: annotated XML and a relation
table ordered by document position.  The XML is rendered as one string
per sentence, joined once.  A parse node is indented two spaces per
level below its tree's root, down to ``MAX_INDENT_DEPTH`` levels, and
deeper nodes take that level's pad, so the XML grows linearly with the
tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InputError, ResourceError, UnmappedTag
from .parsing import ParseTree, chunks, first_parse, parse
from .resources import (
    _NOT_XML_IN_WORDS,
    ResourceBundle,
    _attrs,
    _esc,
    _parse_bundle_bytes,
    _read_bundle_bytes,
    validate_bundle,
)
from .semantics import (
    Diagnostic,
    FrameInstance,
    Relation,
    _frame_relations,
    instantiate_frames,
    map_np_structure,
    semantic_tag,
)
from .structure import Sentence, Token, is_punctuation, segment
from .tagging import TaggedToken, apply_rules, import_external_tags, initial_tag, map_tagset

__all__ = [
    "STAGES",
    "SentenceAnalysis",
    "AnnotatedDocument",
    "check_stages",
    "run_pipeline",
    "analyze_text",
    "emit_xml",
    "export_relations",
]

STAGES = ("tok", "sent", "tag", "map", "parse", "sem", "frames", "rel")


def check_stages(stages: Iterable[str]) -> tuple[str, ...]:
    """Return the stages as a tuple; ValueError unless a non-empty prefix of STAGES."""
    stages = tuple(stages)
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise ValueError(f"unknown stages: {', '.join(unknown)}")
    if not stages or stages != STAGES[: len(stages)]:
        raise ValueError(f"stages must be a non-empty prefix of {','.join(STAGES)}")
    return stages


@dataclass
class SentenceAnalysis:
    """One sentence's analysis.  ``tagged`` holds every token with all its
    annotations; ``parse_input``, set once from the map stage on, is its
    word subsequence, made of the same objects.  A chunk fallback keeps no
    ``tree`` (None, ``failed`` false) though the parse stage read its words."""

    sentence: Sentence
    tagged: tuple[TaggedToken, ...] | None = None
    parse_input: tuple[TaggedToken, ...] | None = None
    tree: ParseTree | None = None
    frames: tuple[FrameInstance, ...] = ()
    relations: tuple[Relation, ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()
    failed: bool = False


@dataclass
class AnnotatedDocument:
    lang: str
    tokens: tuple[Token, ...] = ()
    sentences: list[SentenceAnalysis] = field(default_factory=list)


# The last bundle that passed validation and the exact bytes it was parsed
# from.  Keyed by content, not by path or mtime, so an edited file is seen
# on the next call; a bundle that fails validation is never stored.
_last_valid: tuple[bytes, ResourceBundle] | None = None


def _load_validated(path: str | Path) -> ResourceBundle:
    """Read the bundle file; parse and validate it unless its bytes are the last valid ones.

    The returned bundle may be shared with earlier calls, so callers must
    not let it escape or change it.
    """
    global _last_valid
    data = _read_bundle_bytes(path)
    last = _last_valid
    if last is not None and last[0] == data:
        return last[1]
    bundle = _parse_bundle_bytes(path, data)
    findings = validate_bundle(bundle)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        summary = "; ".join(f"{f.code} at {f.location}" for f in errors[:5])
        raise ResourceError(f"bundle {path} failed validation: {summary}")
    _last_valid = (data, bundle)
    return bundle


def _annotate(analysis: SentenceAnalysis, words: Sequence[TaggedToken]) -> None:
    """Put annotated words in place in ``tagged``, once per sentence; nothing else writes them back."""
    fresh = iter(words)
    analysis.tagged = tuple(t if is_punctuation(t.token.form) else next(fresh) for t in analysis.tagged)
    analysis.parse_input = tuple(words)


def _analyze_sentence(
    analysis: SentenceAnalysis,
    bundle: ResourceBundle,
    stages: tuple[str, ...],
    lenient: bool,
) -> None:
    """Run the per-sentence stages in place, honoring the stage prefix."""
    if "tag" not in stages:
        analysis.tagged = None
        return
    if analysis.tagged is None:
        analysis.tagged = tuple(apply_rules(initial_tag(analysis.sentence, bundle), bundle.context_rules))

    if "map" not in stages:
        return
    words = [t for t in analysis.tagged if not is_punctuation(t.token.form)]
    try:
        words = map_tagset(words, bundle.tagset_map)
    except UnmappedTag as exc:
        if not lenient:
            raise
        analysis.failed = True
        analysis.diagnostics += (Diagnostic("UnmappedTag", str(exc)),)
        return

    trees: list[ParseTree] = []  # what frames and rel read; a chunk cover dies with this call
    if "parse" in stages and words:
        chart = parse([t.parser_tag for t in words], bundle.grammar)
        analysis.tree = first_parse(chart, bundle.grammar.start_symbol)
        if analysis.tree is not None:
            trees = [analysis.tree]
        elif "frames" in stages:
            trees = chunks(chart)

    if "sem" in stages:
        words = semantic_tag(words, bundle)
    _annotate(analysis, words)

    if "frames" in stages:
        instances: list[FrameInstance] = []
        for tree in trees:
            found, diags = instantiate_frames(tree, analysis.parse_input, bundle)
            instances.extend(found)
            analysis.diagnostics += tuple(diags)
        analysis.frames = tuple(instances)

    if "rel" in stages:
        relations = _frame_relations(analysis.frames)
        for tree in trees:
            relations.extend(map_np_structure(tree, bundle.struct_patterns, analysis.parse_input))
        analysis.relations = tuple(relations)


def _run_stages(
    bundle: ResourceBundle,
    tokens: Sequence[Token],
    sentences: list[SentenceAnalysis],
    stages: tuple[str, ...],
    lenient: bool,
) -> AnnotatedDocument:
    """The stage loop and its one gate: what a prefix keeps is decided here."""
    if "sent" not in stages:
        sentences = []
    for analysis in sentences:
        _analyze_sentence(analysis, bundle, stages, lenient)
    return AnnotatedDocument(bundle.lang, tuple(tokens), sentences)


def analyze_text(
    bundle: ResourceBundle,
    text: str,
    *,
    stages: Iterable[str] = STAGES,
    lenient: bool = False,
) -> AnnotatedDocument:
    """Run the stage prefix over raw text with an already loaded bundle.

    The bundle is expected to pass :func:`validate_bundle`; a grammar with
    a unary rule cycle makes the parse stage raise :class:`ResourceError`.
    Raises :class:`InputError` for a character that XML cannot carry and
    that could end up in a token: a C0 control other than whitespace,
    U+FFFE, U+FFFF or a lone surrogate.
    """
    stages = check_stages(stages)
    bad = _NOT_XML_IN_WORDS.search(text)
    if bad is not None:
        offset = len(text[: bad.start()].encode("utf-8"))
        raise InputError(f"character U+{ord(bad.group()):04X} at byte offset {offset} cannot be written as XML")
    tokens, sentences = segment(text, bundle.abbreviations)
    analyses = [SentenceAnalysis(s) for s in sentences]
    return _run_stages(bundle, tokens, analyses, stages, lenient)


def run_pipeline(
    bundle_path: str | Path,
    text: str | None = None,
    *,
    external_tags: str | Path | None = None,
    stages: Iterable[str] = STAGES,
    lenient: bool = False,
) -> AnnotatedDocument:
    """Load and validate the bundle, then run the stage prefix over one input.

    The bundle file is read on every call; while its bytes equal those of
    the last bundle that passed validation in this process, that bundle
    and its built indexes are reused instead of parsed again.  The input
    is either raw ``text`` or an ``external_tags`` file of
    ``form<TAB>tag`` lines, never both.  Raises :class:`ValueError` for
    a bad stage list or input choice, :class:`ResourceError` when the
    bundle is invalid, :class:`InputError` for an unreadable tag file,
    and, in strict mode, :class:`AnalysisError` subclasses for
    per-sentence failures.
    """
    stages = check_stages(stages)
    if (text is None) == (external_tags is None):
        raise ValueError("run_pipeline takes exactly one of text and external_tags")
    bundle = _load_validated(bundle_path)
    if text is not None:
        return analyze_text(bundle, text, stages=stages, lenient=lenient)
    analyses = [
        SentenceAnalysis(Sentence(i, tuple(t.token for t in sent)), tagged=tuple(sent))
        for i, sent in enumerate(import_external_tags(external_tags))
    ]
    tokens = [t for a in analyses for t in a.sentence.tokens]
    return _run_stages(bundle, tokens, analyses, stages, lenient)


# ---------------------------------------------------------------------------
# Output formats


def _sid(analysis_index: int) -> str:
    return f"s{analysis_index + 1}"


def _token_line(token: Token, annotated: TaggedToken | None, indent: str) -> str:
    line = f'{indent}<t id="{token.id}" off="{token.offset}" len="{token.length}" form="{_esc(token.form)}"'
    if annotated is None:
        return line + "/>"
    line += f' tag0="{_esc(annotated.source_tag)}"'
    if annotated.parser_tag is not None:
        line += f' tag="{_esc(annotated.parser_tag)}"'
    if annotated.semclass is not None:
        line += f' sem="{_esc(annotated.semclass)}"'
    if annotated.concept is not None:
        line += f' concept="{_esc(annotated.concept)}"'
    return line + "/>"


# Parse nodes are padded two spaces per level below the tree's root, down
# to this many levels; deeper nodes take the pad of the last one, so a
# sentence's <parse> grows linearly with its tree, not with its square.
MAX_INDENT_DEPTH = 32
_PADS = tuple("      " + "  " * depth for depth in range(MAX_INDENT_DEPTH + 1))
_CLOSES = tuple(f"{pad}</node>" for pad in _PADS)


def _tree_xml(tree: ParseTree, parse_input: Sequence[TaggedToken], lines: list[str]) -> None:
    """Append the lines of ``tree``'s nodes to ``lines``, each padded by its capped depth."""
    stack: list[tuple[ParseTree | None, int]] = [(tree, 0)]  # (None, depth) closes a node
    while stack:
        node, depth = stack.pop()
        if node is None:
            lines.append(_CLOSES[depth])
            continue
        start = f'{_PADS[depth]}<node cat="{_esc(node.category.name)}"{_attrs(node.category.features)}'
        if node.children:
            lines.append(f"{start}>")
            stack.append((None, depth))
            stack.extend(zip(reversed(node.children), repeat(min(depth + 1, MAX_INDENT_DEPTH))))
        else:
            lines.append(f'{start} ref="{parse_input[node.start].token.id}"/>')


def _sentence_xml(index: int, analysis: SentenceAnalysis) -> str:
    """The ``<sentence>`` element of the document's ``index``-th sentence, ending in a newline."""
    lines = [f'  <sentence id="{_sid(index)}">', "    <tokens>"]
    annotations = analysis.tagged or repeat(None)
    for token, annotated in zip(analysis.sentence.tokens, annotations):
        lines.append(_token_line(token, annotated, "      "))
    lines.append("    </tokens>")
    if analysis.tree is not None and analysis.parse_input:
        lines.append("    <parse>")
        _tree_xml(analysis.tree, analysis.parse_input, lines)
        lines.append("    </parse>")
    if analysis.relations:
        lines.append("    <relations>")
        for relation in analysis.relations:
            instance = relation.frame
            if instance is not None:
                pairs = [("type", relation.name), ("pred", str(instance.predicate))]
                lines.append(f"      <rel{_attrs(pairs)}>")
                for role, (token_id, _) in sorted(instance.bindings.items()):
                    pairs = [("role", role), ("ref", str(token_id))]
                    lines.append(f"        <arg{_attrs(pairs)}/>")
            else:
                lines.append(f"      <rel{_attrs([('type', relation.name)])}>")
                lines.append(f'        <arg role="arg1" ref="{relation.arg1}"/>')
                lines.append(f'        <arg role="arg2" ref="{relation.arg2}"/>')
            lines.append("      </rel>")
        lines.append("    </relations>")
    if analysis.diagnostics:
        lines.append("    <diagnostics>")
        for diag in analysis.diagnostics:
            pairs = [("code", diag.code), ("detail", diag.detail)]
            lines.append(f"      <diag{_attrs(pairs)}/>")
        lines.append("    </diagnostics>")
    lines += ["  </sentence>", ""]
    return "\n".join(lines)


def emit_xml(doc: AnnotatedDocument) -> str:
    """Render the annotated document as deterministic XML, one joined string per sentence."""
    start = f"<document{_attrs([('lang', doc.lang)])}"
    if not doc.sentences:
        return f"{start}/>\n"
    parts = [f"{start}>\n"]
    parts += [_sentence_xml(index, analysis) for index, analysis in enumerate(doc.sentences)]
    parts.append("</document>\n")
    return "".join(parts)


def export_relations(doc: AnnotatedDocument) -> str:
    """Tab-separated relation table, one row per extracted relation."""
    lines = ["relation\targ1_form\targ1_concept\targ2_form\targ2_concept\tsentence_id"]
    for index, analysis in enumerate(doc.sentences):
        # Token ids run on through a sentence, which holds its relations' arguments.
        first = analysis.sentence.tokens[0].id
        for relation in analysis.relations:
            arg1 = analysis.tagged[relation.arg1 - first]
            arg2 = analysis.tagged[relation.arg2 - first]
            row = (relation.name, arg1.token.form, arg1.concept or "",
                   arg2.token.form, arg2.concept or "", _sid(index))
            lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
