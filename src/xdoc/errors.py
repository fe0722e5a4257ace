"""Exception types shared across the package."""

from __future__ import annotations


class XdocError(Exception):
    """Base class for every error raised by this package."""


class ResourceError(XdocError):
    """A resource bundle could not be loaded or is unusable."""


class MalformedResource(ResourceError):
    """The bundle XML is not well formed or violates the resource schema."""

    def __init__(self, location: str, reason: str):
        super().__init__(f"{location}: {reason}")
        self.location = location
        self.reason = reason


class CyclicOntology(ResourceError):
    """The isa graph of an ontology contains a cycle."""

    def __init__(self, concept: str):
        super().__init__(f"isa cycle through concept {concept!r}")
        self.concept = concept


class InputError(XdocError):
    """Input text could not be read or decoded."""


class MalformedLine(InputError):
    """A line of an external tag file does not have exactly one tab."""

    def __init__(self, line_number: int):
        super().__init__(f"line {line_number}: expected exactly one tab")
        self.line_number = line_number


class AnalysisError(XdocError):
    """A sentence could not be analyzed under the current bundle."""


class EmptyInput(AnalysisError):
    """The parser was handed an empty tag sequence."""


class UnmappedTag(AnalysisError):
    """A source tag has no entry in the tagset map."""

    def __init__(self, source_tag: str, offset: int):
        super().__init__(
            f"no mapping for tag {source_tag!r} (token at byte offset {offset})"
        )
        self.source_tag = source_tag
        self.offset = offset


class UnknownConcept(XdocError):
    """A concept id was looked up that the ontology does not define."""

    def __init__(self, concept: str):
        super().__init__(f"concept {concept!r} not in ontology")
        self.concept = concept
