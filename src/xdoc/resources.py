"""Language resource bundles.

A bundle is one XML file carrying every language-dependent fact the
analysis stages consume: abbreviation lexicon, tag lexicon and context
rules, tagset map, grammar, grammatical functions, lemma rules, semantic
lexicon, case frames, ontology and noun-phrase structure patterns.  The
code in the rest of the package is language independent; swapping the
bundle swaps the language.

Loading enforces per-section invariants only, and the constructors
refuse what the loader refuses in a record or a section.  Cross-section
consistency (for example that every grammar terminal can actually be
produced by the tagset map) is a separate pass, :func:`validate_bundle`,
so that authoring tools may load partial bundles.
:func:`serialize_bundle` writes a canonical form: fixed attribute order,
sorted map keys, fixed indentation, so output bytes are stable across
runs.

The XML form is written down once, under "The XML form" below: a record
table gives each record element's attributes, and a section table gives
each section's own attributes and records in canonical order.  The
loader and the writer both work from these two tables, and the loader
refuses any attribute they do not declare, except the feature
attributes of a grammar ``<rule>`` and of ``<cat>``.  A reader names no
location while it reads: a location such as ``semlex/entry[3]`` is
formed only when a record is refused, by the loops that hold the
element indexes, one step each on the way out.
"""

from __future__ import annotations

import re
import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Container, Iterable, Mapping, NamedTuple, Sequence

from .errors import CyclicOntology, MalformedResource

__all__ = [
    "Category",
    "GrammarRule",
    "Grammar",
    "ContextRule",
    "LemmaRule",
    "SemLexEntry",
    "GrammaticalFunction",
    "FrameSlot",
    "CaseFrame",
    "Ontology",
    "PatternItem",
    "StructPattern",
    "ResourceBundle",
    "Finding",
    "load_bundle",
    "loads_bundle",
    "validate_bundle",
    "serialize_bundle",
]

# Where each context-rule trigger looks, as an offset from the token it
# may retag: ``*_tag`` triggers test the tag there, ``*_word`` the form.
_TRIGGER_OFFSETS = {"prev_tag": -1, "next_tag": 1, "prev2_tag": -2, "next2_tag": 2,
                    "prev_word": -1, "next_word": 1}
TRIGGERS = frozenset(_TRIGGER_OFFSETS)
GF_SLOTS = frozenset({"subject", "object"})

# What a reader splitting lines on any Unicode line boundary ends a line
# at, beyond \n and the characters XML refuses anyway; with \n and tab,
# what would split a row of the relation table, which copies relation
# names and concept ids.
_LINE_BREAKS = "\r\x85\u2028\u2029"
_ROW_BREAK = re.compile(f"[\t\n{_LINE_BREAKS}]")


def _check_row_text(what: str, value: str) -> None:
    bad = _ROW_BREAK.search(value)
    if bad is not None:
        raise ValueError(f"{what} {value!r} holds U+{ord(bad.group()):04X}, which splits a relation table row")


def _feature_items(features: object) -> tuple[tuple[str, str], ...]:
    if isinstance(features, Mapping):
        pairs = list(features.items())
    else:
        pairs = list(features)  # type: ignore[arg-type]
    items = tuple(sorted((str(k), str(v)) for k, v in pairs))
    keys = [k for k, _ in items]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate feature keys in {items!r}")
    return items


@dataclass(frozen=True)
class Category:
    """A grammar symbol: a name plus a flat feature set (e.g. case=nom)."""

    name: str
    features: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("category name must be non-empty")
        object.__setattr__(self, "features", _feature_items(self.features))

    def label(self) -> str:
        """Render for debug output, e.g. ``NP[case=nom]``."""
        if not self.features:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.features)
        return f"{self.name}[{inner}]"


# Feature keys that a grammar category cannot carry: a <rule> element's
# own attributes, a <cat> element's name, and the attributes that
# pipeline.emit_xml writes next to a parse node's features.
_RULE_RESERVED = frozenset({"lhs", "head", "name", "cat", "ref"})


def _check_unreserved(cat: Category) -> None:
    bad = sorted({k for k, _ in cat.features} & _RULE_RESERVED)
    if bad:
        raise ValueError(f"feature keys {bad} are reserved")


@dataclass(frozen=True)
class GrammarRule:
    lhs: Category
    rhs: tuple[Category, ...]
    head: int  # 1-based index into rhs

    def __post_init__(self) -> None:
        if not self.rhs:
            raise ValueError("rule right-hand side must be non-empty")
        if not 1 <= self.head <= len(self.rhs):
            raise ValueError(f"head index {self.head} outside rhs of length {len(self.rhs)}")
        for cat in (self.lhs, *self.rhs):
            _check_unreserved(cat)


@dataclass
class CompiledGrammar:
    """The tables that ``parse`` and the tree readers read, shared by all parses with one grammar object.

    ``rules_by_first`` lists rule indices by the name of their first rhs
    symbol and ``rules_by_lhs`` by the name of their lhs; ``rhs_names``
    and ``heads`` (0-based) give each rule's shape.
    ``cycle_rules`` lists the rules on a unary rule cycle, whose charts
    the tree readers refuse.
    Categories are interned: :meth:`intern` gives each distinct category
    (name plus feature items) a small int the first time a parse meets
    it, and ``categories`` maps the id back to the :class:`Category`.
    The two memo tables are keyed by those ints and fill as parses meet
    categories: ``matches`` maps (rule index, dot, category id) to
    whether the category may fill rhs position ``dot``, and ``parents``
    maps (rule index, head category id) to the id of the completed
    edge's category, so each parent is built once.  All of them grow
    with the distinct categories the input produces, not with its
    length.  Ids follow the order in which parses meet categories, so
    they mean something only against this object's ``categories``.
    """

    rules_by_first: dict[str, tuple[int, ...]]
    rules_by_lhs: dict[str, tuple[int, ...]]
    rhs_names: tuple[tuple[str, ...], ...]
    heads: tuple[int, ...]
    cycle_rules: tuple[int, ...]
    categories: list[Category] = field(default_factory=list)
    category_ids: dict[tuple, int] = field(default_factory=dict)
    matches: dict[tuple[int, int, int], bool] = field(default_factory=dict)
    parents: dict[tuple[int, int], int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def intern(self, category: Category) -> int:
        """The id of ``category``, assigned on first sight.

        Parses on several threads may share one grammar, so a new id is
        assigned under a lock and published only after its category is
        in ``categories``.
        """
        key = (category.name, category.features)
        cat_id = self.category_ids.get(key)
        if cat_id is None:
            with self._lock:
                cat_id = self.category_ids.get(key)
                if cat_id is None:
                    self.categories.append(category)
                    cat_id = self.category_ids[key] = len(self.categories) - 1
        return cat_id


def _unary_cycle_rules(rules: Sequence[GrammarRule]) -> list[int]:
    """Indices of the unary rules whose lhs their rhs derives by unary rules.

    Names alone decide, and a chart node can derive itself only through
    unary derivations over its own span, so a grammar without such a
    rule makes acyclic charts.
    """
    unary: dict[str, list[str]] = {}
    for rule in rules:
        if len(rule.rhs) == 1:
            unary.setdefault(rule.lhs.name, []).append(rule.rhs[0].name)
    cyclic = []
    for idx, rule in enumerate(rules):
        if len(rule.rhs) == 1:
            seen: set[str] = set()
            frontier = [rule.rhs[0].name]
            while frontier:
                name = frontier.pop()
                if name not in seen:
                    seen.add(name)
                    frontier += unary.get(name, ())
            if rule.lhs.name in seen:
                cyclic.append(idx)
    return cyclic


@dataclass(frozen=True)
class Grammar:
    start_symbol: str = ""
    rules: tuple[GrammarRule, ...] = ()

    def __post_init__(self) -> None:
        if self.rules and self.start_symbol not in self.lhs_names():
            raise ValueError(f"start symbol {self.start_symbol!r} is not a rule left-hand side")

    @cached_property
    def compiled(self) -> CompiledGrammar:
        """The parser tables, built on the first parse with this object."""
        by_first: dict[str, list[int]] = {}
        by_lhs: dict[str, list[int]] = {}
        for idx, rule in enumerate(self.rules):
            by_first.setdefault(rule.rhs[0].name, []).append(idx)
            by_lhs.setdefault(rule.lhs.name, []).append(idx)
        return CompiledGrammar(
            {name: tuple(ids) for name, ids in by_first.items()},
            {name: tuple(ids) for name, ids in by_lhs.items()},
            tuple(tuple(cat.name for cat in rule.rhs) for rule in self.rules),
            tuple(rule.head - 1 for rule in self.rules),
            tuple(_unary_cycle_rules(self.rules)),
        )

    def lhs_names(self) -> set[str]:
        return {rule.lhs.name for rule in self.rules}

    def terminal_names(self) -> set[str]:
        lhs = self.lhs_names()
        return {cat.name for rule in self.rules for cat in rule.rhs if cat.name not in lhs}


@dataclass(frozen=True)
class ContextRule:
    """One transformation: retag from_tag as to_tag when the trigger holds."""

    from_tag: str
    to_tag: str
    trigger: str
    trigger_value: str

    def __post_init__(self) -> None:
        if self.from_tag == self.to_tag:
            raise ValueError("from and to tags must differ")
        if not self.trigger_value:
            raise ValueError("trigger value must be non-empty")
        if self.trigger not in TRIGGERS:
            raise ValueError(f"unknown trigger {self.trigger!r}")


@dataclass(frozen=True)
class LemmaRule:
    strip: str
    min_stem_len: int

    def __post_init__(self) -> None:
        if not self.strip:
            raise ValueError("empty strip suffix")
        if self.min_stem_len < 0:
            raise ValueError("minstem must be non-negative")


@dataclass(frozen=True)
class SemLexEntry:
    lemma: str
    pos: str
    semclass: str


@dataclass(frozen=True)
class GrammaticalFunction:
    """Where a grammatical function binds: see :func:`xdoc.semantics.grammatical_functions`."""

    gf: str
    category: Category
    after: str | None = None
    before: str | None = None

    def __post_init__(self) -> None:
        if self.gf not in GF_SLOTS:
            raise ValueError(f"unknown grammatical function {self.gf!r}")
        _check_unreserved(self.category)


def _function_clash(functions: Sequence[GrammaticalFunction]) -> tuple[int, str] | None:
    """The index of the first function declared twice, with the reason, or None."""
    gfs = [function.gf for function in functions]
    i = next((i for i, gf in enumerate(gfs) if gf in gfs[:i]), None)
    return None if i is None else (i, f"more than one declaration of {gfs[i]!r}")


@dataclass(frozen=True)
class FrameSlot:
    role: str
    gf: str
    fill_concept: str
    required: bool

    def __post_init__(self) -> None:
        if self.gf not in GF_SLOTS:
            raise ValueError(f"unknown grammatical function {self.gf!r}")


def _slot_clash(slots: Sequence[FrameSlot]) -> tuple[int, str] | None:
    """The index of the first slot that repeats an earlier slot's role or
    gf, with the reason; None when every role and gf is distinct."""
    for i, slot in enumerate(slots):
        if any(other.role == slot.role for other in slots[:i]):
            return i, f"duplicate role {slot.role!r}"
        if any(other.gf == slot.gf for other in slots[:i]):
            return i, f"more than one slot with gf {slot.gf!r}"
    return None


@dataclass(frozen=True)
class CaseFrame:
    id: str
    predicate_lemma: str
    relation: str
    slots: tuple[FrameSlot, ...]

    def __post_init__(self) -> None:
        _check_row_text("relation", self.relation)
        clash = _slot_clash(self.slots)
        if clash is not None:
            raise ValueError(clash[1])


def _check_acyclic(isa: Mapping[str, frozenset[str]], concepts: frozenset[str]) -> None:
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(concepts, WHITE)
    for root in sorted(concepts):
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, Iterable[str]]] = [(root, iter(sorted(isa.get(root, ()))))]
        color[root] = GREY
        while stack:
            node, parents = stack[-1]
            advanced = False
            for parent in parents:
                if color[parent] == GREY:
                    raise CyclicOntology(parent)
                if color[parent] == WHITE:
                    color[parent] = GREY
                    stack.append((parent, iter(sorted(isa.get(parent, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()


@dataclass(frozen=True)
class Ontology:
    """Concepts, their isa parents and the concept of each semantic class.

    Every isa source and target and every lexmap target is a concept, no
    concept id holds a tab or line break, and the isa graph is acyclic
    (:class:`CyclicOntology` otherwise).
    """

    concepts: frozenset[str] = frozenset()
    isa: dict[str, frozenset[str]] = field(default_factory=dict)
    lexmap: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if _ROW_BREAK.search("".join(self.concepts)):
            _check_row_text("concept id", min(c for c in self.concepts if _ROW_BREAK.search(c)))
        for cid, parents in self.isa.items():
            if cid not in self.concepts:
                raise ValueError(f"isa source {cid!r} is not a concept")
            if not parents <= self.concepts:
                raise ValueError(f"isa target {min(parents - self.concepts)!r} is not a concept")
        if not self.concepts.issuperset(self.lexmap.values()):
            target = min(set(self.lexmap.values()) - self.concepts)
            raise ValueError(f"lexmap target {target!r} is not a concept")
        _check_acyclic(self.isa, self.concepts)

    def parents(self, concept: str) -> frozenset[str]:
        return self.isa.get(concept, frozenset())


@dataclass(frozen=True)
class PatternItem:
    name: str
    form: str | None = None


@dataclass(frozen=True)
class StructPattern:
    id: str
    constituent_cat: str
    rhs_match: tuple[PatternItem, ...]
    relation: str
    arg1: int  # 1-based into rhs_match
    arg2: int

    def __post_init__(self) -> None:
        _check_row_text("relation", self.relation)
        n = len(self.rhs_match)
        if not (1 <= self.arg1 <= n and 1 <= self.arg2 <= n):
            raise ValueError("argument indices outside pattern bounds")
        if self.arg1 == self.arg2:
            raise ValueError("argument indices must be distinct")


def _semlex_clash(entries: Sequence[SemLexEntry]) -> tuple[int, str] | None:
    """The index of the first entry whose (lemma, pos) an earlier entry
    has, with the reason; None when every pair is distinct."""
    # Two entries share a (lemma, pos) only if they share a lemma, and a set
    # of lemmas is cheaper than a set of pairs, so a lexicon of distinct
    # lemmas costs one set of strings.  The walk runs only on refusal.
    if (len({entry.lemma for entry in entries}) < len(entries)
            and len({(entry.lemma, entry.pos) for entry in entries}) < len(entries)):
        seen: set[tuple[str, str]] = set()
        for i, entry in enumerate(entries):
            key = (entry.lemma, entry.pos)
            if key in seen:
                return i, f"duplicate entry for {key!r}"
            seen.add(key)
    return None


@dataclass(frozen=True)
class ResourceBundle:
    """The complete per-language resource set. Treated as immutable after load."""

    lang: str
    abbreviations: frozenset[str] = frozenset()
    tag_lexicon: dict[str, tuple[str, ...]] = field(default_factory=dict)
    default_tag: str | None = None
    capitalized_tag: str | None = None
    context_rules: tuple[ContextRule, ...] = ()
    tagset_source: str = ""
    tagset_map: dict[str, str] = field(default_factory=dict)
    grammar: Grammar = Grammar()
    functions: tuple[GrammaticalFunction, ...] = ()
    lemma_rules: tuple[LemmaRule, ...] = ()
    sem_lexicon: tuple[SemLexEntry, ...] = ()
    frames: tuple[CaseFrame, ...] = ()
    ontology: Ontology = Ontology()
    struct_patterns: tuple[StructPattern, ...] = ()

    def __post_init__(self) -> None:
        if not self.lang:
            raise ValueError("bundle language must be non-empty")
        if not all(self.tag_lexicon.values()):
            form = next(form for form, tags in self.tag_lexicon.items() if not tags)
            raise ValueError(f"empty tag list for form {form!r}")
        if not all(self.tagset_map.values()):
            source = next(source for source, target in self.tagset_map.items() if not target)
            raise ValueError(f"empty target tag for source tag {source!r}")
        clash = _semlex_clash(self.sem_lexicon) or _function_clash(self.functions)
        if clash is not None:
            raise ValueError(clash[1])

    # Lookup indexes, built on first use and shared by every later
    # sentence; loading and validation never build them.

    @cached_property
    def sem_lexicon_index(self) -> Mapping[tuple[str, str], SemLexEntry]:
        """Semantic lexicon entries by (lemma, parser tag)."""
        return MappingProxyType({(e.lemma, e.pos): e for e in self.sem_lexicon})

    @cached_property
    def frames_by_lemma(self) -> Mapping[str, tuple[CaseFrame, ...]]:
        """Case frames by predicate lemma, in bundle order."""
        by_lemma: dict[str, list[CaseFrame]] = {}
        for frame in self.frames:
            by_lemma.setdefault(frame.predicate_lemma, []).append(frame)
        return MappingProxyType({lemma: tuple(fs) for lemma, fs in by_lemma.items()})


# ---------------------------------------------------------------------------
# The XML form
#
# Two tables declare every element.  The record table gives each record
# element's attributes: a listed record builds one instance of its class,
# a keyed record folds into a dict by its key, and a grammar <rule> takes
# any other attribute as a feature, as a <cat> does.  The section table
# gives each section's own attributes and records, in canonical order.
# Every element refuses an attribute it does not declare, except those
# feature attributes, and text other than whitespace.


def _require(elem: ET.Element, attr: str) -> str:
    value = elem.get(attr)
    if value is None:
        raise ValueError(f"missing required attribute {attr!r}")
    return value


def _children(elem: ET.Element, allowed: Container[str]) -> list[ET.Element]:
    children = list(elem)
    for child in children:
        if child.tag not in allowed:
            raise ValueError(f"unexpected element <{child.tag}>")
    return children


def _refuse_content(elem: ET.Element) -> None:
    """ValueError for a child element or text other than whitespace in ``elem``."""
    if len(elem):
        raise ValueError(f"unexpected element <{elem[0].tag}>")
    if elem.text is not None and elem.text.strip():
        raise ValueError(f"unexpected text {elem.text.strip()!r}")


def _refuse_stray_text(root: ET.Element) -> None:
    """MalformedResource for the first text other than whitespace in ``root``'s tree.

    Called once the records are read, which refuse text in a leaf record
    or a ``<cat>``.  What is left is text in an element that holds records:
    before its first child, refused at that element, or after a child,
    refused at the child.  A bundle whose text is all whitespace, checked
    in one pass over the tree's text, skips the walk that locates it.
    """
    if "".join(root.itertext()).isspace():
        return
    stack = [(root, "resources", False)]  # (element, location, its tail rather than its text)
    while stack:
        elem, location, is_tail = stack.pop()
        text = elem.tail if is_tail else elem.text
        if text and not text.isspace():
            after = " after the element" if is_tail else ""
            raise MalformedResource(location, f"unexpected text {text.strip()!r}{after}")
        if is_tail:
            continue
        counts: dict[str, int] = {}
        below = []
        for child in elem:
            counts[child.tag] = counts.get(child.tag, 0) + 1
            step = child.tag if elem is root else f"{location}/{child.tag}[{counts[child.tag]}]"
            below += [(child, step, False), (child, step, True)]
        stack.extend(reversed(below))


def _refuse_unknown(elem: ET.Element, declared: Container[str]) -> None:
    """ValueError naming the first attribute of ``elem`` not in ``declared``."""
    unknown = [attr for attr in elem.attrib if attr not in declared]
    if unknown:
        raise ValueError(f"unknown attribute {unknown[0]!r}")


def _int_attr(elem: ET.Element, attr: str) -> int:
    raw = _require(elem, attr)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"attribute {attr!r} is not an integer: {raw!r}") from None


def _bool_attr(elem: ET.Element, attr: str) -> bool:
    raw = _require(elem, attr)
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"attribute {attr!r} must be 'true' or 'false', got {raw!r}")


def _at(step: str, exc: ValueError | MalformedResource) -> MalformedResource:
    """``exc`` located at ``step``: its reason there, or its location below it."""
    if isinstance(exc, MalformedResource):
        return MalformedResource(f"{step}/{exc.location}", exc.reason)
    return MalformedResource(step, str(exc))


# Attribute readers by the annotation text of the field they fill.
_READERS = {"str": _require, "int": _int_attr, "bool": _bool_attr,
            "str | None": lambda elem, attr: elem.get(attr)}


def _esc(value: str) -> str:
    """``value`` as XML attribute text; ValueError for a character XML 1.0 cannot carry."""
    if value.isalnum():  # most forms, tags and ids: nothing to escape
        return value
    bad = _NOT_XML.search(value)
    if bad is not None:
        raise ValueError(f"character U+{ord(bad.group()):04X} in {value!r} cannot be written as XML")
    value = (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
    return value.replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;")


def _attrs(pairs: Iterable[tuple[str, str]]) -> str:
    return "".join(f' {key}="{_esc(value)}"' for key, value in pairs)


def _element(tag: str, pairs: Iterable[tuple[str, str]], body: str | None = None) -> str:
    """``tag`` with ``pairs`` as its attributes and ``body`` as its content, if given."""
    start = f"<{tag}{_attrs(pairs)}"
    return f"{start}/>" if body is None else f"{start}>{body}</{tag}>"


# Characters XML 1.0 cannot carry, escaped or not.  ``\S+`` can take the
# first set into a word; the rest (\v, \f, \x1c-\x1f) is whitespace to it.
_NOT_XML_WORD_CHARS = r"\x00-\x08\x0e-\x1b\ufffe\uffff\ud800-\udfff"
_NOT_XML_IN_WORDS = re.compile(f"[{_NOT_XML_WORD_CHARS}]")
_NOT_XML = re.compile(rf"[{_NOT_XML_WORD_CHARS}\x0b\x0c\x1c-\x1f]")


def _attr_text(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class _Record(NamedTuple):
    """A listed record element: its tag, the class it builds, its
    (attribute, field, reader) triples in canonical attribute order, the
    position among the class's fields of the one read from child
    elements, how many of its attributes are required, the reader and
    writer of its child elements, and the check that finds the first
    record clashing with an earlier one, with the reason."""

    tag: str
    cls: type
    attrs: tuple[tuple[str, str, Callable[[ET.Element, str], object]], ...]
    children_at: int
    required: int
    read_children: Callable[[ET.Element], object] | None = None
    write_children: Callable[[object], str | None] = lambda item: None
    clash: Callable[[list], tuple[int, str] | None] | None = None

    def read(self, children: list[ET.Element]) -> tuple:
        """``children``, all elements of this record, built in order.

        A child that cannot be built, that carries an attribute the
        record does not declare, that holds an element or text it does
        not read or that clashes with an earlier one is refused at
        ``{tag}[i]``, or below it for a fault in its own children.
        """
        cls, attrs, children_at, required = self.cls, self.attrs, self.children_at, self.required
        read_children = self.read_children
        items = []
        for i, child in enumerate(children, 1):
            try:
                values = [read(child, attr) for attr, _, read in attrs]
                if len(child.attrib) > required:  # more than the required ones, read above
                    _refuse_unknown(child, [attr for attr, _, _ in attrs])
                if read_children is not None:
                    values.insert(children_at, read_children(child))
                elif child.text is not None or len(child):
                    _refuse_content(child)
                items.append(cls(*values))
            except (ValueError, MalformedResource) as exc:
                raise _at(f"{self.tag}[{i}]", exc) from None
        clash = None if self.clash is None else self.clash(items)
        if clash is not None:
            raise MalformedResource(f"{self.tag}[{clash[0] + 1}]", clash[1])
        return tuple(items)

    def write(self, items: Iterable) -> list[str]:
        lines = []
        for item in items:
            values = ((attr, getattr(item, name)) for attr, name, _ in self.attrs)
            pairs = [(attr, _attr_text(value)) for attr, value in values if value is not None]
            lines.append(_element(self.tag, pairs, self.write_children(item)))
        return lines


def _record(tag: str, cls: type, *children: Callable, clash=None, **attrs: str) -> _Record:
    """Declare ``tag`` from field=attribute pairs, binding each reader once.

    Records are built positionally, so the pairs follow the class's field
    order; a field left out is the one read from child elements, by the
    reader and writer given in ``children``.  ``clash`` checks the
    records of one parent element together.
    """
    types = {f.name: f.type for f in fields(cls)}
    if list(attrs) != [name for name in types if name in attrs]:
        raise TypeError(f"<{tag}> attributes must follow the fields of {cls.__name__}")
    triples = tuple((attr, name, _READERS[types[name]]) for name, attr in attrs.items())
    children_at = next((i for i, name in enumerate(types) if name not in attrs), len(types))
    required = sum(types[name] != "str | None" for name in attrs)
    return _Record(tag, cls, triples, children_at, required, *children, clash=clash)


class _Keyed(NamedTuple):
    """A keyed record element, folded into a dict by its ``key`` attribute;
    ``repeat`` is the reason a repeated key is refused, its ``{!r}`` the
    key.  The key maps to the ``value`` attribute as ``parse`` reads it
    (``text`` writes it back; ``empty`` refuses an empty one), or else to
    its ``children`` folded, or else to None: a set member."""

    tag: str
    key: str
    repeat: str
    value: str | None = None
    empty: str | None = None
    parse: Callable[[str], object] = str
    text: Callable[[object], str] = str
    children: _Keyed | None = None

    def read(self, children: list[ET.Element]) -> dict:
        """``children``, all elements of this record, folded by key in
        document order; a refused child, one with an element or text
        it does not read among them, is located at ``{tag}[i]``."""
        key_attr, value_attr, parse, nested = self.key, self.value, self.parse, self.children
        declared = (key_attr,) if value_attr is None else (key_attr, value_attr)
        folded: dict = {}
        for i, child in enumerate(children, 1):
            try:
                attrib = child.attrib
                key, value = attrib.get(key_attr), attrib.get(value_attr)
                if key is None or len(attrib) != len(declared) or (value is None and value_attr):
                    for attr in declared:  # a faulty child: the first fault raises
                        _require(child, attr)
                    _refuse_unknown(child, declared)
                if value_attr is not None:
                    value = parse(value)
                    if not value and self.empty is not None:
                        raise ValueError(self.empty)
                elif nested is not None:
                    value = nested.read(_children(child, (nested.tag,)))
                if nested is None and (child.text is not None or len(child)):
                    _refuse_content(child)
                if key in folded:
                    raise ValueError(self.repeat.format(key))
            except (ValueError, MalformedResource) as exc:
                raise _at(f"{self.tag}[{i}]", exc) from None
            folded[key] = value
        return folded

    def write(self, folded: Iterable) -> list[str]:
        """``folded``, a dict or, for set members, the keys alone, sorted by key."""
        lines = []
        for key in sorted(folded):
            pairs, body = [(self.key, key)], None
            if self.value is not None:
                pairs.append((self.value, self.text(folded[key])))
            elif self.children is not None:
                body = "".join(self.children.write(folded[key])) or None
            lines.append(_element(self.tag, pairs, body))
        return lines


def _read_category(elem: ET.Element) -> Category:
    name = _require(elem, "name")
    _refuse_content(elem)
    cat = Category(name, {k: v for k, v in elem.attrib.items() if k != "name"})
    _check_unreserved(cat)
    return cat


def _write_category(cat: Category) -> str:
    return _element("cat", [("name", cat.name), *cat.features])


class _GrammarRuleRecord:
    """The grammar's ``<rule>`` element: beside ``lhs`` and ``head`` its
    attributes are features of its left-hand side, and each ``<cat>``
    child is one category of its right-hand side, its attributes beside
    ``name`` features."""

    tag = "rule"

    def read(self, children: list[ET.Element]) -> tuple[GrammarRule, ...]:
        rules = []
        for i, child in enumerate(children, 1):
            try:
                lhs_name, head = _require(child, "lhs"), _int_attr(child, "head")
                if "name" in child.attrib:
                    raise ValueError("feature key 'name' is reserved")
                features = {k: v for k, v in child.attrib.items() if k not in ("lhs", "head")}
                rhs = []
                for j, cat in enumerate(_children(child, {"cat"}), 1):
                    try:
                        rhs.append(_read_category(cat))
                    except ValueError as exc:
                        raise _at(f"cat[{j}]", exc) from None
                rules.append(GrammarRule(Category(lhs_name, features), tuple(rhs), head))
            except (ValueError, MalformedResource) as exc:
                raise _at(f"{self.tag}[{i}]", exc) from None
        return tuple(rules)

    def write(self, rules: Iterable[GrammarRule]) -> list[str]:
        lines = []
        for rule in rules:
            pairs = [("lhs", rule.lhs.name), *rule.lhs.features, ("head", str(rule.head))]
            body = "".join(_write_category(cat) for cat in rule.rhs)
            lines.append(_element(self.tag, pairs, body))
        return lines


def _read_function_category(elem: ET.Element) -> Category:
    cats = _children(elem, {"cat"})
    if len(cats) != 1:
        raise ValueError(f"expected one <cat>, got {len(cats)}")
    return _read_category(cats[0])


# The record table.  A function's category, a frame's slots and a
# pattern's items are read from and written to child elements.
_CONTEXT_RULE = _record(
    "rule", ContextRule, from_tag="from", to_tag="to", trigger="trigger", trigger_value="value"
)
_LEMMA_RULE = _record("lemrule", LemmaRule, strip="strip", min_stem_len="minstem")
_SEMLEX_ENTRY = _record(
    "entry", SemLexEntry, clash=_semlex_clash, lemma="lemma", pos="pos", semclass="semclass"
)
_FRAME_SLOT = _record(
    "slot", FrameSlot,
    clash=_slot_clash, role="role", gf="gf", fill_concept="fill", required="required",
)
_FUNCTION = _record(
    "function", GrammaticalFunction,
    _read_function_category, lambda function: _write_category(function.category),
    clash=_function_clash, gf="gf", after="after", before="before",
)
_CASE_FRAME = _record(
    "frame", CaseFrame,
    lambda elem: _FRAME_SLOT.read(_children(elem, (_FRAME_SLOT.tag,))),
    lambda frame: "".join(f"\n      {slot}" for slot in _FRAME_SLOT.write(frame.slots))
    + "\n    ",
    id="id", predicate_lemma="predicate", relation="relation",
)
_PATTERN_ITEM = _record("m", PatternItem, name="name", form="form")
_STRUCT_PATTERN = _record(
    "pattern", StructPattern,
    lambda elem: _PATTERN_ITEM.read(_children(elem, (_PATTERN_ITEM.tag,))),
    lambda pattern: "".join(_PATTERN_ITEM.write(pattern.rhs_match)),
    id="id", constituent_cat="cat", relation="relation", arg1="arg1", arg2="arg2",
)
_ABBR = _Keyed("abbr", "form", "duplicate abbreviation {!r}")
_WORD = _Keyed("w", "form", "duplicate form {!r}", "tags", "empty tag list",
               lambda text: tuple(text.split()), " ".join)
_MAP = _Keyed("map", "from", "duplicate mapping for source tag {!r}", "to", "empty target tag")
_CONCEPT = _Keyed("concept", "id", "duplicate concept {!r}",
                  children=_Keyed("isa", "ref", "duplicate isa target {!r}"))
_LEXMAP = _Keyed("lexmap", "semclass", "duplicate lexmap for semclass {!r}", "concept")
_GRAMMAR_RULE = _GrammarRuleRecord()


def _ontology(concepts: dict, lexmap: dict) -> dict:
    """The ontology of the folded records.  Keys are unique and folds keep
    document order, so the first concept id or isa or lexmap target the
    constructor would refuse is refused where it stands; the constructor
    raises CyclicOntology for an isa cycle."""
    for i, (cid, parents) in enumerate(concepts.items(), 1):
        try:
            _check_row_text("concept id", cid)
        except ValueError as exc:
            raise _at(f"concept[{i}]", exc) from None
        for j, ref in enumerate(parents, 1):
            if ref not in concepts:
                reason = f"isa target {ref!r} is not a concept"
                raise MalformedResource(f"concept[{i}]/isa[{j}]", reason)
    for i, target in enumerate(lexmap.values(), 1):
        if target not in concepts:
            raise MalformedResource(f"lexmap[{i}]", f"lexmap target {target!r} is not a concept")
    isa = {cid: frozenset(parents) for cid, parents in concepts.items() if parents}
    return {"ontology": Ontology(frozenset(concepts), isa, lexmap)}


_REQUIRED = object()  # the absent value of an attribute that must be given


class _Section(NamedTuple):
    """A section element: its tag, its own attributes as (attribute, name,
    value when absent) triples, and its records as (name, record) pairs.
    The names are the bundle fields it fills, unless ``build`` makes those
    from the named values and ``named`` gives the named values of a
    bundle.  ``end_tag`` writes an end tag after attributes and no records."""

    tag: str
    attrs: tuple[tuple[str, str, object], ...] = ()
    records: tuple[tuple[str, _Record | _Keyed | _GrammarRuleRecord], ...] = ()
    build: Callable[..., dict] | None = None
    named: Callable[[ResourceBundle], dict] | None = None
    end_tag: bool = False


def _read_attrs(elem: ET.Element, section: _Section) -> dict:
    """The values of ``elem``'s own attributes by name, as ``section`` declares them."""
    values = {name: _require(elem, attr) if absent is _REQUIRED else elem.get(attr, absent)
              for attr, name, absent in section.attrs}
    if elem.attrib:
        _refuse_unknown(elem, [attr for attr, _, _ in section.attrs])
    return values


def _read_section(section: _Section, elem: ET.Element) -> dict:
    """The bundle fields that ``elem`` fills, read as ``section`` declares."""
    values = _read_attrs(elem, section)
    children = _children(elem, [record.tag for _, record in section.records])
    for name, record in section.records:
        values[name] = record.read(children if len(section.records) == 1
                                   else [child for child in children if child.tag == record.tag])
    return values if section.build is None else section.build(**values)


def _write_section(section: _Section, bundle: ResourceBundle) -> list[str]:
    """``section``'s lines for ``bundle``: none without records or attributes to write."""
    if section.named is not None:
        values = section.named(bundle)
    else:
        names = [name for _, name, _ in section.attrs] + [name for name, _ in section.records]
        values = {name: getattr(bundle, name) for name in names}
    # An attribute is left out when absent, or when required and empty.
    attrs = [(attr, values[name]) for attr, name, absent in section.attrs
             if values[name] != ("" if absent is _REQUIRED else absent)]
    items = [item for name, record in section.records for item in record.write(values[name])]
    if not items and not attrs:
        return []
    if not items and not section.end_tag:
        return [f"  {_element(section.tag, attrs)}"]
    start = f"  <{section.tag}{_attrs(attrs)}>"
    return [start, *(f"    {item}" for item in items), f"  </{section.tag}>"]


# The section table, in canonical order, after the root's own attribute.
_RESOURCES = _Section("resources", (("lang", "lang", _REQUIRED),))
_SECTIONS = (
    _Section("abbreviations", records=(("abbreviations", _ABBR),),
             build=lambda abbreviations: {"abbreviations": frozenset(abbreviations)}),
    _Section(
        "taglexicon", (("default", "default_tag", None), ("capitalized", "capitalized_tag", None)),
        (("tag_lexicon", _WORD),),
    ),
    _Section("rules", records=(("context_rules", _CONTEXT_RULE),)),
    _Section("tagmap", (("source", "tagset_source", ""),), (("tagset_map", _MAP),), end_tag=True),
    _Section(
        "grammar", (("start", "start", _REQUIRED),), (("rules", _GRAMMAR_RULE),),
        build=lambda start, rules: {"grammar": Grammar(start, rules)},
        named=lambda bundle: {"start": bundle.grammar.start_symbol, "rules": bundle.grammar.rules},
    ),
    _Section("functions", records=(("functions", _FUNCTION),)),
    _Section("lemmarules", records=(("lemma_rules", _LEMMA_RULE),)),
    _Section("semlex", records=(("sem_lexicon", _SEMLEX_ENTRY),)),
    _Section("frames", records=(("frames", _CASE_FRAME),)),
    _Section(
        "ontology", records=(("concepts", _CONCEPT), ("lexmap", _LEXMAP)), build=_ontology,
        named=lambda bundle: {
            "concepts": {cid: bundle.ontology.parents(cid) for cid in bundle.ontology.concepts},
            "lexmap": bundle.ontology.lexmap,
        },
    ),
    _Section("structmap", records=(("struct_patterns", _STRUCT_PATTERN),)),
)
_SECTIONS_BY_TAG = {section.tag: section for section in _SECTIONS}


# ---------------------------------------------------------------------------
# Loading


def loads_bundle(data: str | bytes) -> ResourceBundle:
    """Parse bundle XML from a string. See :func:`load_bundle`."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedResource("document", f"not well-formed XML: {exc}") from None
    if root.tag != "resources":
        raise MalformedResource("document", f"root element must be <resources>, got <{root.tag}>")

    try:
        values = _read_attrs(root, _RESOURCES)
        if not values["lang"]:
            raise ValueError("lang must be non-empty")
        sections = _children(root, _SECTIONS_BY_TAG)
    except ValueError as exc:
        raise MalformedResource("resources", str(exc)) from None

    seen = set()
    for child in sections:
        if child.tag in seen:
            raise MalformedResource("resources", f"duplicate section <{child.tag}>")
        seen.add(child.tag)
        try:
            values.update(_read_section(_SECTIONS_BY_TAG[child.tag], child))
        except (ValueError, MalformedResource) as exc:
            raise _at(child.tag, exc) from None
    _refuse_stray_text(root)

    try:
        return ResourceBundle(**values)  # type: ignore[arg-type]
    except ValueError as exc:  # the sections refuse all the constructor does, with locations
        raise MalformedResource("resources", str(exc)) from None


def _read_bundle_bytes(path: str | Path) -> bytes:
    """The bundle file's bytes; :class:`MalformedResource` when unreadable."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise MalformedResource(str(path), f"cannot read bundle: {exc}") from None


def _parse_bundle_bytes(path: str | Path, data: bytes) -> ResourceBundle:
    """:func:`loads_bundle` on the bytes of the file at ``path``.

    Errors about the document as a whole (not well-formed XML, wrong
    root element) carry the file's path as their location, since they
    name no element.
    """
    try:
        return loads_bundle(data)
    except MalformedResource as exc:
        if exc.location != "document":
            raise
        raise MalformedResource(str(path), exc.reason) from None


def load_bundle(path: str | Path) -> ResourceBundle:
    """Load and type-check one bundle file.

    Raises :class:`MalformedResource` for unreadable files and schema
    violations and :class:`CyclicOntology` when the isa graph has a
    cycle.  No cross-section validation happens here.  Every call reads
    the file and returns a new bundle; nothing is cached.
    """
    return _parse_bundle_bytes(path, _read_bundle_bytes(path))


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Finding:
    severity: str
    code: str
    location: str
    detail: str = ""


def _finding(code: str, location: str, detail: str) -> Finding:
    return Finding("error", code, location, detail)


def validate_bundle(bundle: ResourceBundle) -> list[Finding]:
    """Cross-check references between bundle sections.

    Returns a deterministic report, ordered by location.  An empty report
    means every grammar terminal is a tagset-map target, every tag the
    tagger can produce is mappable, functions, frames and patterns only
    reference material that exists, every frame slot's function is
    declared, and the grammar has no unary rule cycles.
    A bundle with neither lexicon entries nor a default tag draws only a
    warning: it cannot tag raw text, but it still analyzes tag files.
    """
    findings: list[Finding] = []
    domain = set(bundle.tagset_map)
    parser_tags = set(bundle.tagset_map.values())
    lhs_names = bundle.grammar.lhs_names()
    known_cats = lhs_names | parser_tags

    for name in sorted(bundle.grammar.terminal_names()):
        if name not in parser_tags:
            findings.append(
                _finding(
                    "UnreachableTerminal",
                    f"grammar/terminal[{name}]",
                    f"terminal {name!r} is not produced by any tagset mapping",
                )
            )

    for idx in _unary_cycle_rules(bundle.grammar.rules):
        lhs = bundle.grammar.rules[idx].lhs.name
        findings.append(
            _finding("UnaryRuleCycle", f"grammar/rule[{idx + 1}]", f"unary cycle through {lhs!r}")
        )

    for form, tags in bundle.tag_lexicon.items():  # the closing sort orders the report
        for tag in tags:
            if tag not in domain:
                findings.append(
                    _finding(
                        "UnmappableLexiconTag",
                        f"taglexicon/w[{form}]",
                        f"tag {tag!r} has no tagset mapping",
                    )
                )
    if bundle.default_tag is None and bundle.tag_lexicon:
        findings.append(
            _finding("MissingDefaultTag", "taglexicon", "lexicon entries present but no default tag")
        )
    elif bundle.default_tag is None:
        # Every form is unknown then, and a sentence's first token never
        # takes the capitalized tag, so initial_tag fails on any raw text.
        findings.append(
            Finding(
                "warning",
                "MissingDefaultTag",
                "taglexicon",
                "no lexicon entries and no default tag: raw text cannot be tagged,"
                " only --external-tags input works",
            )
        )
    if bundle.default_tag is not None and bundle.default_tag not in domain:
        findings.append(
            _finding(
                "UnmappableLexiconTag",
                "taglexicon@default",
                f"default tag {bundle.default_tag!r} has no tagset mapping",
            )
        )
    if bundle.capitalized_tag is not None and bundle.capitalized_tag not in domain:
        findings.append(
            _finding(
                "UnmappableLexiconTag",
                "taglexicon@capitalized",
                f"capitalized tag {bundle.capitalized_tag!r} has no tagset mapping",
            )
        )

    for idx, rule in enumerate(bundle.context_rules, 1):
        if rule.to_tag not in domain:
            findings.append(
                _finding(
                    "UnmappableRuleTag",
                    f"rules/rule[{idx}]",
                    f"rewrite target {rule.to_tag!r} has no tagset mapping",
                )
            )

    lemmas = {entry.lemma for entry in bundle.sem_lexicon}
    for entry in bundle.sem_lexicon:
        if entry.pos not in parser_tags:
            findings.append(
                _finding(
                    "UnknownSemLexPos",
                    f"semlex/entry[{entry.lemma}:{entry.pos}]",
                    f"pos {entry.pos!r} is not a parser tag",
                )
            )

    carried = {item for rule in bundle.grammar.rules for cat in (rule.lhs, *rule.rhs)
               for item in cat.features}
    for function in bundle.functions:
        where = f"functions/function[{function.gf}]"
        for name in {function.category.name, function.after, function.before} - known_cats - {None}:
            detail = f"category {name!r} is neither a rule lhs nor a parser tag"
            findings.append(_finding("UnknownFunctionCategory", where, detail))
        for key, value in set(function.category.features) - carried:
            detail = f"feature {key}={value} is carried by no grammar category"
            findings.append(_finding("UnknownFunctionFeature", where, detail))

    for frame in bundle.frames:
        if frame.predicate_lemma not in lemmas:
            findings.append(
                _finding(
                    "MissingPredicateEntry",
                    f"frames/frame[{frame.id}]",
                    f"predicate {frame.predicate_lemma!r} has no semantic lexicon entry",
                )
            )
        for slot in frame.slots:
            where = f"frames/frame[{frame.id}]/slot[{slot.role}]"
            if all(function.gf != slot.gf for function in bundle.functions):
                detail = f"grammatical function {slot.gf!r} has no declaration"
                findings.append(_finding("UndeclaredFunction", where, detail))
            if slot.fill_concept not in bundle.ontology.concepts:
                findings.append(
                    _finding(
                        "DanglingConceptRef",
                        where,
                        f"fill concept {slot.fill_concept!r} is not in the ontology",
                    )
                )

    for pattern in bundle.struct_patterns:
        if pattern.constituent_cat not in known_cats:
            findings.append(
                _finding(
                    "UnknownPatternCategory",
                    f"structmap/pattern[{pattern.id}]",
                    f"category {pattern.constituent_cat!r} is neither a rule lhs nor a parser tag",
                )
            )
        for j, item in enumerate(pattern.rhs_match, 1):
            if item.name not in known_cats:
                findings.append(
                    _finding(
                        "UnknownPatternCategory",
                        f"structmap/pattern[{pattern.id}]/m[{j}]",
                        f"category {item.name!r} is neither a rule lhs nor a parser tag",
                    )
                )

    findings.sort(key=lambda f: (f.location, f.code, f.detail))
    return findings


# ---------------------------------------------------------------------------
# Serialization


def serialize_bundle(bundle: ResourceBundle) -> str:
    """Write canonical bundle XML: byte-identical across repeated calls."""
    body = [line for section in _SECTIONS for line in _write_section(section, bundle)]
    lang = _attrs([("lang", bundle.lang)])
    root = [f"<resources{lang}>", *body, "</resources>"] if body else [f"<resources{lang}/>"]
    return "\n".join(['<?xml version="1.0" encoding="UTF-8"?>', *root]) + "\n"
