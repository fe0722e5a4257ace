"""Language resource bundles.

A bundle is one XML file carrying every language-dependent fact the
analysis stages consume: abbreviation lexicon, tag lexicon and context
rules, tagset map, grammar, lemma rules, semantic lexicon, case frames,
ontology and noun-phrase structure patterns.  The code in the rest of
the package is language independent; swapping the bundle swaps the
language.

Loading enforces per-section invariants only.  Cross-section consistency
(for example that every grammar terminal can actually be produced by the
tagset map) is a separate pass, :func:`validate_bundle`, so that
authoring tools may load partial bundles.  :func:`serialize_bundle`
writes a canonical form: fixed attribute order, sorted map keys, fixed
indentation, so output bytes are stable across runs.
"""

from __future__ import annotations

import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import CyclicOntology, MalformedResource

__all__ = [
    "Category",
    "GrammarRule",
    "Grammar",
    "ContextRule",
    "LemmaRule",
    "SemLexEntry",
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

TRIGGERS = frozenset(
    {"prev_tag", "next_tag", "prev2_tag", "next2_tag", "prev_word", "next_word"}
)
GF_MODES = frozenset({"positional", "case-marked"})
GF_SLOTS = frozenset({"subject", "object"})


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

    def feature(self, key: str) -> str | None:
        for k, v in self.features:
            if k == key:
                return v
        return None

    def label(self) -> str:
        """Render for debug output, e.g. ``NP[case=nom]``."""
        if not self.features:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.features)
        return f"{self.name}[{inner}]"


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


@dataclass
class CompiledGrammar:
    """Chart-parser tables for one grammar object, shared by all its parses.

    ``rules_by_first`` lists rule indices by the name of their first rhs
    symbol; ``rhs_names`` and ``heads`` (0-based) give each rule's shape.
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
    rhs_names: tuple[tuple[str, ...], ...]
    heads: tuple[int, ...]
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


@dataclass(frozen=True)
class Grammar:
    start_symbol: str = ""
    rules: tuple[GrammarRule, ...] = ()

    @cached_property
    def compiled(self) -> CompiledGrammar:
        """The parser tables, built on the first parse with this object."""
        by_first: dict[str, list[int]] = {}
        for idx, rule in enumerate(self.rules):
            by_first.setdefault(rule.rhs[0].name, []).append(idx)
        return CompiledGrammar(
            {name: tuple(ids) for name, ids in by_first.items()},
            tuple(tuple(cat.name for cat in rule.rhs) for rule in self.rules),
            tuple(rule.head - 1 for rule in self.rules),
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


@dataclass(frozen=True)
class SemLexEntry:
    lemma: str
    pos: str
    semclass: str


@dataclass(frozen=True)
class FrameSlot:
    role: str
    gf: str
    fill_concept: str
    required: bool


@dataclass(frozen=True)
class CaseFrame:
    id: str
    predicate_lemma: str
    relation: str
    slots: tuple[FrameSlot, ...]


@dataclass(frozen=True)
class Ontology:
    concepts: frozenset[str] = frozenset()
    isa: dict[str, frozenset[str]] = field(default_factory=dict)
    lexmap: dict[str, str] = field(default_factory=dict)

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
        n = len(self.rhs_match)
        if not (1 <= self.arg1 <= n and 1 <= self.arg2 <= n):
            raise ValueError("argument indices outside pattern bounds")
        if self.arg1 == self.arg2:
            raise ValueError("argument indices must be distinct")


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
    gf_mode: str = "positional"
    lemma_rules: tuple[LemmaRule, ...] = ()
    sem_lexicon: tuple[SemLexEntry, ...] = ()
    frames: tuple[CaseFrame, ...] = ()
    ontology: Ontology = Ontology()
    struct_patterns: tuple[StructPattern, ...] = ()

    def __post_init__(self) -> None:
        if not self.lang:
            raise ValueError("bundle language must be non-empty")
        if self.gf_mode not in GF_MODES:
            raise ValueError(f"unknown grammatical-function mode {self.gf_mode!r}")

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

    @cached_property
    def frames_by_id(self) -> Mapping[str, CaseFrame]:
        return MappingProxyType({frame.id: frame for frame in self.frames})


# ---------------------------------------------------------------------------
# Loading


def _require(elem: ET.Element, attr: str, location: str) -> str:
    value = elem.get(attr)
    if value is None:
        raise MalformedResource(location, f"missing required attribute {attr!r}")
    return value


def _children(elem: ET.Element, allowed: Iterable[str], location: str) -> list[ET.Element]:
    allowed = set(allowed)
    out = []
    for child in elem:
        if child.tag not in allowed:
            raise MalformedResource(location, f"unexpected element <{child.tag}>")
        out.append(child)
    return out


def _int_attr(elem: ET.Element, attr: str, location: str) -> int:
    raw = _require(elem, attr, location)
    try:
        return int(raw)
    except ValueError:
        raise MalformedResource(location, f"attribute {attr!r} is not an integer: {raw!r}") from None


def _bool_attr(elem: ET.Element, attr: str, location: str) -> bool:
    raw = _require(elem, attr, location)
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise MalformedResource(location, f"attribute {attr!r} must be 'true' or 'false', got {raw!r}")


def _load_abbreviations(elem: ET.Element, location: str) -> frozenset[str]:
    forms = set()
    for i, child in enumerate(_children(elem, {"abbr"}, location), 1):
        forms.add(_require(child, "form", f"{location}/abbr[{i}]"))
    return frozenset(forms)


def _load_taglexicon(elem: ET.Element, location: str):
    entries: dict[str, tuple[str, ...]] = {}
    for i, child in enumerate(_children(elem, {"w"}, location), 1):
        loc = f"{location}/w[{i}]"
        form = _require(child, "form", loc)
        tags = tuple(_require(child, "tags", loc).split())
        if not tags:
            raise MalformedResource(loc, "empty tag list")
        if form in entries:
            raise MalformedResource(loc, f"duplicate form {form!r}")
        entries[form] = tags
    return entries, elem.get("default"), elem.get("capitalized")


def _load_context_rules(elem: ET.Element, location: str) -> tuple[ContextRule, ...]:
    rules = []
    for i, child in enumerate(_children(elem, {"rule"}, location), 1):
        loc = f"{location}/rule[{i}]"
        try:
            rules.append(
                ContextRule(
                    from_tag=_require(child, "from", loc),
                    to_tag=_require(child, "to", loc),
                    trigger=_require(child, "trigger", loc),
                    trigger_value=_require(child, "value", loc),
                )
            )
        except ValueError as exc:
            raise MalformedResource(loc, str(exc)) from None
    return tuple(rules)


def _load_tagmap(elem: ET.Element, location: str):
    mapping: dict[str, str] = {}
    for i, child in enumerate(_children(elem, {"map"}, location), 1):
        loc = f"{location}/map[{i}]"
        src = _require(child, "from", loc)
        dst = _require(child, "to", loc)
        if src in mapping:
            raise MalformedResource(loc, f"duplicate mapping for source tag {src!r}")
        mapping[src] = dst
    return mapping, elem.get("source", "")


def _load_category(elem: ET.Element, location: str, reserved: frozenset[str]) -> Category:
    name = _require(elem, "name", location)
    features = {k: v for k, v in elem.attrib.items() if k != "name"}
    bad = set(features) & reserved
    if bad:
        raise MalformedResource(location, f"feature keys {sorted(bad)} are reserved")
    try:
        return Category(name, features)
    except ValueError as exc:
        raise MalformedResource(location, str(exc)) from None


_RULE_RESERVED = frozenset({"lhs", "head", "name"})


def _load_grammar(elem: ET.Element, location: str):
    gf_mode = elem.get("gf", "positional")
    if gf_mode not in GF_MODES:
        raise MalformedResource(location, f"unknown gf mode {gf_mode!r}")
    start = _require(elem, "start", location)
    rules = []
    for i, child in enumerate(_children(elem, {"rule"}, location), 1):
        loc = f"{location}/rule[{i}]"
        lhs_name = _require(child, "lhs", loc)
        head = _int_attr(child, "head", loc)
        lhs_features = {
            k: v for k, v in child.attrib.items() if k not in ("lhs", "head")
        }
        if "name" in lhs_features:
            raise MalformedResource(loc, "feature key 'name' is reserved")
        rhs = tuple(
            _load_category(cat, f"{loc}/cat[{j}]", _RULE_RESERVED)
            for j, cat in enumerate(_children(child, {"cat"}, loc), 1)
        )
        try:
            rules.append(GrammarRule(Category(lhs_name, lhs_features), rhs, head))
        except ValueError as exc:
            raise MalformedResource(loc, str(exc)) from None
    grammar = Grammar(start, tuple(rules))
    if rules and start not in grammar.lhs_names():
        raise MalformedResource(location, f"start symbol {start!r} is not a rule left-hand side")
    return grammar, gf_mode


def _load_lemma_rules(elem: ET.Element, location: str) -> tuple[LemmaRule, ...]:
    rules = []
    for i, child in enumerate(_children(elem, {"lemrule"}, location), 1):
        loc = f"{location}/lemrule[{i}]"
        strip = _require(child, "strip", loc)
        if not strip:
            raise MalformedResource(loc, "empty strip suffix")
        minstem = _int_attr(child, "minstem", loc)
        if minstem < 0:
            raise MalformedResource(loc, "minstem must be non-negative")
        rules.append(LemmaRule(strip, minstem))
    return tuple(rules)


def _load_semlex(elem: ET.Element, location: str) -> tuple[SemLexEntry, ...]:
    entries = []
    seen = set()
    for i, child in enumerate(_children(elem, {"entry"}, location), 1):
        loc = f"{location}/entry[{i}]"
        entry = SemLexEntry(
            lemma=_require(child, "lemma", loc),
            pos=_require(child, "pos", loc),
            semclass=_require(child, "semclass", loc),
        )
        key = (entry.lemma, entry.pos)
        if key in seen:
            raise MalformedResource(loc, f"duplicate entry for {key!r}")
        seen.add(key)
        entries.append(entry)
    return tuple(entries)


def _load_frames(elem: ET.Element, location: str) -> tuple[CaseFrame, ...]:
    frames = []
    for i, child in enumerate(_children(elem, {"frame"}, location), 1):
        loc = f"{location}/frame[{i}]"
        frame_id = _require(child, "id", loc)
        slots = []
        roles = set()
        gfs = set()
        for j, slot_elem in enumerate(_children(child, {"slot"}, loc), 1):
            sloc = f"{loc}/slot[{j}]"
            slot = FrameSlot(
                role=_require(slot_elem, "role", sloc),
                gf=_require(slot_elem, "gf", sloc),
                fill_concept=_require(slot_elem, "fill", sloc),
                required=_bool_attr(slot_elem, "required", sloc),
            )
            if slot.gf not in GF_SLOTS:
                raise MalformedResource(sloc, f"unknown grammatical function {slot.gf!r}")
            if slot.role in roles:
                raise MalformedResource(sloc, f"duplicate role {slot.role!r}")
            if slot.gf in gfs:
                raise MalformedResource(sloc, f"more than one slot with gf {slot.gf!r}")
            roles.add(slot.role)
            gfs.add(slot.gf)
            slots.append(slot)
        frames.append(
            CaseFrame(
                id=frame_id,
                predicate_lemma=_require(child, "predicate", loc),
                relation=_require(child, "relation", loc),
                slots=tuple(slots),
            )
        )
    return tuple(frames)


def _check_acyclic(isa: dict[str, frozenset[str]], concepts: frozenset[str]) -> None:
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


def _load_ontology(elem: ET.Element, location: str) -> Ontology:
    concept_elems: list[tuple[str, ET.Element, str]] = []
    lexmap_elems: list[tuple[ET.Element, str]] = []
    i = 0
    for child in _children(elem, {"concept", "lexmap"}, location):
        if child.tag == "concept":
            i += 1
            loc = f"{location}/concept[{i}]"
            concept_elems.append((_require(child, "id", loc), child, loc))
        else:
            lexmap_elems.append((child, f"{location}/lexmap[{len(lexmap_elems) + 1}]"))

    concepts = set()
    for cid, _, loc in concept_elems:
        if cid in concepts:
            raise MalformedResource(loc, f"duplicate concept {cid!r}")
        concepts.add(cid)

    isa: dict[str, frozenset[str]] = {}
    for cid, child, loc in concept_elems:
        parents = set()
        for j, isa_elem in enumerate(_children(child, {"isa"}, loc), 1):
            ref = _require(isa_elem, "ref", f"{loc}/isa[{j}]")
            if ref not in concepts:
                raise MalformedResource(f"{loc}/isa[{j}]", f"isa target {ref!r} is not a concept")
            parents.add(ref)
        if parents:
            isa[cid] = frozenset(parents)

    lexmap: dict[str, str] = {}
    for child, loc in lexmap_elems:
        semclass = _require(child, "semclass", loc)
        concept = _require(child, "concept", loc)
        if concept not in concepts:
            raise MalformedResource(loc, f"lexmap target {concept!r} is not a concept")
        if semclass in lexmap:
            raise MalformedResource(loc, f"duplicate lexmap for semclass {semclass!r}")
        lexmap[semclass] = concept

    frozen = frozenset(concepts)
    _check_acyclic(isa, frozen)
    return Ontology(frozen, isa, lexmap)


def _load_structmap(elem: ET.Element, location: str) -> tuple[StructPattern, ...]:
    patterns = []
    for i, child in enumerate(_children(elem, {"pattern"}, location), 1):
        loc = f"{location}/pattern[{i}]"
        items = tuple(
            PatternItem(_require(m, "name", f"{loc}/m[{j}]"), m.get("form"))
            for j, m in enumerate(_children(child, {"m"}, loc), 1)
        )
        try:
            patterns.append(
                StructPattern(
                    id=_require(child, "id", loc),
                    constituent_cat=_require(child, "cat", loc),
                    rhs_match=items,
                    relation=_require(child, "relation", loc),
                    arg1=_int_attr(child, "arg1", loc),
                    arg2=_int_attr(child, "arg2", loc),
                )
            )
        except ValueError as exc:
            raise MalformedResource(loc, str(exc)) from None
    return tuple(patterns)


_SECTIONS = (
    "abbreviations",
    "taglexicon",
    "rules",
    "tagmap",
    "grammar",
    "lemmarules",
    "semlex",
    "frames",
    "ontology",
    "structmap",
)


def loads_bundle(data: str | bytes) -> ResourceBundle:
    """Parse bundle XML from a string. See :func:`load_bundle`."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedResource("document", f"not well-formed XML: {exc}") from None
    if root.tag != "resources":
        raise MalformedResource("document", f"root element must be <resources>, got <{root.tag}>")
    lang = _require(root, "lang", "resources")
    if not lang:
        raise MalformedResource("resources", "lang must be non-empty")

    fields: dict[str, object] = {"lang": lang}
    seen = set()
    for child in _children(root, _SECTIONS, "resources"):
        if child.tag in seen:
            raise MalformedResource("resources", f"duplicate section <{child.tag}>")
        seen.add(child.tag)
        loc = child.tag
        if child.tag == "abbreviations":
            fields["abbreviations"] = _load_abbreviations(child, loc)
        elif child.tag == "taglexicon":
            lexicon, default, capitalized = _load_taglexicon(child, loc)
            fields["tag_lexicon"] = lexicon
            fields["default_tag"] = default
            fields["capitalized_tag"] = capitalized
        elif child.tag == "rules":
            fields["context_rules"] = _load_context_rules(child, loc)
        elif child.tag == "tagmap":
            fields["tagset_map"], fields["tagset_source"] = _load_tagmap(child, loc)
        elif child.tag == "grammar":
            fields["grammar"], fields["gf_mode"] = _load_grammar(child, loc)
        elif child.tag == "lemmarules":
            fields["lemma_rules"] = _load_lemma_rules(child, loc)
        elif child.tag == "semlex":
            fields["sem_lexicon"] = _load_semlex(child, loc)
        elif child.tag == "frames":
            fields["frames"] = _load_frames(child, loc)
        elif child.tag == "ontology":
            fields["ontology"] = _load_ontology(child, loc)
        elif child.tag == "structmap":
            fields["struct_patterns"] = _load_structmap(child, loc)

    bundle = ResourceBundle(**fields)  # type: ignore[arg-type]
    if bundle.gf_mode == "case-marked":
        cats = [rule.lhs for rule in bundle.grammar.rules]
        cats.extend(cat for rule in bundle.grammar.rules for cat in rule.rhs)
        if not any(cat.feature("case") is not None for cat in cats):
            raise MalformedResource(
                "grammar", "case-marked mode requires at least one category with a case feature"
            )
    return bundle


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
    tagger can produce is mappable, frames and patterns only reference
    material that exists, and the grammar has no unary rule cycles.
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

    unary: dict[str, set[str]] = {}
    for rule in bundle.grammar.rules:
        if len(rule.rhs) == 1 and rule.rhs[0].name in lhs_names:
            unary.setdefault(rule.lhs.name, set()).add(rule.rhs[0].name)
    for idx, rule in enumerate(bundle.grammar.rules, 1):
        if len(rule.rhs) != 1 or rule.rhs[0].name not in lhs_names:
            continue
        # The rule is on a cycle when its lhs is reachable back from its rhs.
        seen = set()
        frontier = {rule.rhs[0].name}
        while frontier:
            node = frontier.pop()
            if node == rule.lhs.name:
                findings.append(
                    _finding(
                        "UnaryRuleCycle",
                        f"grammar/rule[{idx}]",
                        f"unary cycle through {rule.lhs.name!r}",
                    )
                )
                break
            if node in seen:
                continue
            seen.add(node)
            frontier |= unary.get(node, set())

    for form in sorted(bundle.tag_lexicon):
        for tag in bundle.tag_lexicon[form]:
            if tag not in domain:
                findings.append(
                    _finding(
                        "UnmappableLexiconTag",
                        f"taglexicon/w[{form}]",
                        f"tag {tag!r} has no tagset mapping",
                    )
                )
    if bundle.tag_lexicon and bundle.default_tag is None:
        findings.append(
            _finding("MissingDefaultTag", "taglexicon", "lexicon entries present but no default tag")
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
            if slot.fill_concept not in bundle.ontology.concepts:
                findings.append(
                    _finding(
                        "DanglingConceptRef",
                        f"frames/frame[{frame.id}]/slot[{slot.role}]",
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


def _esc(value: str) -> str:
    value = (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
    return value.replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;")


def _attrs(pairs: Iterable[tuple[str, str]]) -> str:
    return "".join(f' {key}="{_esc(value)}"' for key, value in pairs)


def _cat_xml(cat: Category) -> str:
    if any(k in ("name", "lhs", "head") for k, _ in cat.features):
        raise ValueError(f"category {cat!r} uses a reserved feature key")
    return f"<cat{_attrs([('name', cat.name), *cat.features])}/>"


def _serialize_sections(bundle: ResourceBundle) -> list[str]:
    lines: list[str] = []

    if bundle.abbreviations:
        lines.append("  <abbreviations>")
        for form in sorted(bundle.abbreviations):
            lines.append(f"    <abbr{_attrs([('form', form)])}/>")
        lines.append("  </abbreviations>")

    if bundle.tag_lexicon or bundle.default_tag is not None or bundle.capitalized_tag is not None:
        attrs = []
        if bundle.default_tag is not None:
            attrs.append(("default", bundle.default_tag))
        if bundle.capitalized_tag is not None:
            attrs.append(("capitalized", bundle.capitalized_tag))
        if bundle.tag_lexicon:
            lines.append(f"  <taglexicon{_attrs(attrs)}>")
            for form in sorted(bundle.tag_lexicon):
                tags = " ".join(bundle.tag_lexicon[form])
                lines.append(f"    <w{_attrs([('form', form), ('tags', tags)])}/>")
            lines.append("  </taglexicon>")
        else:
            lines.append(f"  <taglexicon{_attrs(attrs)}/>")

    if bundle.context_rules:
        lines.append("  <rules>")
        for rule in bundle.context_rules:
            pairs = [
                ("from", rule.from_tag),
                ("to", rule.to_tag),
                ("trigger", rule.trigger),
                ("value", rule.trigger_value),
            ]
            lines.append(f"    <rule{_attrs(pairs)}/>")
        lines.append("  </rules>")

    if bundle.tagset_map or bundle.tagset_source:
        attrs = [("source", bundle.tagset_source)] if bundle.tagset_source else []
        lines.append(f"  <tagmap{_attrs(attrs)}>")
        for src in sorted(bundle.tagset_map):
            lines.append(f"    <map{_attrs([('from', src), ('to', bundle.tagset_map[src])])}/>")
        lines.append("  </tagmap>")

    if bundle.grammar.rules:
        attrs = [("start", bundle.grammar.start_symbol), ("gf", bundle.gf_mode)]
        lines.append(f"  <grammar{_attrs(attrs)}>")
        for rule in bundle.grammar.rules:
            pairs = [("lhs", rule.lhs.name), *rule.lhs.features, ("head", str(rule.head))]
            cats = "".join(_cat_xml(cat) for cat in rule.rhs)
            lines.append(f"    <rule{_attrs(pairs)}>{cats}</rule>")
        lines.append("  </grammar>")

    if bundle.lemma_rules:
        lines.append("  <lemmarules>")
        for rule in bundle.lemma_rules:
            pairs = [("strip", rule.strip), ("minstem", str(rule.min_stem_len))]
            lines.append(f"    <lemrule{_attrs(pairs)}/>")
        lines.append("  </lemmarules>")

    if bundle.sem_lexicon:
        lines.append("  <semlex>")
        for entry in bundle.sem_lexicon:
            pairs = [("lemma", entry.lemma), ("pos", entry.pos), ("semclass", entry.semclass)]
            lines.append(f"    <entry{_attrs(pairs)}/>")
        lines.append("  </semlex>")

    if bundle.frames:
        lines.append("  <frames>")
        for frame in bundle.frames:
            pairs = [("id", frame.id), ("predicate", frame.predicate_lemma), ("relation", frame.relation)]
            lines.append(f"    <frame{_attrs(pairs)}>")
            for slot in frame.slots:
                spairs = [
                    ("role", slot.role),
                    ("gf", slot.gf),
                    ("fill", slot.fill_concept),
                    ("required", "true" if slot.required else "false"),
                ]
                lines.append(f"      <slot{_attrs(spairs)}/>")
            lines.append("    </frame>")
        lines.append("  </frames>")

    ontology = bundle.ontology
    if ontology.concepts or ontology.lexmap:
        lines.append("  <ontology>")
        for cid in sorted(ontology.concepts):
            parents = sorted(ontology.parents(cid))
            if parents:
                isa = "".join(f"<isa{_attrs([('ref', p)])}/>" for p in parents)
                lines.append(f"    <concept{_attrs([('id', cid)])}>{isa}</concept>")
            else:
                lines.append(f"    <concept{_attrs([('id', cid)])}/>")
        for semclass in sorted(ontology.lexmap):
            pairs = [("semclass", semclass), ("concept", ontology.lexmap[semclass])]
            lines.append(f"    <lexmap{_attrs(pairs)}/>")
        lines.append("  </ontology>")

    if bundle.struct_patterns:
        lines.append("  <structmap>")
        for pattern in bundle.struct_patterns:
            pairs = [
                ("id", pattern.id),
                ("cat", pattern.constituent_cat),
                ("relation", pattern.relation),
                ("arg1", str(pattern.arg1)),
                ("arg2", str(pattern.arg2)),
            ]
            ms = "".join(
                f"<m{_attrs([('name', item.name)] + ([('form', item.form)] if item.form is not None else []))}/>"
                for item in pattern.rhs_match
            )
            lines.append(f"    <pattern{_attrs(pairs)}>{ms}</pattern>")
        lines.append("  </structmap>")

    return lines


def serialize_bundle(bundle: ResourceBundle) -> str:
    """Write canonical bundle XML: byte-identical across repeated calls."""
    body = _serialize_sections(bundle)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    if body:
        lines.append(f'<resources{_attrs([("lang", bundle.lang)])}>')
        lines.extend(body)
        lines.append("</resources>")
    else:
        lines.append(f'<resources{_attrs([("lang", bundle.lang)])}/>')
    return "\n".join(lines) + "\n"
