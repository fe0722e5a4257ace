"""Semantic tagging, ontology subsumption, and relation extraction.

The semantic lexicon assigns lemma and semantic class per (lemma,
parser tag) pair; the ontology's lexmap lifts semantic classes to
concepts.  Case frames bind grammatical functions to roles, with
ontology subsumption checking each filler against the slot's concept
constraint; an accepted instance holds the frame it matched and relates
its subject's filler to its object's through that frame's own slots.
Noun-phrase structure patterns map constituent shapes to binary
relations.

Grammatical functions are declared in the bundle, by position or by
features alike, so this module names no category, feature or value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .errors import UnknownConcept
from .parsing import ParseTree
from .resources import CaseFrame, GrammaticalFunction, Ontology, ResourceBundle, StructPattern
from .tagging import TaggedToken

__all__ = [
    "FrameInstance",
    "Relation",
    "Diagnostic",
    "semantic_tag",
    "subsumes",
    "grammatical_functions",
    "instantiate_frames",
    "map_np_structure",
]

@dataclass(frozen=True)
class FrameInstance:
    """One accepted case-frame match: the frame itself (its id and relation
    are read from it), the predicate token and the role bindings."""

    case_frame: CaseFrame
    predicate: int  # token id
    bindings: Mapping[str, tuple[int, str]]  # role -> (token id, concept)


@dataclass(frozen=True)
class Relation:
    name: str
    arg1: int  # token id
    arg2: int
    source: str  # frame id or pattern id
    frame: FrameInstance | None = field(default=None, compare=False)  # None for patterns

    def __post_init__(self) -> None:
        if self.arg1 == self.arg2:
            raise ValueError("relation arguments must be distinct tokens")


@dataclass(frozen=True)
class Diagnostic:
    code: str
    detail: str


def semantic_tag(
    tagged: Sequence[TaggedToken], bundle: ResourceBundle
) -> list[TaggedToken]:
    """Attach lemma, semantic class and concept where the lexicon knows them.

    The lowercased form is looked up under the token's parser tag; when
    that misses, the suffix-strip lemma rules are tried in order and the
    first stem with a lexicon entry wins.  Tokens without a match are
    returned unchanged.
    """
    index = bundle.sem_lexicon_index
    out: list[TaggedToken] = []
    for t in tagged:
        assert t.parser_tag is not None, "semantic tagging requires mapped tokens"
        base = t.token.form.lower()
        entry = index.get((base, t.parser_tag))
        lemma = base if entry else None
        if entry is None:
            for rule in bundle.lemma_rules:
                if not base.endswith(rule.strip):
                    continue
                stem = base[: len(base) - len(rule.strip)]
                if len(stem) < rule.min_stem_len:
                    continue
                entry = index.get((stem, t.parser_tag))
                if entry is not None:
                    lemma = stem
                    break
        if entry is None:
            out.append(t)
            continue
        concept = bundle.ontology.lexmap.get(entry.semclass)
        out.append(TaggedToken(t.token, t.source_tag, t.parser_tag, lemma, entry.semclass, concept))
    return out


def subsumes(ontology: Ontology, ancestor: str, descendant: str) -> bool:
    """True iff ancestor is reachable from descendant via isa edges (or equal)."""
    for concept in (ancestor, descendant):
        if concept not in ontology.concepts:
            raise UnknownConcept(concept)
    if ancestor == descendant:
        return True
    seen: set[str] = set()
    frontier = set(ontology.parents(descendant))
    while frontier:
        node = frontier.pop()
        if node == ancestor:
            return True
        if node in seen:
            continue
        seen.add(node)
        frontier |= ontology.parents(node)
    return False


def grammatical_functions(
    tree: ParseTree, functions: Sequence[GrammaticalFunction]
) -> dict[str, ParseTree]:
    """Bind each declared function to the first node, in pre-order, it selects.

    A declaration selects a node with its category's name and features,
    an earlier sibling named ``after`` and a later one named ``before``
    where those are given; the root has no siblings.
    """
    out: dict[str, ParseTree] = {}
    wanted = frozenset(function.category.name for function in functions)
    stack = [((tree,), 0)]  # (a node's siblings, its index among them)
    while stack:
        siblings, i = stack.pop()
        node = siblings[i]
        category = node.category
        if category.name in wanted:
            names = [sibling.category.name for sibling in siblings]
            for function in functions:
                needed = function.category
                if (function.gf not in out and needed.name == category.name
                        and all(map(category.features.__contains__, needed.features))
                        and (function.after is None or function.after in names[:i])
                        and (function.before is None or function.before in names[i + 1 :])):
                    out[function.gf] = node
            if len(out) == len(functions):
                return out
        kids = node.children
        if kids:
            stack.extend(zip(repeat(kids), range(len(kids) - 1, -1, -1)))
    return out


def _head_token(tree: ParseTree, tagged: Sequence[TaggedToken]) -> TaggedToken:
    return tagged[tree.head_leaf().start]


def instantiate_frames(
    tree: ParseTree, tagged: Sequence[TaggedToken], bundle: ResourceBundle
) -> tuple[list[FrameInstance], list[Diagnostic]]:
    """Match case frames against one parse tree.

    Every token inside the tree whose lemma equals a frame's predicate
    lemma is a candidate, at most one instance per (token, frame), so
    each chunk of a fallback binds only its own predicates.  Each slot
    binds the head token of the constituent its grammatical function
    selects; the instance is accepted only when all required slots bind
    and every bound filler's concept is subsumed by the slot's fill
    concept.  Rejections are reported as diagnostics, never as errors.
    """
    instances: list[FrameInstance] = []
    diagnostics: list[Diagnostic] = []
    by_lemma = bundle.frames_by_lemma
    predicates = [t for t in tagged[tree.start : tree.end] if t.lemma in by_lemma]
    if not predicates:
        return instances, diagnostics

    functions = grammatical_functions(tree, bundle.functions)
    for t in predicates:
        for frame in by_lemma[t.lemma]:
            bindings: dict[str, tuple[int, str]] = {}
            accepted = True
            for slot in frame.slots:
                constituent = functions.get(slot.gf)
                if constituent is None:
                    if slot.required:
                        diagnostics.append(
                            Diagnostic(
                                "MissingSlot",
                                f"{frame.id}: no {slot.gf} found for role {slot.role!r}",
                            )
                        )
                        accepted = False
                        break
                    continue
                filler = _head_token(constituent, tagged)
                concept = filler.concept
                if concept is None or not subsumes(
                    bundle.ontology, slot.fill_concept, concept
                ):
                    diagnostics.append(
                        Diagnostic(
                            "ConstraintViolation",
                            f"{frame.id}: role {slot.role!r} needs {slot.fill_concept!r}, "
                            f"{filler.token.form!r} has {concept!r}",
                        )
                    )
                    accepted = False
                    break
                bindings[slot.role] = (filler.token.id, concept)
            if accepted:
                instances.append(FrameInstance(frame, t.token.id, bindings))
    return instances, diagnostics


def _frame_relations(frames: Sequence[FrameInstance]) -> list[Relation]:
    out: list[Relation] = []
    for instance in frames:
        frame = instance.case_frame
        by_gf = {slot.gf: slot.role for slot in frame.slots}
        subj = instance.bindings.get(by_gf.get("subject", ""))
        obj = instance.bindings.get(by_gf.get("object", ""))
        if subj is None or obj is None or subj[0] == obj[0]:
            continue
        out.append(Relation(frame.relation, subj[0], obj[0], frame.id, instance))
    return out


def map_np_structure(
    tree: ParseTree,
    patterns: Iterable[StructPattern],
    tagged: Sequence[TaggedToken],
) -> list[Relation]:
    """Map constituent shapes to binary relations, e.g. the 'has' relation.

    A pattern matches an internal node whose category equals the
    pattern's constituent category and whose children's category names
    equal the pattern's sequence, with surface-form constraints checked
    against each child's head token.  Matching is applied to every node
    of the tree.
    """
    by_cat: dict[str, list[StructPattern]] = {}
    for pattern in patterns:
        by_cat.setdefault(pattern.constituent_cat, []).append(pattern)
    relations: list[Relation] = []
    stack = [tree] if tree.children else []  # inner nodes, in pre-order
    while stack:
        node = stack.pop()
        children = node.children
        for child in reversed(children):
            if child.children:
                stack.append(child)
        for pattern in by_cat.get(node.category.name, ()):
            if len(children) != len(pattern.rhs_match):
                continue
            matched = True
            for child, item in zip(children, pattern.rhs_match):
                if child.category.name != item.name:
                    matched = False
                    break
                if item.form is not None and _head_token(child, tagged).token.form != item.form:
                    matched = False
                    break
            if not matched:
                continue
            arg1 = _head_token(children[pattern.arg1 - 1], tagged)
            arg2 = _head_token(children[pattern.arg2 - 1], tagged)
            relations.append(
                Relation(pattern.relation, arg1.token.id, arg2.token.id, pattern.id)
            )
    return relations
