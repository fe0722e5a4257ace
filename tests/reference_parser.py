"""The chart parser and tree readers as they were before categories were
interned, kept as a test-only reference.

This is the code of ``xdoc.parsing`` (``_Node``, ``_ActiveEdge``,
``Chart``, ``parse``, ``complete_parses``, ``chunks`` and their helpers)
from before the integer-coded chart, copied verbatim with two changes:
``parse`` builds its rule index and memo tables per call instead of
reading ``grammar.compiled``, so it shares no state with the parser
under test; and trees are counted (:func:`count_trees`) and listed
without the cap of 256 trees the listing then had.  ``ParseTree`` is imported so that trees from both compare
equal.  The new chart must equal this one node for node: same ids,
categories, spans and derivation lists in the same order.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from xdoc.errors import EmptyInput
from xdoc.parsing import ParseTree
from xdoc.resources import Category, Grammar

# A derivation is (rule index, child node ids); rule index None marks a
# terminal leaf covering exactly one input position.
Derivation = tuple[int | None, tuple[int, ...]]


@dataclass
class _Node:
    """One packed passive edge."""

    id: int
    category: Category
    start: int
    end: int
    derivations: list[Derivation] = field(default_factory=list)

    def is_constituent(self) -> bool:
        return any(rule is not None for rule, _ in self.derivations)


@dataclass(frozen=True)
class _ActiveEdge:
    rule_index: int
    start: int
    end: int
    dot: int
    children: tuple[int, ...]


def features_match(needed: Category, found: Category) -> bool:
    """True when names agree and all shared feature keys agree."""
    if needed.name != found.name:
        return False
    have = dict(found.features)
    return all(have.get(k, v) == v for k, v in needed.features)


def _parent_category(lhs: Category, head_child: Category) -> Category:
    merged = dict(head_child.features)
    merged.update(lhs.features)
    return Category(lhs.name, merged)


class Chart:
    """Packed edge store over one tag sequence."""

    def __init__(self, length: int, grammar: Grammar):
        self.length = length
        self.grammar = grammar
        self.nodes: list[_Node] = []
        self._by_key: dict[tuple[Category, int, int], int] = {}
        self._by_start_name: dict[tuple[int, str], list[int]] = {}
        self._by_start: dict[int, list[int]] = {}
        self._leaf_at: dict[int, int] = {}

    def node(self, node_id: int) -> _Node:
        return self.nodes[node_id]

    def passives_at(self, start: int, name: str) -> list[_Node]:
        return [self.nodes[i] for i in self._by_start_name.get((start, name), ())]

    def passives_from(self, start: int) -> list[_Node]:
        return [self.nodes[i] for i in self._by_start.get(start, ())]

    def _add(self, category: Category, start: int, end: int, deriv: Derivation) -> _Node | None:
        """Pack a derivation; returns the node only when newly created."""
        key = (category, start, end)
        node_id = self._by_key.get(key)
        if node_id is not None:
            node = self.nodes[node_id]
            if deriv not in node.derivations:
                node.derivations.append(deriv)
            return None
        node = _Node(len(self.nodes), category, start, end, [deriv])
        self.nodes.append(node)
        self._by_key[key] = node.id
        self._by_start_name.setdefault((start, category.name), []).append(node.id)
        self._by_start.setdefault(start, []).append(node.id)
        if deriv[0] is None:
            self._leaf_at.setdefault(start, node.id)
        return node


def parse(
    tags: Sequence[str | tuple[str, Mapping[str, str]]], grammar: Grammar
) -> Chart:
    """Build the full chart over a parser-tag sequence.

    Each input item is a tag name or a (tag name, features) pair.  The
    chart is closed under the grammar: a passive edge (A, i, j) exists
    iff A derives tags[i..j] under feature matching.
    """
    if not tags:
        raise EmptyInput("cannot parse an empty tag sequence")

    terminals: list[Category] = []
    for item in tags:
        if isinstance(item, str):
            terminals.append(Category(item))
        else:
            name, features = item
            terminals.append(Category(name, features))

    chart = Chart(len(terminals), grammar)
    rules = grammar.rules
    rules_by_first: dict[str, list[int]] = {}  # built per call, not read from grammar.compiled
    for idx, rule in enumerate(rules):
        rules_by_first.setdefault(rule.rhs[0].name, []).append(idx)
    matches: dict[tuple, bool] = {}
    parents: dict[tuple, Category] = {}

    active_seen: set[_ActiveEdge] = set()
    active_waiting: dict[tuple[int, str], list[_ActiveEdge]] = {}
    agenda: deque[_Node] = deque()

    def enqueue(node: _Node | None) -> None:
        if node is not None:
            agenda.append(node)

    def advance(edge_rule: int, start: int, dot: int, children: tuple[int, ...], node: _Node) -> None:
        rule = rules[edge_rule]
        found = node.category
        match_key = (edge_rule, dot, found.name, found.features)
        matched = matches.get(match_key)
        if matched is None:
            matched = matches[match_key] = features_match(rule.rhs[dot], found)
        if not matched:
            return
        new_children = children + (node.id,)
        new_dot = dot + 1
        end = node.end
        if new_dot == len(rule.rhs):
            head = chart.node(new_children[rule.head - 1]).category
            parent_key = (edge_rule, head.name, head.features)
            parent = parents.get(parent_key)
            if parent is None:
                parent = parents[parent_key] = _parent_category(rule.lhs, head)
            enqueue(chart._add(parent, start, end, (edge_rule, new_children)))
            return
        edge = _ActiveEdge(edge_rule, start, end, new_dot, new_children)
        if edge in active_seen:
            return
        active_seen.add(edge)
        needed = rule.rhs[new_dot].name
        active_waiting.setdefault((end, needed), []).append(edge)
        # The fundamental rule with passives discovered earlier.
        for passive in chart.passives_at(end, needed):
            advance(edge.rule_index, edge.start, edge.dot, edge.children, passive)

    for i, category in enumerate(terminals):
        enqueue(chart._add(category, i, i + 1, (None, ())))

    while agenda:
        node = agenda.popleft()
        for rule_idx in rules_by_first.get(node.category.name, ()):
            advance(rule_idx, node.start, 0, (), node)
        for edge in list(active_waiting.get((node.start, node.category.name), ())):
            advance(edge.rule_index, edge.start, edge.dot, edge.children, node)

    return chart


def _sorted_derivations(chart: Chart, node: _Node) -> list[Derivation]:
    def key(deriv: Derivation):
        rule_idx, children = deriv
        spans = tuple((chart.node(c).start, chart.node(c).end) for c in children)
        return (-1 if rule_idx is None else rule_idx, spans)

    return sorted(node.derivations, key=key)


def _count_trees(chart: Chart, node: _Node, memo: dict[int, int], path: set[int]) -> int:
    if node.id in memo:
        return memo[node.id]
    if node.id in path:
        return 0  # cyclic derivation; such grammars are rejected at validation
    path.add(node.id)
    total = 0
    for rule_idx, children in node.derivations:
        if rule_idx is None:
            total += 1
            continue
        product = 1
        for child_id in children:
            product *= _count_trees(chart, chart.node(child_id), memo, path)
        total += product
    path.discard(node.id)
    memo[node.id] = total
    return total


def _enumerate_trees(
    chart: Chart, node: _Node, memo: dict[int, list[ParseTree]], path: set[int]
) -> list[ParseTree]:
    if node.id in memo:
        return memo[node.id]
    if node.id in path:
        return []
    path.add(node.id)
    trees: list[ParseTree] = []
    for rule_idx, children in _sorted_derivations(chart, node):
        if rule_idx is None:
            trees.append(ParseTree(node.category, node.start, node.end))
            continue
        rule = chart.grammar.rules[rule_idx]
        child_lists = [
            _enumerate_trees(chart, chart.node(cid), memo, path) for cid in children
        ]
        for combo in itertools.product(*child_lists):
            trees.append(
                ParseTree(
                    node.category,
                    node.start,
                    node.end,
                    tuple(combo),
                    head=rule.head - 1,
                    rule_index=rule_idx,
                )
            )
    path.discard(node.id)
    memo[node.id] = trees
    return trees


def _first_tree(chart: Chart, node: _Node, path: set[int]) -> ParseTree | None:
    if node.id in path:
        return None
    path.add(node.id)
    try:
        for rule_idx, children in _sorted_derivations(chart, node):
            if rule_idx is None:
                return ParseTree(node.category, node.start, node.end)
            rule = chart.grammar.rules[rule_idx]
            child_trees = []
            for cid in children:
                child = _first_tree(chart, chart.node(cid), path)
                if child is None:
                    break
                child_trees.append(child)
            else:
                return ParseTree(
                    node.category,
                    node.start,
                    node.end,
                    tuple(child_trees),
                    head=rule.head - 1,
                    rule_index=rule_idx,
                )
        return None
    finally:
        path.discard(node.id)


def _roots(chart: Chart, start_symbol: str) -> list[_Node]:
    return [
        node
        for node in chart.nodes
        if node.category.name == start_symbol
        and node.start == 0
        and node.end == chart.length
    ]


def count_trees(chart: Chart, start_symbol: str) -> int:
    """How many trees :func:`complete_parses` lists, counted without listing them."""
    memo: dict[int, int] = {}
    return sum(_count_trees(chart, node, memo, set()) for node in _roots(chart, start_symbol))


def complete_parses(chart: Chart, start_symbol: str) -> list[ParseTree]:
    """Every distinct derivation of the start symbol over the full span.

    Trees are enumerated deterministically (rule index, then child
    spans).
    """
    trees: list[ParseTree] = []
    memo: dict[int, list[ParseTree]] = {}
    for node in _roots(chart, start_symbol):
        trees.extend(_enumerate_trees(chart, node, memo, set()))
    return trees


def chunks(chart: Chart) -> list[ParseTree]:
    """Greedy left-to-right cover by maximal constituents.

    At each position the longest passive constituent starting there is
    taken (ties broken by grammar rule order, then chart order); where
    none exists the bare terminal is emitted.  The result covers the
    whole span without overlap.
    """
    out: list[ParseTree] = []
    pos = 0
    while pos < chart.length:
        candidates = [n for n in chart.passives_from(pos) if n.is_constituent()]
        if candidates:
            def rank(node: _Node):
                min_rule = min(r for r, _ in node.derivations if r is not None)
                return (-node.end, min_rule, node.id)

            best = min(candidates, key=rank)
            tree = _first_tree(chart, best, set())
            if tree is not None:
                out.append(tree)
                pos = best.end
                continue
        leaf_id = chart._leaf_at.get(pos)
        if leaf_id is not None:
            leaf = chart.node(leaf_id)
            out.append(ParseTree(leaf.category, leaf.start, leaf.end))
        pos += 1
    return out
