"""Bottom-up chart parsing with ambiguity packing.

The parser runs an agenda over passive edges.  Passive edges are packed:
one node per (category incl. features, start, end) holding every
distinct derivation, so exponential ambiguity costs polynomial chart
space.  Features are flat key/value pairs compared by equality on
shared keys; a parent edge takes its head child's features overlaid
with the rule's lhs features (lhs wins on conflict).  This is a
deliberate reduction of unification, sufficient for case marking.

The chart is integer-coded.  Every category is interned to a small int
in the grammar's compiled tables (:attr:`Grammar.compiled`), nodes are
keyed by (category id, start, end), and active edges are plain
(stamp, rule index, start, children) tuples.  Feature matches and parent
categories depend only on the grammar and the categories involved, so
they are memoised there by category id and shared by every parse with
that grammar object.  Nodes are numbered in creation order, the first
``len(tags)`` being the leaves, and each node holds its
:class:`Category`.

Each active edge meets each passive node once, so no derivation is
made twice and none needs a duplicate check.  A new active edge is
stamped with the number of nodes made so far and meets at once the
passives it can extend, all of which have smaller ids.  When the
agenda later takes node P, only the edges waiting for it whose stamp
is at most P's id meet it; stamps never decrease along a waiting
list, so that walk stops at the first later edge, which met P when it
was made.

Because the chart is built bottom-up without top-down filtering it
keeps every constituent, which the chunk fallback exploits when no
complete parse exists.

One reader, :func:`_trees`, reads trees off the chart: a node's trees in
derivation order (rule index, then child spans), cutting any derivation
through a node already on the path, and stopping at an optional limit.
:func:`first_parse` reads the start symbol's first tree, at the cost of
that tree's size; :func:`chunks` reads one tree per chosen constituent.
Only :func:`complete_parses`, which lists every tree, has an ambiguity
policy: it first counts the trees with :func:`_count_trees`, which
gives up past ``TREE_LIMIT``, and only then reads them all.
Trees are :class:`ParseTree` values, a :class:`typing.NamedTuple`
built once per tree node: immutable and hashable, and, being a tuple,
a tree unpacks, has a ``len`` and equals a plain tuple of its fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import EmptyInput, TooAmbiguous
from .resources import Category, Grammar

__all__ = [
    "TREE_LIMIT",
    "ParseTree",
    "Chart",
    "parse",
    "first_parse",
    "complete_parses",
    "chunks",
    "render_bracketed",
    "features_match",
]

TREE_LIMIT = 256

# A derivation is (rule index, child node ids); rule index None marks a
# terminal leaf covering exactly one input position.
Derivation = tuple[int | None, tuple[int, ...]]


class ParseTree(NamedTuple):
    category: Category
    start: int
    end: int
    children: tuple["ParseTree", ...] = ()
    head: int = 0  # index into children of the head child
    rule_index: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def head_leaf(self) -> "ParseTree":
        node = self
        while node.children:
            node = node.children[node.head]
        return node

    def leaf_positions(self) -> list[int]:
        return [node.start for node in self.preorder() if node.is_leaf]

    def preorder(self) -> Iterator["ParseTree"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass(slots=True)
class _Node:
    """One packed passive edge."""

    id: int
    category: Category
    start: int
    end: int
    derivations: list[Derivation]


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
    """Packed edge store over one tag sequence, filled by :func:`parse`."""

    def __init__(self, length: int, grammar: Grammar):
        self.length = length
        self.grammar = grammar
        self.nodes: list[_Node] = []
        self._by_start_name: dict[tuple[int, str], list[int]] = {}
        self._by_start: dict[int, list[int]] = {}

    def node(self, node_id: int) -> _Node:
        return self.nodes[node_id]


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

    compiled = grammar.compiled
    intern = compiled.intern
    category_ids = compiled.category_ids
    terminals: list[int] = []
    for item in tags:
        if isinstance(item, str):
            cat = category_ids.get((item, ()))
            terminals.append(intern(Category(item)) if cat is None else cat)
        else:
            name, features = item
            terminals.append(intern(Category(name, features)))

    chart = Chart(len(terminals), grammar)
    nodes = chart.nodes
    by_start_name = chart._by_start_name
    by_start = chart._by_start
    rules = grammar.rules
    rules_by_first = compiled.rules_by_first
    rhs_names = compiled.rhs_names
    heads = compiled.heads
    last_dot = [len(names) - 1 for names in rhs_names]
    categories = compiled.categories
    matches = compiled.matches
    parents = compiled.parents

    # Node ids by (category id, start, end), and per node id the category
    # id and end that every advance reads; needed only while parsing.
    by_key: dict[tuple[int, int, int], int] = {}
    node_cat: list[int] = []
    node_end: list[int] = []
    # Active edges as (stamp, rule index, start, children), keyed by the
    # end position and the name of the category they need next.  The
    # stamp is the node count when the edge was made.
    waiting: dict[tuple[int, str], list[tuple[int, int, int, tuple[int, ...]]]] = {}

    def add_node(cat: int, start: int, end: int, deriv: Derivation) -> None:
        node_id = len(nodes)
        category = categories[cat]
        nodes.append(_Node(node_id, category, start, end, [deriv]))
        node_cat.append(cat)
        node_end.append(end)
        by_key[(cat, start, end)] = node_id
        by_start_name.setdefault((start, category.name), []).append(node_id)
        by_start.setdefault(start, []).append(node_id)

    def advance(rule: int, start: int, children: tuple[int, ...], node_id: int) -> None:
        dot = len(children)
        cat = node_cat[node_id]
        match_key = (rule, dot, cat)
        matched = matches.get(match_key)
        if matched is None:
            matched = matches[match_key] = features_match(rules[rule].rhs[dot], categories[cat])
        if not matched:
            return
        children += (node_id,)
        edge = (rule, children)
        end = node_end[node_id]
        if dot == last_dot[rule]:
            head = node_cat[children[heads[rule]]]
            parent_key = (rule, head)
            parent = parents.get(parent_key)
            if parent is None:
                parent = parents[parent_key] = intern(
                    _parent_category(rules[rule].lhs, categories[head])
                )
            packed = by_key.get((parent, start, end))
            if packed is None:
                add_node(parent, start, end, edge)
            else:
                nodes[packed].derivations.append(edge)
            return
        needed = (end, rhs_names[rule][dot + 1])
        waiting.setdefault(needed, []).append((len(nodes), rule, start, children))
        # The fundamental rule with every passive made so far.  Nodes
        # made below start at ``start`` < end, so this list cannot grow
        # while it is walked.
        for passive in by_start_name.get(needed, ()):
            advance(rule, start, children, passive)

    for i, cat in enumerate(terminals):  # node i is the leaf at position i
        add_node(cat, i, i + 1, (None, ()))

    # The agenda is FIFO over new nodes, which is node id order.
    node_id = 0
    while node_id < len(nodes):
        node = nodes[node_id]
        name = node.category.name
        for rule in rules_by_first.get(name, ()):
            advance(rule, node.start, (), node_id)
        # Edges stamped after this node was made have met it already.
        # Edges made below wait at positions after node.start, so this
        # list cannot grow while it is walked either.
        for stamp, rule, start, children in waiting.get((node.start, name), ()):
            if stamp > node_id:
                break
            advance(rule, start, children, node_id)
        node_id += 1

    # advance refers to itself; breaking that cycle frees the work
    # tables now instead of at the next cyclic collection.
    del advance
    return chart


def _sorted_derivations(chart: Chart, node: _Node) -> list[Derivation]:
    """Derivations by rule index, then child spans, ties in chart order."""
    derivations = node.derivations
    if len(derivations) == 1:
        return derivations
    nodes = chart.nodes

    def key(deriv: Derivation) -> tuple:
        rule_idx, children = deriv
        spans = tuple((nodes[c].start, nodes[c].end) for c in children)
        return (-1 if rule_idx is None else rule_idx, spans)

    return sorted(derivations, key=key)


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
            if product > TREE_LIMIT:
                break
        total += product
        if total > TREE_LIMIT:
            total = TREE_LIMIT + 1
            break
    path.discard(node.id)
    memo[node.id] = total
    return total


def _trees(
    chart: Chart,
    node: _Node,
    memo: dict[int, list[ParseTree]] | None,
    path: set[int],
    limit: int | None = None,
) -> list[ParseTree]:
    """``node``'s trees in derivation order, at most ``limit`` of them.

    A derivation through a node already on ``path`` is cut.  With a
    ``memo`` each node is read once and that first reading is reused
    wherever the node recurs, so one memo serves one ``limit``.  Without
    one, what a cut removes depends only on the current path; one tree
    visits each node of an acyclic chart once, so it needs no memo.
    """
    node_id = node.id
    if memo is not None and node_id in memo:
        return memo[node_id]
    if node_id in path:
        return []
    path.add(node_id)
    trees: list[ParseTree] = []
    for rule_idx, children in _sorted_derivations(chart, node):
        if rule_idx is None:
            trees.append(ParseTree(node.category, node.start, node.end))
        else:
            child_lists = []
            for child in children:
                child_lists.append(_trees(chart, chart.nodes[child], memo, path, limit))
            head = chart.grammar.rules[rule_idx].head - 1
            for combo in itertools.product(*child_lists):
                trees.append(ParseTree(node.category, node.start, node.end, combo, head, rule_idx))
                if len(trees) == limit:
                    break
        if len(trees) == limit:
            break
    path.discard(node_id)
    if memo is not None:
        memo[node_id] = trees
    return trees


def _roots(chart: Chart, start_symbol: str) -> list[_Node]:
    """The start symbol's nodes over the full span, in id order."""
    nodes = chart.nodes
    from_zero = chart._by_start_name.get((0, start_symbol), ())  # ids ascend, as in chart.nodes
    return [nodes[i] for i in from_zero if nodes[i].end == chart.length]


def first_parse(chart: Chart, start_symbol: str) -> ParseTree | None:
    """The first tree :func:`complete_parses` would list, or None if it lists none.

    Reads one tree, however many the chart packs; never raises
    :class:`TooAmbiguous`.
    """
    for node in _roots(chart, start_symbol):
        first = _trees(chart, node, None, set(), 1)
        if first:
            return first[0]
    return None


def complete_parses(chart: Chart, start_symbol: str) -> list[ParseTree]:
    """Every distinct derivation of the start symbol over the full span.

    Trees are enumerated deterministically (rule index, then child
    spans).  Raises :class:`TooAmbiguous` beyond ``TREE_LIMIT`` trees.
    """
    roots = _roots(chart, start_symbol)
    count_memo: dict[int, int] = {}
    total = sum(_count_trees(chart, node, count_memo, set()) for node in roots)
    if total > TREE_LIMIT:
        raise TooAmbiguous(TREE_LIMIT)
    trees: list[ParseTree] = []
    memo: dict[int, list[ParseTree]] = {}
    for node in roots:
        trees.extend(_trees(chart, node, memo, set()))
    return trees


def chunks(chart: Chart) -> list[ParseTree]:
    """Greedy left-to-right cover by maximal constituents.

    At each position the longest passive constituent starting there is
    taken (ties broken by grammar rule order, then chart order); where
    none exists the bare terminal is emitted.  The result covers the
    whole span without overlap.
    """
    nodes = chart.nodes
    out: list[ParseTree] = []
    pos = 0
    while pos < chart.length:
        # The least (-end, least rule index, id) among the nodes starting
        # here that some rule derives; ids ascend along the list.
        best = None
        best_rank = None
        for node_id in chart._by_start[pos]:
            node = nodes[node_id]
            rule = min((r for r, _ in node.derivations if r is not None), default=None)
            if rule is not None and (best_rank is None or (-node.end, rule) < best_rank):
                best, best_rank = node, (-node.end, rule)
        if best is not None:
            first = _trees(chart, best, None, set(), 1)
            if first:
                out.append(first[0])
                pos = best.end
                continue
        leaf = chart.node(pos)
        out.append(ParseTree(leaf.category, leaf.start, leaf.end))
        pos += 1
    return out


def render_bracketed(tree: ParseTree, forms: Sequence[str] | None = None) -> str:
    """Debug rendering, e.g. ``(S (NP (N Aspirin)) (VP ...))``.

    ``forms`` maps leaf positions to surface forms; without it leaves
    print as their bare category label.
    """
    parts: list[str] = []
    stack: list[ParseTree | str] = [tree]  # a str is written as it is
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif node.is_leaf:
            label = node.category.label()
            parts.append(label if forms is None else f"({label} {forms[node.start]})")
        else:
            parts.append(f"({node.category.label()}")
            stack.append(")")
            stack.extend(item for child in reversed(node.children) for item in (child, " "))
    return "".join(parts)
