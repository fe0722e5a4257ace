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
passives it can extend, all of which have smaller ids; an explicit
stack works these meetings depth-first.  When the agenda later takes
node P, only the edges waiting for it whose stamp is at most P's id
meet it; stamps never decrease along a waiting list, so that walk stops
at the first later edge, which met P when it was made.

Because the chart is built bottom-up without top-down filtering it
keeps every constituent, which the chunk fallback exploits when no
complete parse exists.

:func:`parse` charts any grammar, but the readers raise
:class:`ResourceError` unless it has no unary rule cycle, as validation
demands.  Its charts are acyclic: every node has a tree and none recurs
within one, so no reader backtracks.  Trees come in derivation order
(rule index, then child spans).  :func:`first_parse` and :func:`chunks`
read first trees, at the cost of their size.  Only
:func:`complete_parses` lists every tree, in one post-order walk whose
per-node lists stop at ``TREE_LIMIT``: no node has more trees than a
root above it.  Every walk keeps an explicit stack, so no input depth
meets the recursion limit.
Trees are :class:`ParseTree` values, a :class:`typing.NamedTuple`
built once per tree node: immutable and hashable, and, being a tuple,
a tree unpacks, has a ``len`` and equals a plain tuple of its fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .errors import EmptyInput, ResourceError, TooAmbiguous
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
    # id and end that every meeting reads; needed only while parsing.
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

    for i, cat in enumerate(terminals):  # node i is the leaf at position i
        add_node(cat, i, i + 1, (None, ()))

    # The agenda is FIFO over new nodes, which is node id order.  Taking
    # node P makes a stack of meetings (rule index, start, children,
    # passive id): the rules whose first symbol P can fill, then the
    # edges waiting for P.  Edges stamped after P was made have met it
    # already.  Edges made below wait at positions after P's start, so
    # that waiting list does not grow while the stack is worked.
    node_id = 0
    while node_id < len(nodes):
        node = nodes[node_id]
        name = node.category.name
        todo = [(rule, node.start, (), node_id) for rule in rules_by_first.get(name, ())]
        for stamp, rule, start, children in waiting.get((node.start, name), ()):
            if stamp > node_id:
                break
            todo.append((rule, start, children, node_id))
        todo.reverse()
        while todo:
            rule, start, children, passive = todo.pop()
            dot = len(children)
            cat = node_cat[passive]
            match_key = (rule, dot, cat)
            matched = matches.get(match_key)
            if matched is None:
                matched = matches[match_key] = features_match(rules[rule].rhs[dot], categories[cat])
            if not matched:
                continue
            children += (passive,)
            end = node_end[passive]
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
                    add_node(parent, start, end, (rule, children))
                else:
                    nodes[packed].derivations.append((rule, children))
                continue
            needed = (end, rhs_names[rule][dot + 1])
            waiting.setdefault(needed, []).append((len(nodes), rule, start, children))
            # The fundamental rule with every passive made so far, each
            # worked out before the next.  Nodes made meanwhile start at
            # ``start`` < end, so this list does not grow either.
            passives = by_start_name.get(needed)
            if passives:
                todo += [(rule, start, children, p) for p in reversed(passives)]
        node_id += 1

    return chart


def _readable(chart: Chart) -> list[_Node]:
    """The chart's nodes; :class:`ResourceError` if its grammar has a unary cycle."""
    cycle = chart.grammar.compiled.cycle_rules
    if cycle:
        lhs = chart.grammar.rules[cycle[0]].lhs.name
        where = f"grammar/rule[{cycle[0] + 1}]"
        raise ResourceError(f"{where}: unary cycle through {lhs!r}; no tree is read")
    return chart.nodes


def _order(nodes: list[_Node]) -> Callable[[Derivation], tuple]:
    """The sort key of a node's derivations: rule index, then child spans.

    Children tile their parent's span, so their ends decide their spans.
    Only a leaf has the derivation without a rule, and it has no other.
    """
    return lambda deriv: (deriv[0], [nodes[child].end for child in deriv[1]])


def _first_tree(chart: Chart, root: _Node) -> ParseTree:
    """``root``'s first tree: each node's least derivation, the earliest on ties."""
    nodes = chart.nodes
    rules = chart.grammar.rules
    key = _order(nodes)
    built: list[ParseTree] = []  # finished subtrees, siblings in order
    stack: list[tuple[_Node, Derivation | None]] = [(root, None)]
    while stack:
        node, deriv = stack.pop()
        if deriv is None:  # first visit: choose the derivation, then read its children
            derivations = node.derivations
            deriv = derivations[0] if len(derivations) == 1 else min(derivations, key=key)
            if deriv[0] is None:
                built.append(ParseTree(node.category, node.start, node.end))
            else:
                stack.append((node, deriv))
                stack.extend((nodes[child], None) for child in reversed(deriv[1]))
            continue
        rule_idx, children = deriv
        kids = tuple(built[-len(children):])
        del built[-len(children):]
        head = rules[rule_idx].head - 1
        built.append(ParseTree(node.category, node.start, node.end, kids, head, rule_idx))
    return built[0]


def _roots(chart: Chart, start_symbol: str) -> list[_Node]:
    """The start symbol's nodes over the full span, in id order."""
    nodes = _readable(chart)
    from_zero = chart._by_start_name.get((0, start_symbol), ())  # ids ascend, as in chart.nodes
    return [nodes[i] for i in from_zero if nodes[i].end == chart.length]


def first_parse(chart: Chart, start_symbol: str) -> ParseTree | None:
    """The first tree :func:`complete_parses` would list, or None if it lists none.

    Reads one tree, however many the chart packs; never raises
    :class:`TooAmbiguous`.
    """
    roots = _roots(chart, start_symbol)
    return _first_tree(chart, roots[0]) if roots else None


def complete_parses(chart: Chart, start_symbol: str) -> list[ParseTree]:
    """Every distinct derivation of the start symbol over the full span.

    Trees are enumerated deterministically (rule index, then child
    spans).  Raises :class:`TooAmbiguous` beyond ``TREE_LIMIT`` trees.
    """
    roots = _roots(chart, start_symbol)
    nodes = chart.nodes
    rules = chart.grammar.rules
    key = _order(nodes)
    trees_of: dict[int, list[ParseTree]] = {}
    stack = [node.id for node in roots]
    while stack:  # post-order: a node's lists are built after its children's
        node_id = stack[-1]
        if node_id in trees_of:
            stack.pop()
            continue
        node = nodes[node_id]
        unread = [c for _, children in node.derivations for c in children if c not in trees_of]
        if unread:
            stack.extend(unread)
            continue
        stack.pop()
        trees: list[ParseTree] = []
        for rule_idx, children in sorted(node.derivations, key=key):
            if rule_idx is None:
                trees.append(ParseTree(node.category, node.start, node.end))
                continue
            head = rules[rule_idx].head - 1
            for combo in itertools.product(*(trees_of[c] for c in children)):
                if len(trees) == TREE_LIMIT:
                    raise TooAmbiguous(TREE_LIMIT)
                trees.append(ParseTree(node.category, node.start, node.end, combo, head, rule_idx))
        trees_of[node_id] = trees
    listed = [tree for node in roots for tree in trees_of[node.id]]
    if len(listed) > TREE_LIMIT:
        raise TooAmbiguous(TREE_LIMIT)
    return listed


def chunks(chart: Chart) -> list[ParseTree]:
    """Greedy left-to-right cover by maximal constituents.

    At each position the longest passive constituent starting there is
    taken (ties broken by grammar rule order, then chart order) and read
    as its first tree; where none exists the bare terminal is emitted.
    The result covers the whole span without overlap.
    """
    nodes = _readable(chart)
    out: list[ParseTree] = []
    pos = 0
    while pos < chart.length:
        # The least (-end, least rule index, id) among the constituents
        # starting here, after the leaf at ``pos``, which comes first.
        ranks = [(-nodes[i].end, min(r for r, _ in nodes[i].derivations), i)
                 for i in chart._by_start[pos][1:]]
        node = nodes[min(ranks)[2]] if ranks else nodes[pos]
        out.append(_first_tree(chart, node))
        pos = node.end
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
