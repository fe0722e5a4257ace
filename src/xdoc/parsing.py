"""Bottom-up chart parsing by bit-vector recognition, trees read on demand.

A chart node is a (category incl. features, start, end) triple: one
node holds every derivation of that category over that span, so
exponential ambiguity costs polynomial space.  Features are flat
key/value pairs compared by equality on shared keys; a parent takes its
head child's features overlaid with the rule's lhs features (lhs wins on
conflict).  This is a deliberate reduction of unification, sufficient
for case marking.

The chart stores no derivation.  Recognition (Schmid 2004, "Efficient
Parsing of Highly Ambiguous Context-Free Grammars with Bit Vectors")
keeps, per start position and category, an ``int`` whose set bits are
the ends of that category's nodes there.  Start positions are filled
right to left.  At each start a worklist sends only newly found ends of
a category through the rules whose first symbol it fills; a rule's
later symbols are reached by OR-ing the end masks of the matching
categories at each frontier position, the frontier first ANDed with the
positions where a category of the needed name starts.  The head child's
category decides the parent's, so frontiers split by it at the head
symbol.  Every category is interned to a small int in the grammar's
compiled tables (:attr:`Grammar.compiled`), which memoise feature
matches and parent categories for every parse with that grammar object.
Because the chart is built bottom-up without top-down filtering it
keeps every constituent, which the chunk fallback exploits when no
complete parse exists.

Derivations are read only when a reader asks.  One enumerator
(:func:`_derivations`) defines their order: for a node it yields each
derivation as a rule index and child nodes, in (rule index, child ends)
order; derivations that tie on both, whose children differ only in
category, come in the order of their child categories' (name,
features), compared slot by slot.  That order uses no intern id, so any
grammar object, warm or cold, reads the same trees.  A leaf's derivation
(rule index None, no children) comes first.  First trees do not walk
the enumerator: :func:`_first_derivation` finds by end masks the
derivation it yields first.  Where a reader must choose among nodes,
several start-symbol roots or several longest chunk candidates, it ranks
them by their least rule index (their first derivation's), then
category.

:func:`parse` charts any grammar, but the tree readers raise
:class:`ResourceError` unless it has no unary rule cycle, as validation
demands.  Such charts are acyclic: every node has a tree and none recurs
within one, so no reader backtracks.  :func:`first_parse` and
:func:`chunks` read each node by :func:`_first_derivation`, at the cost
of the tree's size.  No reader lists every tree: :func:`count_trees` counts
them in one post-order pass, each node's count the sum over its
derivations of the product of its children's counts (Billot & Lang
1989), an exact ``int`` at any ambiguity.  Every walk keeps an explicit
stack, so no input depth meets the recursion limit.  :attr:`Chart.nodes`
lists every node with its derivations, built on first use from the same
enumerator for tests and tracing; no reader needs it.
Trees are :class:`ParseTree` values, a :class:`typing.NamedTuple`
built once per tree node: immutable and hashable, and, being a tuple,
a tree unpacks, has a ``len`` and equals a plain tuple of its fields.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import EmptyInput, ResourceError
from .resources import Category, CompiledGrammar, Grammar

__all__ = [
    "ParseTree",
    "Chart",
    "parse",
    "first_parse",
    "count_trees",
    "chunks",
    "render_bracketed",
    "features_match",
]

# A node is (category id, start, end).  A derivation is (rule index,
# child nodes); rule index None marks a terminal leaf covering exactly
# one input position.
Key = tuple[int, int, int]
Derivation = tuple[int | None, tuple[Key, ...]]


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


class ChartNode(NamedTuple):
    """One node of :attr:`Chart.nodes`; ``derivations`` name children by id."""

    id: int
    category: Category
    start: int
    end: int
    derivations: list[tuple[int | None, tuple[int, ...]]]


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


def _matches(grammar: Grammar, rule: int, dot: int, cat: int) -> bool:
    """Whether category ``cat`` may fill rhs position ``dot`` of ``rule`` (memoised)."""
    compiled = grammar.compiled
    key = (rule, dot, cat)
    matched = compiled.matches.get(key)
    if matched is None:
        matched = compiled.matches[key] = features_match(
            grammar.rules[rule].rhs[dot], compiled.categories[cat]
        )
    return matched


def _parent(grammar: Grammar, rule: int, head: int) -> int:
    """The category id ``rule`` completes with head child category ``head`` (memoised)."""
    compiled = grammar.compiled
    key = (rule, head)
    parent = compiled.parents.get(key)
    if parent is None:
        parent = compiled.parents[key] = compiled.intern(
            _parent_category(grammar.rules[rule].lhs, compiled.categories[head])
        )
    return parent


def _category_key(compiled: CompiledGrammar, cat: int) -> tuple:
    category = compiled.categories[cat]
    return (category.name, category.features)


class Chart:
    """End-position bit vectors over one tag sequence, filled by :func:`parse`.

    ``_at[p]`` maps each category name to the (category id, end mask)
    pairs of the nodes starting at ``p``; bit ``e`` of a mask is set iff
    the node ends at ``e``.  ``_starts[name]`` has bit ``p`` set iff some
    category of that name starts at ``p``, and ``_leaves[p]`` is the
    category id of the tag at ``p``.
    """

    def __init__(self, grammar: Grammar, leaves: list[int]):
        self.length = len(leaves)
        self.grammar = grammar
        self._leaves = leaves
        self._at: list[dict[str, list[tuple[int, int]]]] = [{} for _ in leaves]
        self._starts: dict[str, int] = {}

    @cached_property
    def nodes(self) -> list[ChartNode]:
        """Every node with its derivations: leaves first, then by (start, end, category).

        Ids index this list; the derivation lists come from the reader's
        enumerator.  Built on first use and kept; no reader needs it.
        """
        compiled = self.grammar.compiled
        leaves = [(cat, i, i + 1) for i, cat in enumerate(self._leaves)]
        others = sorted(
            ((cat, start, end)
             for start, names in enumerate(self._at)
             for pairs in names.values()
             for cat, ends in pairs
             for end in _bits(ends)
             if end != start + 1 or cat != self._leaves[start]),
            key=lambda key: (key[1], key[2], _category_key(compiled, key[0])),
        )
        keys = leaves + others
        ids = {key: i for i, key in enumerate(keys)}
        return [
            ChartNode(i, compiled.categories[cat], start, end, [
                (rule, tuple(ids[child] for child in children))
                for rule, children in _derivations(self, (cat, start, end))
            ])
            for i, (cat, start, end) in enumerate(keys)
        ]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def parse(
    tags: Sequence[str | tuple[str, Mapping[str, str]]], grammar: Grammar
) -> Chart:
    """Recognize every constituent over a parser-tag sequence.

    Each input item is a tag name or a (tag name, features) pair.  The
    chart is closed under the grammar: a node (A, i, j) exists iff A
    derives tags[i..j] under feature matching.
    """
    if not tags:
        raise EmptyInput("cannot parse an empty tag sequence")

    compiled = grammar.compiled
    intern = compiled.intern
    category_ids = compiled.category_ids
    leaves: list[int] = []
    for item in tags:
        if isinstance(item, str):
            cat = category_ids.get((item, ()))
            leaves.append(intern(Category(item)) if cat is None else cat)
        else:
            name, features = item
            leaves.append(intern(Category(name, features)))

    chart = Chart(grammar, leaves)
    at = chart._at
    starts = chart._starts
    rules_by_first = compiled.rules_by_first
    rhs_names = compiled.rhs_names
    heads = compiled.heads
    categories = compiled.categories
    matches = compiled.matches
    parents = compiled.parents

    for i in range(len(leaves) - 1, -1, -1):
        # Category id -> end mask of the nodes found so far at i; the
        # worklist holds (category id, ends not yet sent through rules).
        found = {leaves[i]: 1 << (i + 1)}
        work = [(leaves[i], 1 << (i + 1))]
        while work:
            cat, new = work.pop()
            for rule in rules_by_first.get(categories[cat].name, ()):
                matched = matches.get((rule, 0, cat))
                if matched is None:
                    matched = _matches(grammar, rule, 0, cat)
                if not matched:
                    continue
                head = heads[rule]
                if head:
                    group = -1  # the parent is known once the head is
                else:
                    group = parents.get((rule, cat))
                    if group is None:
                        group = _parent(grammar, rule, cat)
                names = rhs_names[rule]
                groups = ((group, new),)
                for dot in range(1, len(names)):
                    name = names[dot]
                    reach = starts.get(name, 0)
                    frontiers: dict[int, int] = {}
                    for group, frontier in groups:
                        frontier &= reach
                        while frontier:
                            low = frontier & -frontier
                            frontier ^= low
                            for other, ends in at[low.bit_length() - 1][name]:
                                matched = matches.get((rule, dot, other))
                                if matched is None:
                                    matched = _matches(grammar, rule, dot, other)
                                if not matched:
                                    continue
                                parent = group
                                if dot == head:
                                    parent = parents.get((rule, other))
                                    if parent is None:
                                        parent = _parent(grammar, rule, other)
                                frontiers[parent] = frontiers.get(parent, 0) | ends
                    groups = frontiers.items()
                    if not frontiers:
                        break
                for parent, ends in groups:
                    old = found.get(parent, 0)
                    ends &= ~old
                    if ends:
                        found[parent] = old | ends
                        work.append((parent, ends))
        here = at[i]
        bit = 1 << i
        for cat, ends in found.items():
            name = categories[cat].name
            pairs = here.get(name)
            if pairs is None:
                here[name] = [(cat, ends)]
                starts[name] = starts.get(name, 0) | bit
            else:
                pairs.append((cat, ends))
    return chart


def _derivations(chart: Chart, node: Key) -> Iterator[Derivation]:
    """The derivations of ``node``, in the order the module docstring gives.

    For each rule of the node's name in index order, a depth-first walk
    places the children one by one, trying each child's ends in
    ascending order and the next only when the walk comes back to it;
    the last child must end at the node's end.  Which categories may
    fill a child depends on its span alone, so each way to tile the
    span yields one derivation per choice of child categories, in
    category order.
    """
    cat, start, end = node
    if end == start + 1 and chart._leaves[start] == cat:
        yield (None, ())
    grammar = chart.grammar
    compiled = grammar.compiled
    matches = compiled.matches
    parents = compiled.parents
    at = chart._at
    starts = chart._starts
    below = (1 << end) - 1
    for rule in compiled.rules_by_lhs.get(compiled.categories[cat].name, ()):
        names = compiled.rhs_names[rule]
        pairs = at[start].get(names[0])
        if pairs is None:
            continue
        head = compiled.heads[rule]
        last = len(names) - 1
        # A frame places child ``len(path)`` at ``pos`` from ``pairs``,
        # the (category id, end mask) pairs there with its name.  Once
        # placed, ``kids`` are the categories that fit it and ``reach``
        # the ends still to try.  ``path`` holds, per child placed
        # before it, its nodes in category order (one category's list
        # is built inline: most children have one, and a call to
        # :func:`_placed` would cost more than the list).
        stack: list = [((), start, pairs, None, 0)]
        while stack:
            path, pos, pairs, kids, reach = stack.pop()
            dot = len(path)
            if kids is None:
                kids = []
                for other, ends in pairs:
                    if dot == last and not ends >> end & 1:
                        continue
                    matched = matches.get((rule, dot, other))
                    if matched is None:
                        matched = _matches(grammar, rule, dot, other)
                    if matched and dot == head:
                        parent = parents.get((rule, other))
                        matched = (parent if parent is not None else _parent(grammar, rule, other)) == cat
                    if matched:
                        kids.append(other)
                        reach |= ends
                if not kids:
                    continue
                if dot == last:
                    placed = [(kids[0], pos, end)] if len(kids) == 1 else _placed(compiled, kids, pos, end)
                    for children in itertools.product(*path, placed):
                        yield (rule, children)
                    continue
                reach &= below & starts.get(names[dot + 1], 0)
            if not reach:
                continue
            low = reach & -reach
            if reach != low:  # come back for the later ends
                stack.append((path, pos, pairs, kids, reach ^ low))
            e = low.bit_length() - 1
            options = kids if len(kids) == 1 else [
                other for other, ends in pairs if other in kids and ends & low
            ]
            stack.append((
                path + ([(options[0], pos, e)] if len(options) == 1 else _placed(compiled, options, pos, e),),
                e,
                at[e][names[dot + 1]],
                None,
                0,
            ))


def _placed(compiled: CompiledGrammar, cats: list[int], start: int, end: int) -> list[Key]:
    """The nodes of categories ``cats`` over one span, in category order."""
    return sorted(((cat, start, end) for cat in cats), key=lambda node: _category_key(compiled, node[0]))


def _first_derivation(chart: Chart, node: Key) -> Derivation:
    """``next(_derivations(chart, node))``, found by end masks without the walk.

    Rules are tried in index order.  A unary rule's derivation is its
    first fitting child that ends at the node's end.  For a binary rule
    the end masks of the fitting first children, ANDed with the
    positions before the end where a second child's name starts, hold
    every candidate split; the lowest split at which a fitting second
    child ends at the node's end gives the derivation.  Several fitting
    categories over one span are taken in :func:`_placed` order.  A rule
    of three or more symbols hands the node to the enumerator, whose
    earlier rules then yield nothing either.  A key that is no node of
    the chart raises :class:`ValueError`.
    """
    cat, start, end = node
    if end == start + 1 and chart._leaves[start] == cat:
        return (None, ())
    grammar = chart.grammar
    compiled = grammar.compiled
    matches = compiled.matches
    parents = compiled.parents
    at = chart._at
    here = at[start]
    for rule in compiled.rules_by_lhs.get(compiled.categories[cat].name, ()):
        names = compiled.rhs_names[rule]
        pairs = here.get(names[0])
        if pairs is None:
            continue
        if len(names) > 2:
            return next(_derivations(chart, node))
        head = compiled.heads[rule]
        # The fitting children at ``start``, each with its end mask.
        fit = []
        for other, ends in pairs:
            matched = matches.get((rule, 0, other))
            if matched is None:
                matched = _matches(grammar, rule, 0, other)
            if matched and head == 0:
                parent = parents.get((rule, other))
                matched = (parent if parent is not None else _parent(grammar, rule, other)) == cat
            if matched:
                fit.append((other, ends))
        if len(names) == 1:
            kids = [other for other, ends in fit if ends >> end & 1]
            if kids:
                return (rule, ((kids[0], start, end) if len(kids) == 1 else _placed(compiled, kids, start, end)[0],))
            continue
        reach = 0
        for _, ends in fit:
            reach |= ends
        name = names[1]
        reach &= ((1 << end) - 1) & chart._starts.get(name, 0)
        while reach:
            low = reach & -reach
            reach ^= low
            e = low.bit_length() - 1
            kids = []
            for other, ends in at[e][name]:
                if not ends >> end & 1:
                    continue
                matched = matches.get((rule, 1, other))
                if matched is None:
                    matched = _matches(grammar, rule, 1, other)
                if matched and head == 1:
                    parent = parents.get((rule, other))
                    matched = (parent if parent is not None else _parent(grammar, rule, other)) == cat
                if matched:
                    kids.append(other)
            if kids:
                left = [other for other, ends in fit if ends & low]
                return (rule, (
                    (left[0], start, e) if len(left) == 1 else _placed(compiled, left, start, e)[0],
                    (kids[0], e, end) if len(kids) == 1 else _placed(compiled, kids, e, end)[0],
                ))
    raise ValueError(f"{node} is not a node of the chart")


def _readable(chart: Chart) -> None:
    """:class:`ResourceError` if the chart's grammar has a unary cycle."""
    cycle = chart.grammar.compiled.cycle_rules
    if cycle:
        lhs = chart.grammar.rules[cycle[0]].lhs.name
        where = f"grammar/rule[{cycle[0] + 1}]"
        raise ResourceError(f"{where}: unary cycle through {lhs!r}; no tree is read")


def _first_trees(chart: Chart, roots: Sequence[Key]) -> list[ParseTree]:
    """Each root's first tree: every node by :func:`_first_derivation`."""
    compiled = chart.grammar.compiled
    categories = compiled.categories
    heads = compiled.heads
    leaves = chart._leaves
    new = tuple.__new__  # a ParseTree from its fields in order, at about half the cost of ParseTree(...)
    built: list[ParseTree] = []  # finished subtrees, siblings in order
    # A node to read, or a (node, derivation) pair whose children are built.
    stack: list = list(reversed(roots))
    while stack:
        item = stack.pop()
        if len(item) == 3:
            cat, start, end = item
            if end == start + 1 and leaves[start] == cat:  # a leaf's first derivation is its own
                built.append(new(ParseTree, (categories[cat], start, end, (), 0, None)))
                continue
            deriv = _first_derivation(chart, item)
            stack.append((item, deriv))
            stack.extend(reversed(deriv[1]))
            continue
        (cat, start, end), (rule_idx, children) = item
        kids = tuple(built[-len(children):])
        del built[-len(children):]
        built.append(new(ParseTree, (categories[cat], start, end, kids, heads[rule_idx], rule_idx)))
    return built


def _rank(chart: Chart, node: Key) -> tuple:
    """(least rule index, category) of ``node``; a leaf's rule ranks first."""
    rule = _first_derivation(chart, node)[0]
    return (-1 if rule is None else rule, _category_key(chart.grammar.compiled, node[0]))


def _roots(chart: Chart, start_symbol: str) -> list[Key]:
    """The start symbol's nodes over the full span, by :func:`_rank`."""
    _readable(chart)
    n = chart.length
    roots = [(cat, 0, n) for cat, ends in chart._at[0].get(start_symbol, ()) if ends >> n & 1]
    return sorted(roots, key=lambda root: _rank(chart, root)) if len(roots) > 1 else roots


def first_parse(chart: Chart, start_symbol: str) -> ParseTree | None:
    """The start symbol's first tree over the full span, or None if it has none.

    The first root, each node read by :func:`_first_derivation`, in the
    order the module docstring gives: one tree, however many the chart
    packs.
    """
    roots = _roots(chart, start_symbol)
    return _first_trees(chart, roots[:1])[0] if roots else None


def count_trees(chart: Chart, start_symbol: str) -> int:
    """The exact number of the start symbol's trees over the full span."""
    roots = _roots(chart, start_symbol)
    derivations_of: dict[Key, list[Derivation]] = {}
    counts: dict[Key, int] = {}
    stack = list(roots)
    while stack:  # post-order: a node's second visit counts it, after its children
        node = stack.pop()
        if node in counts:
            continue
        derivations = derivations_of.get(node)
        if derivations is None:
            derivations = derivations_of[node] = list(_derivations(chart, node))
            stack.append(node)
            stack.extend(c for _, children in derivations for c in children)
            continue
        counts[node] = sum(math.prod(counts[c] for c in children) for _, children in derivations)
    return sum(counts[root] for root in roots)


def chunks(chart: Chart) -> list[ParseTree]:
    """Greedy left-to-right cover by maximal constituents.

    At each position the longest constituent starting there is taken,
    ties broken by the least rule index among its derivations, then by
    category order, and read as its first tree, each node by
    :func:`_first_derivation`; where none exists the bare terminal is
    emitted.  The result covers the whole span without
    overlap.
    """
    _readable(chart)
    cover: list[Key] = []
    pos = 0
    while pos < chart.length:
        # The constituents ending furthest from ``pos``; the leaf at
        # ``pos`` is none, though its category may have longer nodes.
        leaf = chart._leaves[pos]
        reach = pos + 1
        longest: list[int] = []
        for pairs in chart._at[pos].values():
            for cat, ends in pairs:
                end = ends.bit_length() - 1
                if end < reach or (cat == leaf and end == pos + 1):
                    continue
                if end > reach:
                    reach, longest = end, []
                longest.append(cat)
        if len(longest) == 1:
            node = (longest[0], pos, reach)
        elif longest:
            node = min(((cat, pos, reach) for cat in longest), key=lambda key: _rank(chart, key))
        else:
            node = (leaf, pos, pos + 1)
        cover.append(node)
        pos = node[2]
    return _first_trees(chart, cover)


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
