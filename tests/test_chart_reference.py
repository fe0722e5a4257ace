"""The bit-vector chart equals the reference parser's, node for node.

``reference_parser`` is the agenda parser as it was before categories
were interned.  Both charts must hold the same nodes (category, start,
end), and each node the same derivations, naming children by their
(category, start, end).  Where the grammar has no unary rule cycle the
tree readers must give the same chunk covers, first trees and tree
counts, and, up to ``LISTED`` trees, the same trees, listed here by
:func:`list_trees` and compared as lists.  Three orders the reference
leaves to creation order this parser ranks by category (name,
features): two derivations of one node that agree on rule and child
ends, several start-symbol roots (after their least rule index), and
several longest chunk candidates of one least rule.  Only those are
normalised on the reference side before comparing.  On every node of
such a chart, the first-tree reader (``_first_derivation``) must give
the derivation the enumerator yields first.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import reference_parser
from grammargen import TERMINAL_POOL, feature_tags, random_case, to_grammar
from xdoc.errors import ResourceError
from xdoc.parsing import (
    ParseTree, _bits, _derivations, _first_derivation, _roots, chunks, count_trees, first_parse, parse,
)
from xdoc.resources import Category, Grammar, GrammarRule

LISTED = 256  # charts with more trees are compared by count and first tree


def list_trees(chart, start_symbol: str) -> list[ParseTree]:
    """Every tree of the start symbol over the full span, in derivation order.

    Each node's trees are its derivations' in order, each derivation's
    the product of its children's trees; roots come in reader order.
    Recursive, and as long as the count: for small, shallow charts.
    """
    compiled = chart.grammar.compiled
    memo: dict[tuple, list[ParseTree]] = {}

    def trees(node) -> list[ParseTree]:
        if node not in memo:
            cat, start, end = node
            memo[node] = [
                ParseTree(compiled.categories[cat], start, end, combo,
                          0 if rule is None else compiled.heads[rule], rule)
                for rule, children in _derivations(chart, node)
                for combo in itertools.product(*map(trees, children))
            ]
        return memo[node]

    return [tree for root in _roots(chart, start_symbol) for tree in trees(root)]


def derivation_table(chart) -> dict[tuple, set]:
    """Per node (category, start, end), its derivations with children so named."""
    key = {n.id: (n.category, n.start, n.end) for n in chart.nodes}
    return {
        key[n.id]: {(rule, tuple(key[c] for c in children)) for rule, children in n.derivations}
        for n in chart.nodes
    }


def has_tie(chart) -> bool:
    """Whether two derivations of one node agree on rule and child ends."""
    ends = {n.id: n.end for n in chart.nodes}
    return any(
        len({(rule, tuple(ends[c] for c in children)) for rule, children in n.derivations})
        < len(n.derivations)
        for n in chart.nodes
    )


def assert_first_derivations(chart) -> int:
    """The mask reader gives every node the enumerator's first derivation; returns the nodes checked."""
    checked = 0
    for start, names in enumerate(chart._at):
        for pairs in names.values():
            for cat, ends in pairs:
                for end in _bits(ends):
                    key = (cat, start, end)
                    assert _first_derivation(chart, key) == next(_derivations(chart, key)), key
                    checked += 1
    return checked


def least_rule(node) -> int:
    """The least rule index among a reference node's derivations; a leaf's first."""
    return min(-1 if rule is None else rule for rule, _ in node.derivations)


def category_key(node) -> tuple:
    return (node.category.name, node.category.features)


def break_ties_by_category(expected) -> None:
    """Order tied derivations of the reference chart as this parser does.

    The reference orders two derivations of one node that agree on rule
    and child ends by creation; re-sorting each node's list by (rule,
    child spans, child categories) leaves every other order as it was.
    """
    nodes = expected.nodes
    for n in nodes:
        n.derivations.sort(key=lambda deriv: (
            -1 if deriv[0] is None else deriv[0],
            tuple((nodes[c].start, nodes[c].end) for c in deriv[1]),
            tuple(category_key(nodes[c]) for c in deriv[1]),
        ))


def reference_roots(expected, start_symbol: str) -> list:
    """The reference's start-symbol roots, ranked as this parser ranks them."""
    roots = [n for n in expected.nodes
             if n.category.name == start_symbol and n.start == 0 and n.end == expected.length]
    return sorted(roots, key=lambda n: (least_rule(n), category_key(n)))


def reference_trees(expected, start_symbol: str):
    """``reference_parser.complete_parses``, its roots ranked as this parser ranks them.

    The reference lists roots in creation order; the trees of each root
    stay in its order.
    """
    trees = reference_parser.complete_parses(expected, start_symbol)
    rank = {n.category: i for i, n in enumerate(reference_roots(expected, start_symbol))}
    return sorted(trees, key=lambda tree: rank[tree.category])


def reference_chunks(expected) -> list:
    """``reference_parser.chunks``, two longest candidates of one least rule ranked by category.

    The reference breaks that tie by creation order.
    """
    out = []
    for tree in reference_parser.chunks(expected):
        if tree.children:  # a constituent, not a bare terminal
            tied = [n for n in expected.passives_from(tree.start)
                    if n.is_constituent() and n.end == tree.end
                    and least_rule(n) == tree.rule_index]
            best = min(tied, key=category_key)
            tree = reference_parser._first_tree(expected, best, set())
        out.append(tree)
    return out


def assert_same_as_reference(tags, grammar) -> bool:
    """Compare with the reference; returns whether its chart has a derivation tie."""
    chart = parse(tags, grammar)
    expected = reference_parser.parse(tags, grammar)
    assert derivation_table(chart) == derivation_table(expected)
    if grammar.compiled.cycle_rules:
        for read in (chunks, lambda chart: count_trees(chart, grammar.start_symbol)):
            with pytest.raises(ResourceError, match="unary cycle"):
                read(chart)
        return False
    assert_first_derivations(chart)
    tied = has_tie(expected)
    break_ties_by_category(expected)
    assert chunks(chart) == reference_chunks(expected)
    for symbol in sorted(grammar.lhs_names()):
        count = count_trees(chart, symbol)
        assert count == reference_parser.count_trees(expected, symbol)
        roots = reference_roots(expected, symbol)
        first = reference_parser._first_tree(expected, roots[0], set()) if roots else None
        assert first_parse(chart, symbol) == first
        if count <= LISTED:
            trees = list_trees(chart, symbol)
            assert trees == reference_trees(expected, symbol)
            assert len(trees) == count
            assert first == (trees[0] if trees else None)
    return tied


@given(st.integers(0, 2**32 - 1))
@example(1021)  # a tie the reference breaks otherwise: chunks differ
@example(2045)  # and the trees of B
@settings(max_examples=200, deadline=None)
def test_chart_equals_reference_with_features(seed):
    rng = random.Random(seed)
    rules, _ = random_case(rng)
    grammar = to_grammar(rules, rng)
    inputs = []
    for _ in range(4):
        tags = [rng.choice(TERMINAL_POOL) for _ in range(rng.randint(1, 7))]
        inputs.append(feature_tags(tags, rng) if rng.random() < 0.75 else tags)
    tied = False
    for tags in inputs * 2:  # the second round runs on warm tables
        tied |= assert_same_as_reference(tags, grammar)
    event(f"derivation tie: {tied}")


def test_reader_takes_tied_categories_in_category_order():
    """Two categories tie on both children of a binary rule and on a unary rule.

    X[f=2] and X[f=1] span the first T, Y[g=2] and Y[g=1] the second.
    The rule making the later category of each pair comes first, so
    intern ids run against category order.  Each lhs feature overrides
    the head child's, so both categories of a tied child give one parent.
    Q takes its head Y's feature, so each Q node fits one Y only.
    """
    def cat(name: str, **features: str) -> Category:
        return Category(name, features)

    grammar = Grammar("S", (
        GrammarRule(cat("S", f="0"), (cat("X"), cat("Y")), 1),
        GrammarRule(cat("U", f="0"), (cat("X"),), 1),
        GrammarRule(cat("X", f="2"), (cat("T"),), 1),
        GrammarRule(cat("X", f="1"), (cat("T"),), 1),
        GrammarRule(cat("Y", g="2"), (cat("T"),), 1),
        GrammarRule(cat("Y", g="1"), (cat("T"),), 1),
        GrammarRule(cat("Q"), (cat("T"), cat("Y")), 2),
    ))
    chart = parse(["T", "T"], grammar)
    ids = grammar.compiled.category_ids
    x1, x2 = ids[("X", (("f", "1"),))], ids[("X", (("f", "2"),))]
    y1, y2 = ids[("Y", (("g", "1"),))], ids[("Y", (("g", "2"),))]
    assert x2 < x1 and y2 < y1
    s, u = (ids[("S", (("f", "0"),))], 0, 2), (ids[("U", (("f", "0"),))], 0, 1)
    assert len(list(_derivations(chart, s))) == 4 and len(list(_derivations(chart, u))) == 2
    assert _first_derivation(chart, s) == next(_derivations(chart, s)) == (0, ((x1, 0, 1), (y1, 1, 2)))
    assert _first_derivation(chart, u) == next(_derivations(chart, u)) == (1, ((x1, 0, 1),))
    q2 = (ids[("Q", (("g", "2"),))], 0, 2)
    assert _first_derivation(chart, q2) == next(_derivations(chart, q2)) == (6, ((ids[("T", ())], 0, 1), (y2, 1, 2)))
    tree = first_parse(chart, "S")
    assert [child.category for child in tree.children] == [cat("X", f="1"), cat("Y", g="1")]
    assert_same_as_reference(["T", "T"], grammar)


def genitive_chain(nps: int) -> list[tuple[str, dict[str, str]]]:
    return [("DETN", {}), ("N", {})] + [("DETG", {}), ("N", {})] * (nps - 1)


def clause(subject_genitives: int, object_genitives: int) -> list[tuple[str, dict[str, str]]]:
    return (
        genitive_chain(subject_genitives + 1)
        + [("V", {})]
        + [("DETA", {}), ("N", {})]
        + [("DETG", {}), ("N", {})] * object_genitives
    )


@pytest.mark.parametrize("nps", [8, 13, 19, 25, 30])
def test_de_core_genitive_chain_equals_reference(de_core, nps):
    grammar = de_core.grammar
    for g in (grammar, Grammar(grammar.start_symbol, grammar.rules)):  # warm, then cold
        assert_same_as_reference(genitive_chain(nps), g)


@pytest.mark.parametrize("sizes", [(0, 0), (3, 3), (4, 4), (4, 5), (6, 4)])
def test_de_core_clause_equals_reference(de_core, sizes):
    tags = clause(*sizes)
    assert_same_as_reference(tags, de_core.grammar)
    # (4, 4) has 196 readings and is listed; (4, 5) and (6, 4) are only counted
    listed = count_trees(parse(tags, de_core.grammar), "S") <= LISTED
    assert listed == (sizes not in ((4, 5), (6, 4)))
