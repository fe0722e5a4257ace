"""The integer-coded chart equals the reference parser's, node for node.

``reference_parser`` is the parser as it was before categories were
interned.  Both charts must hold the same nodes in the same order (same
id, category, span and derivation list) on every grammar.  Where the
grammar has no unary rule cycle the tree readers must give the same
trees, chunk covers and ``TooAmbiguous`` verdicts on them; where it has
one they refuse the chart.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from grammargen import TERMINAL_POOL, feature_tags, random_case, to_grammar
from xdoc.errors import ResourceError, TooAmbiguous
from xdoc.parsing import chunks, complete_parses, parse
from xdoc.resources import Grammar


def node_table(chart):
    return [(n.id, n.category, n.start, n.end, list(n.derivations)) for n in chart.nodes]


def trees_or_verdict(read, chart, start_symbol):
    try:
        return read(chart, start_symbol)
    except TooAmbiguous as exc:
        return ("TooAmbiguous", exc.limit)


def assert_same_as_reference(tags, grammar):
    chart = parse(tags, grammar)
    expected = reference_parser.parse(tags, grammar)
    assert node_table(chart) == node_table(expected)
    if grammar.compiled.cycle_rules:
        for read in (chunks, lambda chart: complete_parses(chart, grammar.start_symbol)):
            with pytest.raises(ResourceError, match="unary cycle"):
                read(chart)
        return
    assert chunks(chart) == reference_parser.chunks(expected)
    for symbol in sorted(grammar.lhs_names()):
        assert trees_or_verdict(complete_parses, chart, symbol) == trees_or_verdict(
            reference_parser.complete_parses, expected, symbol
        )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_chart_equals_reference_with_features(seed):
    rng = random.Random(seed)
    rules, _ = random_case(rng)
    grammar = to_grammar(rules, rng)
    inputs = []
    for _ in range(4):
        tags = [rng.choice(TERMINAL_POOL) for _ in range(rng.randint(1, 7))]
        inputs.append(feature_tags(tags, rng) if rng.random() < 0.75 else tags)
    for tags in inputs * 2:  # the second round runs on warm tables
        assert_same_as_reference(tags, grammar)


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
    # (4, 4) has 196 readings; (4, 5) and (6, 4) exceed the cap
    verdict = trees_or_verdict(complete_parses, parse(tags, de_core.grammar), "S")
    assert isinstance(verdict, tuple) == (sizes in ((4, 5), (6, 4)))
    assert verdict  # a list of trees when under the cap
