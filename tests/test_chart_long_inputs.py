"""The chart equals the reference parser's on longer inputs too.

With 8 to 12 tags, frontiers span several positions, nodes have
several derivations, and ties between derivations of one node (same
rule and child ends, children of other categories) occur in a few
percent of draws.  The enumerator must still yield each derivation
once, in order, and each must recheck against its rule.
"""

from __future__ import annotations

import random

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from grammargen import TERMINAL_POOL, feature_tags, random_case, to_grammar
from test_chart_reference import assert_same_as_reference
from test_parser import assert_enumerated_in_order
from xdoc.parsing import parse


@given(st.integers(0, 2**32 - 1))
@example(582)  # a tie the reference breaks otherwise: chunks differ
@example(952)  # and the trees of S
@settings(max_examples=50, deadline=None)
def test_chart_equals_reference_on_longer_inputs(seed):
    rng = random.Random(seed)
    rules, _ = random_case(rng)
    grammar = to_grammar(rules, rng)
    # Tags the grammar uses make denser charts than the whole pool.
    pool = sorted({name for _, rhs in rules for name in rhs if name in TERMINAL_POOL})
    tied = False
    for _ in range(4):
        tags = [rng.choice(pool or TERMINAL_POOL) for _ in range(rng.randint(8, 12))]
        if rng.random() < 0.75:
            tags = feature_tags(tags, rng)
        tied |= assert_same_as_reference(tags, grammar)
        assert_enumerated_in_order(parse(tags, grammar))
    event(f"derivation tie: {tied}")
