"""The chart equals the reference parser's on longer inputs too.

With 8 to 12 tags a passive node is often made while an active edge
that needs it already waits, and is taken off the agenda only later.
The edge meets that node when it is made, so the agenda must skip it;
these inputs check that each such pair still meets exactly once.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from grammargen import TERMINAL_POOL, feature_tags, random_case, to_grammar
from test_chart_reference import assert_same_as_reference


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_chart_equals_reference_on_longer_inputs(seed):
    rng = random.Random(seed)
    rules, _ = random_case(rng)
    grammar = to_grammar(rules, rng)
    # Tags the grammar uses make denser charts than the whole pool.
    pool = sorted({name for _, rhs in rules for name in rhs if name in TERMINAL_POOL})
    for _ in range(4):
        tags = [rng.choice(pool or TERMINAL_POOL) for _ in range(rng.randint(8, 12))]
        assert_same_as_reference(feature_tags(tags, rng) if rng.random() < 0.75 else tags, grammar)
