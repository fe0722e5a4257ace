from __future__ import annotations

import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from cyk_oracle import brute_force_spans, chart_spans, count_bracketings
from grammargen import TERMINAL_POOL, feature_tags, random_case, to_grammar
from test_chart_reference import LISTED, clause, list_trees
from xdoc import parsing
from xdoc.errors import EmptyInput, ResourceError
from xdoc.parsing import (
    ParseTree,
    _parent_category,
    chunks,
    count_trees,
    features_match,
    first_parse,
    parse,
    render_bracketed,
)
from xdoc.resources import Category, Grammar, GrammarRule


def grammar_of(*rule_defs: tuple[str, tuple[str, ...], int] | tuple[str, tuple[str, ...]]) -> Grammar:
    rules = []
    for item in rule_defs:
        lhs, rhs = item[0], item[1]
        head = item[2] if len(item) > 2 else 1
        rules.append(GrammarRule(Category(lhs), tuple(Category(n) for n in rhs), head))
    return Grammar(rules[0].lhs.name, tuple(rules))


EN_GRAMMAR = Grammar(
    "S",
    (
        GrammarRule(Category("S"), (Category("NP"), Category("VP")), 2),
        GrammarRule(Category("NP"), (Category("DET"), Category("N")), 2),
        GrammarRule(Category("NP"), (Category("N"),), 1),
        GrammarRule(Category("VP"), (Category("V"), Category("NP")), 1),
    ),
)

AMBIG_NP = grammar_of(("NP", ("NP", "NP")), ("NP", ("N",)))


def _deep_tree(depth: int) -> ParseTree:
    """(NP N (NP N ... (NP N N))): ``depth`` nested NPs over depth + 1 leaves."""
    tree = ParseTree(Category("N"), depth, depth + 1)
    for i in range(depth - 1, -1, -1):
        tree = ParseTree(Category("NP"), i, depth + 1, (ParseTree(Category("N"), i, i + 1), tree))
    return tree


def test_render_bracketed_walks_a_deep_tree_without_recursion():
    depth = 5000
    tree = _deep_tree(depth)
    assert render_bracketed(tree) == "(NP N " * depth + "N" + ")" * depth
    forms = [f"w{i}" for i in range(depth + 1)]
    expected = "".join(f"(NP (N w{i}) " for i in range(depth)) + f"(N w{depth})" + ")" * depth
    assert render_bracketed(tree, forms) == expected


def test_simple_sentence_chart_closure():
    chart = parse(["N", "V", "N"], EN_GRAMMAR)
    have = chart_spans(chart)
    assert {("NP", 0, 1), ("NP", 2, 3), ("VP", 1, 3), ("S", 0, 3)} <= have
    assert count_trees(chart, "S") == 1
    tree = first_parse(chart, "S")
    assert render_bracketed(tree) == "(S (NP N) (VP V (NP N)))"
    assert (
        render_bracketed(tree, ["Aspirin", "inhibits", "cyclooxygenase"])
        == "(S (NP (N Aspirin)) (VP (V inhibits) (NP (N cyclooxygenase))))"
    )


def test_chart_matches_oracle_on_simple_sentence():
    rules = [("S", ("NP", "VP")), ("NP", ("DET", "N")), ("NP", ("N",)), ("VP", ("V", "NP"))]
    assert chart_spans(parse(["N", "V", "N"], EN_GRAMMAR)) == brute_force_spans(rules, ["N", "V", "N"])


def test_ambiguous_np_has_two_derivations():
    chart = parse(["N", "N", "N"], AMBIG_NP)
    trees = list_trees(chart, "NP")
    assert len(trees) == 2 == count_bracketings(3) == count_trees(chart, "NP")
    rendered = {render_bracketed(t) for t in trees}
    assert rendered == {"(NP (NP N) (NP (NP N) (NP N)))", "(NP (NP (NP N) (NP N)) (NP N))"}


def test_catalan_counts_match_bracketing_oracle():
    for n in range(1, 41):
        assert count_trees(parse(["N"] * n, AMBIG_NP), "NP") == count_bracketings(n)


def test_single_unmatched_tag_leaves_terminal_edge_only():
    chart = parse(["DET"], EN_GRAMMAR)
    assert chart_spans(chart) == {("DET", 0, 1)}
    assert count_trees(chart, "S") == 0
    assert first_parse(chart, "S") is None


def test_empty_input_raises():
    with pytest.raises(EmptyInput):
        parse([], EN_GRAMMAR)


def test_enumeration_is_deterministic():
    first, second = parse(["N"] * 5, AMBIG_NP), parse(["N"] * 5, AMBIG_NP)
    assert [n.derivations for n in first.nodes] == [n.derivations for n in second.nodes]
    assert render_bracketed(first_parse(first, "NP")) == render_bracketed(first_parse(second, "NP"))
    assert [render_bracketed(t) for t in list_trees(first, "NP")] == [
        render_bracketed(t) for t in list_trees(second, "NP")
    ]


def test_count_is_the_number_of_listed_trees():
    # 7 leaves give 132 bracketings, each listed once.
    for n in range(1, 8):
        chart = parse(["N"] * n, AMBIG_NP)
        trees = list_trees(chart, "NP")
        assert count_trees(chart, "NP") == len(trees) == len(set(trees)) == count_bracketings(n)
    assert len(trees) == 132


def test_trees_rederive_their_span():
    for tree in list_trees(parse(["N"] * 4, AMBIG_NP), "NP"):
        for node in tree.preorder():
            assert node.leaf_positions() == list(range(node.start, node.end))


def test_tree_walks_survive_deep_trees():
    # Right-branching: node i spans [i, depth + 1) with children (leaf i, node i + 1).
    depth = 5000
    bottom = tree = ParseTree(Category("N"), depth, depth + 1)
    levels = []
    for i in reversed(range(depth)):
        leaf = ParseTree(Category("N"), i, i + 1)
        tree = ParseTree(Category("NP"), i, depth + 1, (leaf, tree))
        levels.append((tree, leaf))
    expected = [node for level in reversed(levels) for node in level] + [bottom]
    assert [id(node) for node in tree.preorder()] == [id(node) for node in expected]
    assert tree.leaf_positions() == list(range(depth + 1))


RIGHT_RECURSIVE = grammar_of(("S", ("x", "S")), ("S", ("e",)))


def right_spine(tree: ParseTree) -> list[tuple[str, int, int]]:
    """(name, start, end) down the last children, walked without recursion."""
    spine = []
    while tree.children:
        spine.append((tree.category.name, tree.start, tree.end))
        tree = tree.children[-1]
    return spine + [(tree.category.name, tree.start, tree.end)]


def test_readers_read_a_deep_chart_without_recursion():
    # S -> x S | e over 5,000 x: one tree 5,001 S deep.  Trees this deep
    # are compared by walks, since == on nested tuples recurses.
    depth = 5000
    tags = ["x"] * depth + ["e"]
    expected = [("S", i, depth + 1) for i in range(depth + 1)] + [("e", depth, depth + 1)]
    chart = parse(tags, RIGHT_RECURSIVE)
    first = first_parse(chart, "S")
    assert count_trees(chart, "S") == 1
    assert right_spine(first) == expected
    assert first.leaf_positions() == list(range(depth + 1))
    # A leading tag that no rule covers: no complete parse, two chunks.
    chart = parse(["y"] + tags, RIGHT_RECURSIVE)
    assert first_parse(chart, "S") is None
    leaf, chunk = chunks(chart)
    assert (leaf.category.name, leaf.start, leaf.end, leaf.children) == ("y", 0, 1, ())
    assert right_spine(chunk) == [(name, start + 1, end + 1) for name, start, end in expected]


def test_readers_read_a_long_right_recursive_np():
    # en-bio's grammar plus NP -> N NP over 2,000 nouns, alone (no S, so
    # one chunk) and after N V (one parse): the chart holds ~2,000,000
    # NP nodes, each a bit in one end mask per start position.
    grammar = Grammar(
        "S", EN_GRAMMAR.rules + (GrammarRule(Category("NP"), (Category("N"), Category("NP")), 1),)
    )
    n = 2000
    chart = parse(["N"] * n, grammar)
    assert first_parse(chart, "S") is None
    (chunk,) = chunks(chart)
    assert right_spine(chunk) == [("NP", i, n) for i in range(n)] + [("N", n - 1, n)]
    chart = parse(["N", "V"] + ["N"] * n, grammar)
    tree = first_parse(chart, "S")
    assert right_spine(tree) == (
        [("S", 0, n + 2), ("VP", 1, n + 2)] + [("NP", i, n + 2) for i in range(2, n + 2)]
        + [("N", n + 1, n + 2)]
    )
    assert tree.leaf_positions() == list(range(n + 2))
    assert right_spine(chunks(chart)[0]) == right_spine(tree)


def test_parsing_has_no_recursive_function():
    # Every walk over a chart or a tree keeps an explicit stack, so no
    # input's depth meets the recursion limit.
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(parsing))
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {
                node.func.id
                for node in ast.walk(func)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            }
            assert func.name not in called, func.name
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_trees", "_count_trees", "_sorted_derivations"}


def test_feature_matching_requires_shared_keys_to_agree():
    nom = Category("NP", {"case": "nom"})
    acc = Category("NP", {"case": "acc"})
    bare = Category("NP")
    other = Category("VP")
    assert features_match(nom, nom)
    assert not features_match(nom, acc)
    assert features_match(bare, nom) and features_match(nom, bare)
    assert not features_match(nom, other)


@given(
    st.sampled_from(["NP", "VP"]),
    st.dictionaries(st.sampled_from(["case", "num"]), st.sampled_from(["a", "b"]), max_size=2),
    st.dictionaries(st.sampled_from(["case", "num"]), st.sampled_from(["a", "b"]), max_size=2),
)
@settings(max_examples=100)
def test_feature_matching_symmetric_and_reflexive(name, f1, f2):
    c1, c2 = Category(name, f1), Category(name, f2)
    assert features_match(c1, c1)
    assert features_match(c1, c2) == features_match(c2, c1)


def test_case_feature_blocks_mismatched_rule():
    grammar = Grammar(
        "S",
        (
            GrammarRule(
                Category("S"),
                (Category("NP", {"case": "nom"}), Category("V")),
                2,
            ),
            GrammarRule(Category("NP", {"case": "nom"}), (Category("DN"),), 1),
            GrammarRule(Category("NP", {"case": "acc"}), (Category("DA"),), 1),
        ),
    )
    assert ("S", 0, 2) in chart_spans(parse(["DN", "V"], grammar))
    assert ("S", 0, 2) not in chart_spans(parse(["DA", "V"], grammar))


def test_parent_takes_head_features_lhs_wins():
    grammar = Grammar(
        "XP",
        (
            GrammarRule(
                Category("XP", {"mark": "top"}),
                (Category("A"), Category("B")),
                1,
            ),
        ),
    )
    chart = parse([("A", {"case": "nom", "mark": "low"}), ("B", {})], grammar)
    node = next(n for n in chart.nodes if n.category.name == "XP")
    assert dict(node.category.features) == {"case": "nom", "mark": "top"}


def test_terminal_features_participate_in_matching():
    grammar = Grammar(
        "S",
        (GrammarRule(Category("S"), (Category("D", {"case": "nom"}), Category("N")), 2),),
    )
    assert ("S", 0, 2) in chart_spans(parse([("D", {"case": "nom"}), ("N", {})], grammar))
    assert ("S", 0, 2) not in chart_spans(parse([("D", {"case": "acc"}), ("N", {})], grammar))


def test_chunks_greedy_cover_without_vp_rule():
    grammar = grammar_of(
        ("S", ("NP", "VP"), 2), ("NP", ("DET", "N"), 2), ("NP", ("N",), 1)
    )
    cover = chunks(parse(["DET", "N", "V"], grammar))
    assert [(c.category.name, c.start, c.end) for c in cover] == [("NP", 0, 2), ("V", 2, 3)]


def test_chunks_on_full_parse_is_the_spanning_tree():
    cover = chunks(parse(["N", "V", "N"], EN_GRAMMAR))
    assert [(c.category.name, c.start, c.end) for c in cover] == [("S", 0, 3)]


def test_chunks_without_applicable_rules_is_one_leaf_per_token():
    grammar = grammar_of(("S", ("X", "Y")))
    cover = chunks(parse(["A", "B", "C"], grammar))
    assert [(c.category.name, c.start, c.end) for c in cover] == [
        ("A", 0, 1),
        ("B", 1, 2),
        ("C", 2, 3),
    ]


def test_chunks_tie_broken_by_rule_order():
    grammar = grammar_of(("XP", ("A", "B")), ("YP", ("A", "B")))
    cover = chunks(parse(["A", "B"], grammar))
    assert [c.category.name for c in cover] == ["XP"]


def test_chunks_read_the_first_complete_parse(de_core):
    # The one-tree reads and the full read agree wherever a complete parse exists.
    cases = [(["N"] * 5, AMBIG_NP, "NP", 14)] + [
        (clause(*sizes), de_core.grammar, "S", readings)
        for sizes, readings in (((0, 0), 1), ((3, 3), 25), ((4, 4), 196))
    ]
    for tags, grammar, start_symbol, readings in cases:
        chart = parse(tags, grammar)
        trees = list_trees(chart, start_symbol)
        assert len(trees) == readings == count_trees(chart, start_symbol)
        assert chunks(chart) == [trees[0]]
        assert first_parse(chart, start_symbol) == trees[0]


@pytest.mark.parametrize("sizes, readings", [((4, 5), 588), ((6, 4), 1848)])
def test_first_parse_reads_a_clause_of_many_readings(de_core, sizes, readings):
    chart = parse(clause(*sizes), de_core.grammar)
    assert count_trees(chart, "S") == readings
    trees = list_trees(chart, "S")
    assert len(trees) == readings
    assert first_parse(chart, "S") == trees[0]


def test_de_core_clauses_count_catalan_products(de_core):
    # DETN N (DETG N)*k V DETA N (DETG N)*m: each genitive chain of k
    # attaches in Catalan(k) ways, counted by a recurrence that does not
    # use xdoc (count_bracketings(k + 1) is Catalan(k)).
    for k in range(21):
        for m in range(21):
            expected = count_bracketings(k + 1) * count_bracketings(m + 1)
            assert count_trees(parse(clause(k, m), de_core.grammar), "S") == expected, (k, m)
    assert expected == 43_087_676_888_260_976_400


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_first_parse_is_the_first_listed_tree(seed):
    # Random grammars with features: wherever the listing is small, the
    # one-tree read gives its first tree and the count its length.  Few
    # random strings parse, so each constituent's span is read as a
    # sentence of its own too.  A grammar with a unary rule cycle is
    # refused by both readers.
    rng = random.Random(seed)
    rules, _ = random_case(rng)
    grammar = to_grammar(rules, rng)
    if grammar.compiled.cycle_rules:
        chart = parse([rng.choice(TERMINAL_POOL)], grammar)
        for read in (first_parse, count_trees):
            with pytest.raises(ResourceError, match="unary cycle"):
                read(chart, grammar.start_symbol)
        return
    for _ in range(4):
        tags = [rng.choice(TERMINAL_POOL) for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.75:
            tags = feature_tags(tags, rng)
        nodes = parse(tags, grammar).nodes[len(tags):]
        spans = [(0, len(tags), symbol) for symbol in sorted(grammar.lhs_names())]
        spans += sorted({(n.start, n.end, n.category.name) for n in nodes})
        for start, end, symbol in spans:
            chart = parse(tags[start:end], grammar)
            count = count_trees(chart, symbol)
            if count > LISTED:
                continue
            trees = list_trees(chart, symbol)
            assert len(trees) == count
            assert first_parse(chart, symbol) == (trees[0] if trees else None)


# Randomized oracle comparison. A small slice runs here; the full sweep
# lives in the acceptance suite.


def test_chart_matches_brute_force_oracle_random_slice():
    rng = random.Random(1729)
    for _ in range(150):
        rules, tags = random_case(rng)
        chart = parse(tags, to_grammar(rules))
        assert chart_spans(chart) == brute_force_spans(rules, tags), (rules, tags)
        for node in chart.nodes:  # packing keeps derivations unique
            assert len(set(node.derivations)) == len(node.derivations)


def test_enumerator_yields_each_derivation_once_in_order():
    # S -> y y: one node over both tags with one derivation.
    chart = parse(["y", "y"], grammar_of(("S", ("y", "y"))))
    assert [n.derivations for n in chart.nodes[2:]] == [[(0, (0, 1))]]
    # S -> x | x S: the view lists leaves first, then nodes by (start,
    # end, category); S over both tags has the one derivation x + S(1, 2).
    chart = parse(["x", "x"], grammar_of(("S", ("x",)), ("S", ("x", "S"))))
    assert [(n.start, n.end, n.derivations) for n in chart.nodes[2:]] == [
        (0, 1, [(0, (0,))]),
        (0, 2, [(1, (0, 4))]),
        (1, 2, [(0, (1,))]),
    ]
    assert_enumerated_in_order(chart)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_enumerator_order_on_random_grammars(seed):
    rng = random.Random(seed)
    rules, _ = random_case(rng)
    grammar = to_grammar(rules, rng)
    for _ in range(4):
        tags = [rng.choice(TERMINAL_POOL) for _ in range(rng.randint(1, 7))]
        assert_enumerated_in_order(parse(feature_tags(tags, rng), grammar))


TIED = Grammar(
    "S",
    (
        GrammarRule(Category("S"), (Category("x"), Category("A")), 1),
        GrammarRule(Category("A", {"f": "b"}), (Category("y"),), 1),
        GrammarRule(Category("A", {"f": "a"}), (Category("y"),), 1),
    ),
)


def test_tied_derivations_come_in_category_order():
    # S -> x A with x the head: A[f=b] and A[f=a] both span y, so S has
    # two derivations with the same rule and child ends.  The agenda
    # made A[f=b] first, from the earlier rule, and listed its tree
    # first; the enumerator orders the tie by the child's features, on
    # any grammar object, whatever ids its categories were given.
    expected = ["A[f=a]", "A[f=b]"]
    reference = reference_parser.complete_parses(reference_parser.parse(["x", "y"], TIED), "S")
    assert [t.children[1].category.label() for t in reference] == expected[::-1]
    warm = cold(TIED)
    for name in ("A", "S", "y", "x"):  # ids in another order than a cold parse gives
        warm.compiled.intern(Category(name, {"f": "a"} if name == "A" else {}))
    for grammar in (TIED, cold(TIED), warm):
        chart = parse(["x", "y"], grammar)
        trees = list_trees(chart, "S")
        assert [t.children[1].category.label() for t in trees] == expected
        assert first_parse(chart, "S") == trees[0]
        assert chunks(chart) == [trees[0]]
        assert [list(n.derivations) for n in chart.nodes if n.category.name == "S"] == [
            [(0, (0, 3)), (0, (0, 4))]
        ]
        assert [n.category.label() for n in chart.nodes[3:]] == expected


def test_feature_variants_of_start_symbol_all_enumerate():
    # Several roots rank by their least rule index, then by category.
    grammar = Grammar(
        "S",
        (
            GrammarRule(Category("S", {"m": "z"}), (Category("X"),), 1),
            GrammarRule(Category("S", {"m": "a"}), (Category("X"),), 1),
            GrammarRule(Category("S"), (Category("A"),), 1),
            GrammarRule(Category("A", {"f": "b"}), (Category("y"),), 1),
            GrammarRule(Category("A", {"f": "a"}), (Category("y"),), 1),
        ),
    )
    for tags, expected in ((["X"], ["S[m=z]", "S[m=a]"]), (["y"], ["S[f=a]", "S[f=b]"])):
        for g in (grammar, cold(grammar)):
            chart = parse(tags, g)
            trees = list_trees(chart, "S")
            assert [t.category.label() for t in trees] == expected
            assert first_parse(chart, "S") == trees[0]


def test_unary_cycle_terminates_everywhere():
    # Such grammars are rejected by bundle validation.  Handed one
    # directly, the parser still builds the chart, and every tree reader
    # refuses it, naming the first rule on the cycle.
    grammar = grammar_of(("A", ("B",)), ("B", ("A",)), ("B", ("x",)))
    chart = parse(["x", "x"], grammar)
    assert grammar.compiled.cycle_rules == (0, 1) and EN_GRAMMAR.compiled.cycle_rules == ()
    assert ("A", 0, 1) in chart_spans(chart) and ("B", 0, 1) in chart_spans(chart)
    refusal = re.escape("grammar/rule[1]: unary cycle through 'A'")
    for read in (chunks, lambda chart: first_parse(chart, "A"), lambda chart: count_trees(chart, "A")):
        with pytest.raises(ResourceError, match=refusal):
            read(chart)


def test_packed_chart_stays_small_under_massive_ambiguity():
    chart = parse(["N"] * 40, AMBIG_NP)
    # quadratic node count instead of Catalan blow-up
    assert len(chart.nodes) < 40 * 40 * 2
    assert count_trees(chart, "NP") == count_bracketings(40)


# The compiled grammar tables. Every parse with a grammar object shares
# its memo tables, so a warm parse must build exactly the chart a parse
# with a fresh, equal grammar object (empty tables) builds.


def cold(grammar: Grammar) -> Grammar:
    return Grammar(grammar.start_symbol, grammar.rules)


def node_list(chart):
    return [(n.category, n.start, n.end, list(n.derivations)) for n in chart.nodes]


def assert_enumerated_in_order(chart):
    """Leaves come first; each node's derivations are unique, ordered and recheck.

    The order is rule index, then child ends, then child categories'
    (name, features); no two derivations of a node may share all three.
    """
    nodes = chart.nodes
    assert [(n.start, n.end, n.derivations[0]) for n in nodes[: chart.length]] == [
        (i, i + 1, (None, ())) for i in range(chart.length)
    ]

    def key(deriv):
        rule, children = deriv
        kids = [nodes[c] for c in children]
        return (-1 if rule is None else rule, [k.end for k in kids],
                [(k.category.name, k.category.features) for k in kids])

    for node in nodes:
        keys = [key(deriv) for deriv in node.derivations]
        assert all(a < b for a, b in zip(keys, keys[1:])), node
    assert_derivations_recheck(chart)


def assert_derivations_recheck(chart):
    rules = chart.grammar.rules
    for node in chart.nodes:
        for rule_idx, children in node.derivations:
            if rule_idx is None:
                assert children == () and node.end == node.start + 1
                continue
            rule = rules[rule_idx]
            kids = [chart.nodes[c] for c in children]
            assert len(kids) == len(rule.rhs)
            assert [k.start for k in kids] == [node.start] + [k.end for k in kids[:-1]]
            assert kids[-1].end == node.end
            assert all(features_match(need, kid.category) for need, kid in zip(rule.rhs, kids))
            assert node.category == _parent_category(rule.lhs, kids[rule.head - 1].category)


def test_compiled_tables_are_per_grammar_object(de_core):
    base = de_core.grammar
    acc = next(
        i for i, r in enumerate(base.rules) if ("case", "acc") in r.lhs.features
    )
    changed = base.rules[acc]
    variant = Grammar(
        base.start_symbol,
        base.rules[:acc]
        + (GrammarRule(Category("NP", {"case": "gen"}), changed.rhs, changed.head),)
        + base.rules[acc + 1 :],
    )
    inputs = [
        ["DETN", "N", "V", "DETA", "N", "DETG", "N"],
        ["DETA", "N", "V", "DETN", "N", "DETG", "N", "DETG", "N"],
        ["DETA", "N", "DETG", "N", "DETA", "N", "DETG", "N"],
        ["DETG", "N"] * 5,
    ]
    differs = False
    for tags in inputs * 2:  # the second round runs on warm tables
        charts = []
        for grammar in (base, variant):
            chart = parse(tags, grammar)
            assert node_list(chart) == node_list(parse(tags, cold(grammar))), tags
            assert_derivations_recheck(chart)
            charts.append(node_list(chart))
        differs |= charts[0] != charts[1]
    assert differs  # the variant's one case value changes some chart


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_warm_tables_build_the_cold_chart_with_features(seed):
    rng = random.Random(seed)
    rules, _ = random_case(rng)
    grammar = to_grammar(rules, rng)
    inputs = [
        feature_tags([rng.choice(TERMINAL_POOL) for _ in range(rng.randint(1, 6))], rng)
        for _ in range(4)
    ]
    for tags in inputs * 2:
        chart = parse(tags, grammar)
        assert node_list(chart) == node_list(parse(tags, cold(grammar)))
        assert_derivations_recheck(chart)


def test_interned_ids_agree_across_threads():
    # parses on several threads may share one grammar's tables; each
    # category must get exactly one id, and that id must read it back
    compiled = cold(AMBIG_NP).compiled
    fresh = [Category("X", {"k": str(i)}) for i in range(300)]
    got: dict[int, list[int]] = {}

    def worker(n: int) -> None:
        order = fresh[n * 7 :] + fresh[: n * 7]
        ids = {c: compiled.intern(c) for c in order}
        got[n] = [ids[c] for c in fresh]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4 and all(ids == got[0] for ids in got.values())
    assert len(compiled.categories) == len(set(got[0])) == len(fresh)
    assert [compiled.categories[i] for i in got[0]] == fresh
