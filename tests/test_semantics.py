from __future__ import annotations

import ast
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xdoc.semantics
from xdoc.errors import UnknownConcept
from xdoc.parsing import ParseTree, first_parse, parse
from xdoc.resources import (
    Category,
    GF_SLOTS,
    GrammaticalFunction,
    Ontology,
    PatternItem,
    StructPattern,
)
from xdoc.semantics import (
    grammatical_functions,
    instantiate_frames,
    map_np_structure,
    semantic_tag,
    subsumes,
)
from xdoc.structure import Token
from xdoc.tagging import TaggedToken


def tagged_of(*pairs: tuple[str, str]) -> list[TaggedToken]:
    out = []
    offset = 0
    for i, (form, parser_tag) in enumerate(pairs):
        token = Token(i, form, offset, len(form.encode()))
        out.append(TaggedToken(token, parser_tag, parser_tag=parser_tag))
        offset += token.length + 1
    return out


def leaf(cat: str, pos: int, **features) -> ParseTree:
    return ParseTree(Category(cat, features), pos, pos + 1)


def node(cat: str, children: list[ParseTree], head: int = 0, **features) -> ParseTree:
    return ParseTree(
        Category(cat, features),
        children[0].start,
        children[-1].end,
        tuple(children),
        head=head,
    )


# -- semantic tagging


def test_suffix_rule_feeds_lexicon_lookup(en_bio):
    tagged = semantic_tag(tagged_of(("inhibits", "V")), en_bio)
    assert tagged[0].lemma == "inhibit"
    assert tagged[0].semclass == "inhibition"
    assert tagged[0].concept is None  # no lexmap for that class


def test_direct_lookup_casefolds_and_maps_concept(en_bio):
    tagged = semantic_tag(tagged_of(("Aspirin", "N")), en_bio)
    assert tagged[0].lemma == "aspirin"
    assert tagged[0].semclass == "substance"
    assert tagged[0].concept == "substance"


def test_unknown_form_keeps_annotations_absent(en_bio):
    tagged = semantic_tag(tagged_of(("the", "DET")), en_bio)
    assert tagged[0].lemma is None
    assert tagged[0].semclass is None
    assert tagged[0].concept is None


def test_lookup_is_pos_keyed(en_bio):
    # "inhibit" is listed as V only; under N it must not match.
    tagged = semantic_tag(tagged_of(("inhibit", "N")), en_bio)
    assert tagged[0].semclass is None


def test_stem_shorter_than_minimum_is_not_tried(en_bio):
    tagged = semantic_tag(tagged_of(("as", "N")), en_bio)  # stem "a" < minstem 3
    assert tagged[0].lemma is None


def test_semantic_tag_preserves_tokens_and_tags(en_bio):
    before = tagged_of(("Aspirin", "N"), ("inhibits", "V"))
    after = semantic_tag(before, en_bio)
    assert [t.token for t in after] == [t.token for t in before]
    assert [t.parser_tag for t in after] == [t.parser_tag for t in before]


# -- subsumption


def test_subsumes_is_reflexive(en_bio):
    for concept in en_bio.ontology.concepts:
        assert subsumes(en_bio.ontology, concept, concept)


def test_subsumes_follows_isa_chain(en_bio):
    assert subsumes(en_bio.ontology, "entity", "enzyme")


def test_subsumes_has_no_downward_reachability(en_bio):
    assert not subsumes(en_bio.ontology, "enzyme", "substance")


def test_subsumes_unknown_concept_raises(en_bio):
    with pytest.raises(UnknownConcept):
        subsumes(en_bio.ontology, "entity", "unobtanium")


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    concepts = [f"c{i}" for i in range(n)]
    isa = {}
    for i in range(1, n):
        parents = draw(
            st.sets(st.sampled_from(concepts[:i]), max_size=min(3, i))
        )
        if parents:
            isa[concepts[i]] = frozenset(parents)
    return Ontology(frozenset(concepts), isa, {})


@given(random_dags(), st.data())
@settings(max_examples=200)
def test_subsumes_matches_brute_force_reachability(ontology, data):
    concepts = sorted(ontology.concepts)
    ancestor = data.draw(st.sampled_from(concepts))
    descendant = data.draw(st.sampled_from(concepts))

    # independent oracle: exhaustive path enumeration
    def reachable(frm: str, to: str, seen=()) -> bool:
        if frm == to:
            return True
        return any(
            reachable(parent, to, seen + (frm,))
            for parent in ontology.parents(frm)
            if parent not in seen
        )

    assert subsumes(ontology, ancestor, descendant) == reachable(descendant, ancestor)


@given(random_dags(), st.data())
@settings(max_examples=100)
def test_subsumes_is_a_partial_order(ontology, data):
    concepts = sorted(ontology.concepts)
    a = data.draw(st.sampled_from(concepts))
    b = data.draw(st.sampled_from(concepts))
    c = data.draw(st.sampled_from(concepts))
    # antisymmetry (guaranteed by acyclicity)
    if subsumes(ontology, a, b) and subsumes(ontology, b, a):
        assert a == b
    # transitivity
    if subsumes(ontology, a, b) and subsumes(ontology, b, c):
        assert subsumes(ontology, a, c)


# -- grammatical functions


def svo_tree() -> ParseTree:
    return node(
        "S",
        [
            node("NP", [leaf("N", 0)]),
            node("VP", [leaf("V", 1), node("NP", [leaf("N", 2)])]),
        ],
        head=1,
    )


# The two declaration styles the shipped bundles use: en-bio places its
# functions around the verb, de-core marks them by case.
POSITIONAL = (
    GrammaticalFunction("subject", Category("NP"), before="VP"),
    GrammaticalFunction("object", Category("NP"), after="V"),
)
CASE_MARKED = (
    GrammaticalFunction("subject", Category("NP", {"case": "nom"})),
    GrammaticalFunction("object", Category("NP", {"case": "acc"})),
)


def test_positional_subject_and_object():
    functions = grammatical_functions(svo_tree(), POSITIONAL)
    assert (functions["subject"].start, functions["subject"].end) == (0, 1)
    assert (functions["object"].start, functions["object"].end) == (2, 3)


def test_positional_without_object():
    tree = node("S", [node("NP", [leaf("N", 0)]), node("VP", [leaf("V", 1)])], head=1)
    functions = grammatical_functions(tree, POSITIONAL)
    assert "subject" in functions
    assert "object" not in functions


def test_positional_without_vp_binds_nothing():
    tree = node("S", [node("NP", [leaf("N", 0)])])
    assert grammatical_functions(tree, POSITIONAL) == {}


def test_case_marked_subject_found_postverbally():
    tree = node(
        "S",
        [
            node("NP", [leaf("DETA", 0), leaf("N", 1)], head=1, case="acc"),
            node(
                "VP",
                [leaf("V", 2), node("NP", [leaf("DETN", 3), leaf("N", 4)], head=1, case="nom")],
            ),
        ],
        head=1,
    )
    functions = grammatical_functions(tree, CASE_MARKED)
    assert (functions["subject"].start, functions["subject"].end) == (3, 5)
    assert (functions["object"].start, functions["object"].end) == (0, 2)


def test_first_node_in_preorder_binds_and_the_root_has_no_siblings():
    inner = node("NP", [node("NP", [leaf("N", 0)], case="nom"), leaf("X", 1)], case="nom")
    tree = node("NP", [inner, leaf("VP", 2)], case="nom")
    by_case = grammatical_functions(tree, CASE_MARKED[:1])
    assert by_case["subject"] is tree
    # the root cannot meet a sibling condition, so its first child binds
    placed = grammatical_functions(tree, POSITIONAL[:1])
    assert placed["subject"] is inner
    # a declared feature must be carried with its value
    assert grammatical_functions(tree, CASE_MARKED[1:]) == {}
    # one node may bind several functions
    both = (GrammaticalFunction("subject", Category("X")),
            GrammaticalFunction("object", Category("X"), after="NP"))
    assert grammatical_functions(tree, both) == {"subject": inner.children[1],
                                         "object": inner.children[1]}


def test_functions_bind_in_a_deep_tree_without_recursion():
    tree = leaf("N", 0)
    for _ in range(5000):
        tree = node("NP", [tree, leaf("V", 0)])
    functions = grammatical_functions(
        tree, (GrammaticalFunction("object", Category("V"), after="N"),)
    )
    assert functions["object"].category.name == "V"


# Random trees over a few names and features, some of them long unary or
# binary chains, and random declarations of every grammatical function.
TREE_NAMES = ("S", "NP", "VP", "N", "V")
TREE_FEATURES = (("case", "nom"), ("case", "acc"), ("num", "sg"))


def feature_sets(max_size: int = 2):
    return st.lists(st.sampled_from(TREE_FEATURES), max_size=max_size).map(dict)


@st.composite
def random_trees(draw) -> ParseTree:
    shapes = st.recursive(
        st.tuples(st.sampled_from(TREE_NAMES), feature_sets(), st.just(())),
        lambda kids: st.tuples(st.sampled_from(TREE_NAMES), feature_sets(),
                               st.lists(kids, min_size=1, max_size=3).map(tuple)),
        max_leaves=12,
    )
    shape = draw(shapes)
    links = st.tuples(st.sampled_from(TREE_NAMES), feature_sets(), st.sampled_from(TREE_NAMES), st.integers(0, 2))
    length = draw(st.integers(0, 40))
    for name, features, other, side in draw(st.lists(links, min_size=length, max_size=length)):
        leaf_shape = (other, {}, ())
        shape = (name, features, [(shape,), (shape, leaf_shape), (leaf_shape, shape)][side])

    def build(shape, start: int) -> ParseTree:
        name, features, kids = shape
        if not kids:
            return leaf(name, start, **features)
        children = []
        for kid in kids:
            children.append(build(kid, start))
            start = children[-1].end
        return node(name, children, **features)

    return build(shape, 0)


@st.composite
def random_declarations(draw) -> tuple[GrammaticalFunction, ...]:
    gfs = draw(st.lists(st.sampled_from(sorted(GF_SLOTS)), unique=True, min_size=1, max_size=len(GF_SLOTS)))
    sibling = st.none() | st.sampled_from(TREE_NAMES)
    return tuple(
        GrammaticalFunction(gf, Category(draw(st.sampled_from(TREE_NAMES)), draw(feature_sets(1))),
                            after=draw(sibling), before=draw(sibling))
        for gf in gfs
    )


def placed(tree: ParseTree, earlier=(), later=()):
    """Each node in pre-order, with the names of its earlier and its later siblings."""
    yield tree, earlier, later
    names = [kid.category.name for kid in tree.children]
    for i, kid in enumerate(tree.children):
        yield from placed(kid, names[:i], names[i + 1 :])


def first_selected(tree: ParseTree, function: GrammaticalFunction) -> ParseTree | None:
    """The first pre-order node ``function`` selects, found by trying every node."""
    needed = function.category
    for candidate, earlier, later in placed(tree):
        features = dict(candidate.category.features)
        if (candidate.category.name == needed.name
                and all(features.get(key) == value for key, value in needed.features)
                and (function.after is None or function.after in earlier)
                and (function.before is None or function.before in later)):
            return candidate
    return None


@given(random_trees(), random_declarations())
@settings(max_examples=100, deadline=None)
def test_each_function_binds_the_first_preorder_node_it_selects(tree, functions):
    expected = {f.gf: id(found) for f in functions if (found := first_selected(tree, f)) is not None}
    bound = grammatical_functions(tree, functions)
    assert {gf: id(found) for gf, found in bound.items()} == expected


def _shipped_names(*bundles) -> set[str]:
    """Every category name, feature key and feature value of ``bundles``."""
    names = set()
    for bundle in bundles:
        names |= set(bundle.tagset_map.values())
        cats = [cat for rule in bundle.grammar.rules for cat in (rule.lhs, *rule.rhs)]
        cats += [function.category for function in bundle.functions]
        for cat in cats:
            names.add(cat.name)
            names.update(item for pair in cat.features for item in pair)
        names.update(name for function in bundle.functions
                     for name in (function.after, function.before) if name)
    return names


def test_semantics_module_names_no_language(en_bio, de_core):
    tree = ast.parse(Path(xdoc.semantics.__file__).read_text(encoding="utf-8"))
    docstrings = set()
    for holder in [tree, *ast.walk(tree)]:
        if isinstance(holder, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = holder.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                docstrings.add(id(body[0].value))
    constants = {
        c.value for c in ast.walk(tree)
        if isinstance(c, ast.Constant) and isinstance(c.value, str) and id(c) not in docstrings
    }
    names = _shipped_names(en_bio, de_core)
    assert {"NP", "VP", "V", "case", "nom", "acc"} <= names
    assert not constants & names, sorted(constants & names)


# -- frame instantiation


def analyzed_sentence(text: str, bundle):
    from xdoc.structure import Sentence, segment
    from xdoc.tagging import apply_rules, initial_tag, map_tagset

    tokens, _ = segment(text, bundle.abbreviations)
    tagged = apply_rules(initial_tag(Sentence(0, tuple(tokens)), bundle), bundle.context_rules)
    words = [t for t in tagged if t.token.form not in ".,;:!?()\"'"]
    mapped = map_tagset(words, bundle.tagset_map)
    mapped = semantic_tag(mapped, bundle)
    chart = parse([(t.parser_tag, {}) for t in mapped], bundle.grammar)
    return first_parse(chart, bundle.grammar.start_symbol), mapped


def test_frame_instantiated_for_matching_sentence(en_bio):
    tree, mapped = analyzed_sentence("Aspirin inhibits cyclooxygenase .", en_bio)
    instances, diagnostics = instantiate_frames(tree, mapped, en_bio)
    assert diagnostics == []
    assert len(instances) == 1
    instance = instances[0]
    assert instance.case_frame is en_bio.frames[0]
    assert (instance.case_frame.id, instance.case_frame.relation) == ("inhibit-1", "inhibits")
    forms = {role: mapped_form(mapped, token_id) for role, (token_id, _) in instance.bindings.items()}
    assert forms == {"agent": "Aspirin", "patient": "cyclooxygenase"}
    assert instance.bindings["agent"][1] == "substance"
    assert instance.bindings["patient"][1] == "enzyme"


def mapped_form(mapped, token_id):
    return next(t.token.form for t in mapped if t.token.id == token_id)


def test_fill_constraint_violation_rejects_instance(en_bio):
    # water is a substance; the patient slot requires an enzyme
    tree, mapped = analyzed_sentence("Aspirin inhibits water .", en_bio)
    instances, diagnostics = instantiate_frames(tree, mapped, en_bio)
    assert instances == []
    assert [d.code for d in diagnostics] == ["ConstraintViolation"]


def test_verb_without_frame_yields_nothing(en_bio):
    mapped = semantic_tag(tagged_of(("drug", "N"), ("helps", "V"), ("enzyme", "N")), en_bio)
    instances, diagnostics = instantiate_frames(svo_tree(), mapped, en_bio)
    assert instances == []
    assert diagnostics == []


def test_missing_required_slot_is_diagnosed(en_bio):
    # no VP or NP sibling means no subject/object bindings under en-bio's declarations
    tree = node("NP", [leaf("N", 0), leaf("V", 1)])
    mapped = semantic_tag(tagged_of(("x", "N"), ("inhibits", "V")), en_bio)
    instances, diagnostics = instantiate_frames(tree, mapped, en_bio)
    assert instances == []
    assert [d.code for d in diagnostics] == ["MissingSlot"]


# -- noun phrase structure mapping


def test_np_of_pattern_yields_has_relation(en_bio):
    tagged = tagged_of(("liver", "N"), ("of", "PREP"), ("the", "DET"), ("patient", "N"))
    tree = node("NP", [leaf("N", 0), leaf("PREP", 1), leaf("DET", 2), leaf("N", 3)])
    relations = map_np_structure(tree, en_bio.struct_patterns, tagged)
    assert len(relations) == 1
    relation = relations[0]
    assert relation.name == "has"
    assert tagged[relation.arg1].token.form == "patient"
    assert tagged[relation.arg2].token.form == "liver"
    assert relation.source == "np-of"


def test_np_of_pattern_requires_surface_form():
    pattern = StructPattern(
        "np-of", "NP", (PatternItem("N"), PatternItem("PREP", "of"), PatternItem("N")), "has", 3, 1
    )
    tagged = tagged_of(("liver", "N"), ("in", "PREP"), ("patient", "N"))
    tree = node("NP", [leaf("N", 0), leaf("PREP", 1), leaf("N", 2)])
    assert map_np_structure(tree, [pattern], tagged) == []


def test_noun_noun_pattern():
    pattern = StructPattern("nn", "NP", (PatternItem("N"), PatternItem("N")), "has", 1, 2)
    tagged = tagged_of(("enzyme", "N"), ("activity", "N"))
    tree = node("NP", [leaf("N", 0), leaf("N", 1)])
    relations = map_np_structure(tree, [pattern], tagged)
    assert len(relations) == 1
    assert (relations[0].arg1, relations[0].arg2) == (0, 1)


def test_tree_without_match_yields_nothing(en_bio):
    tree, mapped = analyzed_sentence("Aspirin inhibits cyclooxygenase .", en_bio)
    assert map_np_structure(tree, en_bio.struct_patterns, mapped) == []


def test_matching_is_applied_recursively():
    pattern = StructPattern("nn", "NP", (PatternItem("N"), PatternItem("N")), "has", 1, 2)
    tagged = tagged_of(("a", "N"), ("b", "N"), ("c", "N"), ("d", "N"))
    inner = node("NP", [leaf("N", 2), leaf("N", 3)])
    outer = node("X", [node("NP", [leaf("N", 0), leaf("N", 1)]), inner])
    relations = map_np_structure(outer, [pattern], tagged)
    assert [(r.arg1, r.arg2) for r in relations] == [(0, 1), (2, 3)]


def test_unmatched_siblings_do_not_disturb_matches():
    pattern = StructPattern("nn", "NP", (PatternItem("N"), PatternItem("N")), "has", 1, 2)
    tagged = tagged_of(("a", "N"), ("b", "N"), ("x", "V"))
    with_sibling = node("X", [node("NP", [leaf("N", 0), leaf("N", 1)]), leaf("V", 2)])
    alone = node("NP", [leaf("N", 0), leaf("N", 1)])
    assert map_np_structure(with_sibling, [pattern], tagged) == map_np_structure(
        alone, [pattern], tagged
    )


def test_emitted_instance_satisfies_frame_invariants(en_bio):
    tree, mapped = analyzed_sentence("Aspirin inhibits cyclooxygenase .", en_bio)
    instances, _ = instantiate_frames(tree, mapped, en_bio)
    assert instances
    for instance in instances:
        frame = instance.case_frame
        assert frame in en_bio.frames
        roles = {slot.role for slot in frame.slots}
        assert set(instance.bindings) <= roles
        for slot in frame.slots:
            if slot.required:
                assert slot.role in instance.bindings
            if slot.role in instance.bindings:
                _, concept = instance.bindings[slot.role]
                assert subsumes(en_bio.ontology, slot.fill_concept, concept)


def test_optional_slot_stays_unbound_without_constituent(en_bio):
    from xdoc.resources import CaseFrame, FrameSlot

    frame = CaseFrame(
        "inhibit-opt",
        "inhibit",
        "inhibits",
        (
            FrameSlot("agent", "subject", "substance", True),
            FrameSlot("patient", "object", "enzyme", False),
        ),
    )
    bundle = replace(en_bio, frames=(frame,))
    tree = node("S", [node("NP", [leaf("N", 0)]), node("VP", [leaf("V", 1)])], head=1)
    mapped = semantic_tag(tagged_of(("Aspirin", "N"), ("inhibits", "V")), bundle)
    instances, diagnostics = instantiate_frames(tree, mapped, bundle)
    assert diagnostics == []
    assert len(instances) == 1
    assert set(instances[0].bindings) == {"agent"}


def test_bundle_without_frames_yields_nothing(en_bio):
    bundle = replace(en_bio, frames=())
    mapped = semantic_tag(tagged_of(("Aspirin", "N"), ("inhibits", "V")), bundle)
    assert instantiate_frames(svo_tree(), mapped, bundle) == ([], [])


def test_relation_arguments_must_differ():
    from xdoc.semantics import Relation

    with pytest.raises(ValueError):
        Relation("has", 3, 3, "p")
