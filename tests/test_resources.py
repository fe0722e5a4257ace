from __future__ import annotations

import random
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from bundlegen import random_bundle
from xdoc.errors import CyclicOntology, MalformedResource
from xdoc.resources import (
    CaseFrame,
    Category,
    FrameSlot,
    Grammar,
    GrammarRule,
    GrammaticalFunction,
    Ontology,
    PatternItem,
    ResourceBundle,
    SemLexEntry,
    StructPattern,
    load_bundle,
    loads_bundle,
    serialize_bundle,
    validate_bundle,
)


def test_minimal_document_loads_empty_sections():
    bundle = loads_bundle('<resources lang="en"/>')
    assert bundle.lang == "en"
    assert bundle.abbreviations == frozenset()
    assert bundle.tag_lexicon == {}
    assert bundle.default_tag is None
    assert bundle.context_rules == ()
    assert bundle.tagset_map == {}
    assert bundle.grammar.rules == ()
    assert bundle.sem_lexicon == ()
    assert bundle.frames == ()
    assert bundle.ontology.concepts == frozenset()
    assert bundle.struct_patterns == ()


def test_en_bio_fixture_counts(en_bio):
    assert len(en_bio.frames) == 1
    assert en_bio.frames[0].id == "inhibit-1"
    assert len(en_bio.tagset_map) == 5
    assert len(en_bio.grammar.rules) == 4


def test_missing_required_attribute_is_rejected():
    doc = '<resources lang="en"><tagmap><map from="NN"/></tagmap></resources>'
    with pytest.raises(MalformedResource) as exc:
        loads_bundle(doc)
    assert "to" in str(exc.value)


def test_unknown_element_is_rejected():
    with pytest.raises(MalformedResource):
        loads_bundle('<resources lang="en"><bogus/></resources>')


def test_not_xml_is_rejected():
    with pytest.raises(MalformedResource):
        loads_bundle("this is not xml")


def test_missing_lang_is_rejected():
    with pytest.raises(MalformedResource):
        loads_bundle("<resources/>")


def test_cyclic_ontology_is_rejected():
    doc = """<resources lang="en"><ontology>
        <concept id="a"><isa ref="b"/></concept>
        <concept id="b"><isa ref="a"/></concept>
    </ontology></resources>"""
    with pytest.raises(CyclicOntology):
        loads_bundle(doc)


def test_dangling_isa_target_is_rejected_at_load():
    doc = """<resources lang="en"><ontology>
        <concept id="a"><isa ref="missing"/></concept>
    </ontology></resources>"""
    with pytest.raises(MalformedResource):
        loads_bundle(doc)


def test_duplicate_semlex_entry_is_rejected():
    doc = """<resources lang="en"><semlex>
        <entry lemma="run" pos="V" semclass="x"/>
        <entry lemma="run" pos="V" semclass="y"/>
    </semlex></resources>"""
    with pytest.raises(MalformedResource):
        loads_bundle(doc)


def test_head_index_out_of_bounds_is_rejected():
    doc = """<resources lang="en"><grammar start="S">
        <rule lhs="S" head="3"><cat name="A"/></rule>
    </grammar></resources>"""
    with pytest.raises(MalformedResource):
        loads_bundle(doc)


def test_declared_case_feature_must_occur_in_the_grammar():
    doc = """<resources lang="de">
      <taglexicon default="NN"/>
      <tagmap><map from="NN" to="N"/></tagmap>
      <grammar start="S"><rule lhs="S" head="1"><cat name="N"/></rule></grammar>
      <functions><function gf="subject"><cat name="S" case="nom"/></function></functions>
    </resources>"""
    findings = validate_bundle(loads_bundle(doc))
    assert [(f.code, f.location, f.detail) for f in findings] == [
        ("UnknownFunctionFeature", "functions/function[subject]",
         "feature case=nom is carried by no grammar category")
    ]


def test_validate_fixtures_clean(en_bio, de_core):
    assert validate_bundle(en_bio) == []
    assert validate_bundle(de_core) == []


def test_validate_is_pure(en_bio):
    assert validate_bundle(en_bio) == validate_bundle(en_bio)


def test_validate_dangling_fill_concept():
    doc = """<resources lang="en">
      <taglexicon default="VBZ"/>
      <tagmap><map from="VBZ" to="V"/></tagmap>
      <functions><function gf="subject" before="V"><cat name="V"/></function></functions>
      <semlex><entry lemma="inhibit" pos="V" semclass="x"/></semlex>
      <frames><frame id="f" predicate="inhibit" relation="r">
        <slot role="a" gf="subject" fill="enzymeX" required="true"/>
      </frame></frames>
      <ontology><concept id="enzyme"/></ontology>
    </resources>"""
    findings = validate_bundle(loads_bundle(doc))
    assert [f.code for f in findings] == ["DanglingConceptRef"]


def test_validate_unreachable_terminal():
    doc = """<resources lang="en">
      <taglexicon default="NN"/>
      <tagmap><map from="NN" to="N"/></tagmap>
      <grammar start="S">
        <rule lhs="S" head="1"><cat name="N"/><cat name="ADJ"/></rule>
      </grammar>
    </resources>"""
    findings = validate_bundle(loads_bundle(doc))
    assert [f.code for f in findings] == ["UnreachableTerminal"]
    assert "ADJ" in findings[0].location


def test_validate_unmappable_lexicon_and_rule_tags():
    doc = """<resources lang="en">
      <taglexicon default="NN"><w form="run" tags="VB"/></taglexicon>
      <rules><rule from="NN" to="JJ" trigger="prev_tag" value="DT"/></rules>
      <tagmap><map from="NN" to="N"/></tagmap>
    </resources>"""
    findings = validate_bundle(loads_bundle(doc))
    codes = sorted(f.code for f in findings)
    assert codes == ["UnmappableLexiconTag", "UnmappableRuleTag"]


def test_validate_unknown_semlex_pos():
    doc = """<resources lang="en">
      <taglexicon default="NN"/>
      <tagmap><map from="NN" to="N"/></tagmap>
      <semlex><entry lemma="x" pos="ADJ" semclass="c"/></semlex>
    </resources>"""
    findings = validate_bundle(loads_bundle(doc))
    assert [f.code for f in findings] == ["UnknownSemLexPos"]


def test_validate_unknown_function_categories_and_undeclared_functions():
    doc = """<resources lang="en">
      <taglexicon default="NN"/>
      <tagmap><map from="NN" to="N"/></tagmap>
      <grammar start="S"><rule lhs="S" head="1"><cat name="N"/></rule></grammar>
      <functions><function gf="object" after="V" before="N"><cat name="NP"/></function></functions>
      <semlex><entry lemma="x" pos="N" semclass="c"/></semlex>
      <frames><frame id="f" predicate="x" relation="r">
        <slot role="a" gf="subject" fill="c" required="true"/>
        <slot role="b" gf="object" fill="c" required="true"/>
      </frame></frames>
      <ontology><concept id="c"/></ontology>
    </resources>"""
    findings = validate_bundle(loads_bundle(doc))
    assert [(f.code, f.location, f.detail) for f in findings] == [
        ("UndeclaredFunction", "frames/frame[f]/slot[a]",
         "grammatical function 'subject' has no declaration"),
        ("UnknownFunctionCategory", "functions/function[object]",
         "category 'NP' is neither a rule lhs nor a parser tag"),
        ("UnknownFunctionCategory", "functions/function[object]",
         "category 'V' is neither a rule lhs nor a parser tag"),
    ]


def test_shipped_bundles_write_their_functions_after_the_grammar(en_bio, de_core):
    en, de = serialize_bundle(en_bio), serialize_bundle(de_core)
    assert '  <grammar start="S">\n' in en and '  <grammar start="S">\n' in de
    assert en.split("</grammar>\n")[1].startswith(
        "  <functions>\n"
        '    <function gf="subject" before="VP"><cat name="NP"/></function>\n'
        '    <function gf="object" after="V"><cat name="NP"/></function>\n'
        "  </functions>\n"
    )
    assert de.split("</grammar>\n")[1].startswith(
        "  <functions>\n"
        '    <function gf="subject"><cat name="NP" case="nom"/></function>\n'
        '    <function gf="object"><cat name="NP" case="acc"/></function>\n'
        "  </functions>\n"
    )


def test_validate_unknown_pattern_category():
    doc = """<resources lang="en">
      <taglexicon default="NN"/>
      <tagmap><map from="NN" to="N"/></tagmap>
      <structmap><pattern id="p" cat="XP" relation="has" arg1="1" arg2="2">
        <m name="N"/><m name="N"/>
      </pattern></structmap>
    </resources>"""
    findings = validate_bundle(loads_bundle(doc))
    assert [f.code for f in findings] == ["UnknownPatternCategory"]


def test_validate_unary_rule_cycle():
    doc = """<resources lang="en">
      <taglexicon default="T"/>
      <tagmap><map from="T" to="A"/></tagmap>
      <grammar start="A">
        <rule lhs="A" head="1"><cat name="B"/></rule>
        <rule lhs="B" head="1"><cat name="A"/></rule>
      </grammar>
    </resources>"""
    findings = validate_bundle(loads_bundle(doc))
    assert {f.code for f in findings} == {"UnaryRuleCycle"}
    assert len(findings) == 2


def test_validate_report_is_sorted_by_location():
    doc = """<resources lang="en">
      <taglexicon default="ZZ"><w form="b" tags="YY"/><w form="a" tags="XX"/></taglexicon>
      <tagmap><map from="NN" to="N"/></tagmap>
    </resources>"""
    findings = validate_bundle(loads_bundle(doc))
    locations = [f.location for f in findings]
    assert locations == sorted(locations)


def test_serialize_round_trip_fixture(en_bio, de_core):
    ruleless = loads_bundle('<resources lang="en"><grammar start="S"/></resources>')
    for bundle in (en_bio, de_core, ruleless):
        text = serialize_bundle(bundle)
        assert loads_bundle(text) == bundle


def test_serialize_is_byte_stable(de_core_path):
    a = serialize_bundle(load_bundle(de_core_path))
    b = serialize_bundle(load_bundle(de_core_path))
    assert a.encode("utf-8") == b.encode("utf-8")


def test_serialize_empty_bundle():
    bundle = loads_bundle('<resources lang="en"/>')
    assert serialize_bundle(bundle) == '<?xml version="1.0" encoding="UTF-8"?>\n<resources lang="en"/>\n'


@pytest.mark.parametrize("key", ["lhs", "head", "name"])
def test_serialize_refuses_reserved_rule_lhs_keys(key):
    # The rule cannot be built, so no bundle holding it reaches the writer.
    with pytest.raises(ValueError, match=rf"feature keys \['{key}'\] are reserved"):
        rule = GrammarRule(Category("S", {key: "x"}), (Category("A"),), 1)
        serialize_bundle(ResourceBundle(lang="en", grammar=Grammar("S", (rule,))))


@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("key", ["cat", "ref"])
def test_serialize_refuses_the_xml_writers_attribute_names(key, side):
    # emit_xml writes a parse node's features next to its own cat and ref
    # attributes, so a feature with either name would duplicate one.
    # GrammarRule refuses such a category, so neither the writer nor
    # analyze_text ever meets one.
    lhs = Category("S", {key: "x"} if side == "lhs" else {})
    rhs = Category("A", {key: "x"} if side == "rhs" else {})
    with pytest.raises(ValueError, match=rf"feature keys \['{key}'\] are reserved"):
        rule = GrammarRule(lhs, (rhs,), 1)
        serialize_bundle(ResourceBundle(lang="en", grammar=Grammar("S", (rule,))))


@pytest.mark.parametrize(
    "rule,location",
    [
        ('<rule lhs="S" head="2" {key}="x"><cat name="NP"/><cat name="VP"/></rule>', "rule[1]"),
        ('<rule lhs="S" head="2"><cat name="NP"/><cat name="VP" {key}="x"/></rule>', "rule[1]/cat[2]"),
    ],
    ids=["lhs", "rhs"],
)
@pytest.mark.parametrize("key", ["cat", "ref"])
def test_loader_refuses_the_xml_writers_attribute_names(en_bio_path, key, rule, location):
    with open(en_bio_path, encoding="utf-8") as f:
        document = f.read()
    shipped = '<rule lhs="S" head="2"><cat name="NP"/><cat name="VP"/></rule>'
    assert shipped in document
    with pytest.raises(MalformedResource) as exc:
        loads_bundle(document.replace(shipped, rule.format(key=key)))
    assert str(exc.value) == f"grammar/{location}: feature keys ['{key}'] are reserved"


def test_serialize_escapes_attribute_values():
    bundle = replace(
        loads_bundle('<resources lang="en"/>'),
        abbreviations=frozenset(['a"b.', "x&y.", "p<q."]),
    )
    text = serialize_bundle(bundle)
    assert loads_bundle(text) == bundle


def test_serialize_refuses_a_character_xml_cannot_carry():
    # The constructors let it pass; the one escaper refuses to write it.
    bundle = ResourceBundle("en", abbreviations=frozenset({"a\x01."}))
    with pytest.raises(ValueError, match="U\\+0001 in 'a\\\\x01.' cannot be written as XML"):
        serialize_bundle(bundle)


def test_round_trip_generated_bundles():
    rng = random.Random(20240817)
    for _ in range(25):
        bundle = random_bundle(rng)
        text = serialize_bundle(bundle)
        assert loads_bundle(text) == bundle


def test_serialized_fixture_reparses_as_xml(en_bio):
    root = ET.fromstring(serialize_bundle(en_bio))
    assert root.tag == "resources"
    assert root.get("lang") == "en"


def test_grammar_terminal_names():
    grammar = Grammar(
        "S",
        (
            GrammarRule(Category("S"), (Category("NP"), Category("VP")), 2),
            GrammarRule(Category("NP"), (Category("N"),), 1),
        ),
    )
    assert grammar.terminal_names() == {"VP", "N"}


def test_bundle_rejects_empty_lang():
    with pytest.raises(ValueError):
        ResourceBundle(lang="")


def test_validate_flags_lexicon_without_default():
    doc = """<resources lang="en">
      <taglexicon><w form="a" tags="NN"/></taglexicon>
      <tagmap><map from="NN" to="N"/></tagmap>
    </resources>"""
    findings = validate_bundle(loads_bundle(doc))
    assert [f.code for f in findings] == ["MissingDefaultTag"]



def test_validate_warns_on_empty_lexicon_without_default():
    doc = """<resources lang="en">
      <taglexicon capitalized="NN"/>
      <tagmap><map from="NN" to="N"/></tagmap>
    </resources>"""
    findings = validate_bundle(loads_bundle(doc))
    assert [(f.severity, f.code, f.location) for f in findings] == [
        ("warning", "MissingDefaultTag", "taglexicon")
    ]

BAD_DOCUMENTS = [
    ("<notresources/>", "root element"),
    ('<resources lang=""/>', "lang"),
    ('<resources lang="en"><abbreviations/><abbreviations/></resources>', "duplicate section"),
    ('<resources lang="en"><taglexicon><w form="a" tags=""/></taglexicon></resources>', "empty tag list"),
    ('<resources lang="en"><taglexicon><w form="a" tags="X"/><w form="a" tags="Y"/></taglexicon></resources>', "duplicate form"),
    ('<resources lang="en"><rules><rule from="A" to="A" trigger="prev_tag" value="X"/></rules></resources>', "differ"),
    ('<resources lang="en"><rules><rule from="A" to="B" trigger="sideways" value="X"/></rules></resources>', "trigger"),
    ('<resources lang="en"><rules><rule from="A" to="B" trigger="prev_tag" value=""/></rules></resources>', "non-empty"),
    ('<resources lang="en"><tagmap><map from="A" to="X"/><map from="A" to="Y"/></tagmap></resources>', "duplicate mapping"),
    ('<resources lang="en"><functions><function gf="sideways"><cat name="NP"/></function></functions></resources>', "grammatical function"),
    ('<resources lang="en"><grammar start="S"><rule lhs="S" head="x"><cat name="A"/></rule></grammar></resources>', "integer"),
    ('<resources lang="en"><grammar start="X"><rule lhs="S" head="1"><cat name="A"/></rule></grammar></resources>', "start symbol"),
    ('<resources lang="en"><grammar start="S"><rule lhs="S" head="1"><cat name="A" lhs="x"/></rule></grammar></resources>', "reserved"),
    ('<resources lang="en"><lemmarules><lemrule strip="" minstem="1"/></lemmarules></resources>', "strip"),
    ('<resources lang="en"><lemmarules><lemrule strip="s" minstem="-1"/></lemmarules></resources>', "non-negative"),
    ('<resources lang="en"><frames><frame id="f" predicate="p" relation="r"><slot role="a" gf="sideways" fill="c" required="true"/></frame></frames></resources>', "grammatical function"),
    ('<resources lang="en"><frames><frame id="f" predicate="p" relation="r"><slot role="a" gf="subject" fill="c" required="true"/><slot role="a" gf="object" fill="c" required="true"/></frame></frames></resources>', "duplicate role"),
    ('<resources lang="en"><frames><frame id="f" predicate="p" relation="r"><slot role="a" gf="subject" fill="c" required="true"/><slot role="b" gf="subject" fill="c" required="false"/></frame></frames></resources>', "gf"),
    ('<resources lang="en"><frames><frame id="f" predicate="p" relation="r"><slot role="a" gf="subject" fill="c" required="maybe"/></frame></frames></resources>', "true"),
    ('<resources lang="en"><ontology><concept id="a"/><concept id="a"/></ontology></resources>', "duplicate concept"),
    ('<resources lang="en"><ontology><concept id="a"/><lexmap semclass="s" concept="a"/><lexmap semclass="s" concept="a"/></ontology></resources>', "duplicate lexmap"),
    ('<resources lang="en"><structmap><pattern id="p" cat="NP" relation="r" arg1="1" arg2="1"><m name="A"/><m name="B"/></pattern></structmap></resources>', "distinct"),
    ('<resources lang="en"><structmap><pattern id="p" cat="NP" relation="r" arg1="1" arg2="5"><m name="A"/><m name="B"/></pattern></structmap></resources>', "bounds"),
]


@pytest.mark.parametrize("document,fragment", BAD_DOCUMENTS)
def test_malformed_documents_are_rejected_with_reason(document, fragment):
    with pytest.raises(MalformedResource) as exc:
        loads_bundle(document)
    assert fragment.lower() in str(exc.value).lower()


def _in_bundle(sections: str) -> str:
    return f'<resources lang="en">{sections}</resources>'


# Every BAD_DOCUMENTS entry and more single-fault documents, with the
# exact message (location and reason) the loader gives for each.
EXACT_MESSAGES = [
    *zip(
        [document for document, _ in BAD_DOCUMENTS],
        [
            "document: root element must be <resources>, got <notresources>",
            "resources: lang must be non-empty",
            "resources: duplicate section <abbreviations>",
            "taglexicon/w[1]: empty tag list",
            "taglexicon/w[2]: duplicate form 'a'",
            "rules/rule[1]: from and to tags must differ",
            "rules/rule[1]: unknown trigger 'sideways'",
            "rules/rule[1]: trigger value must be non-empty",
            "tagmap/map[2]: duplicate mapping for source tag 'A'",
            "functions/function[1]: unknown grammatical function 'sideways'",
            "grammar/rule[1]: attribute 'head' is not an integer: 'x'",
            "grammar: start symbol 'X' is not a rule left-hand side",
            "grammar/rule[1]/cat[1]: feature keys ['lhs'] are reserved",
            "lemmarules/lemrule[1]: empty strip suffix",
            "lemmarules/lemrule[1]: minstem must be non-negative",
            "frames/frame[1]/slot[1]: unknown grammatical function 'sideways'",
            "frames/frame[1]/slot[2]: duplicate role 'a'",
            "frames/frame[1]/slot[2]: more than one slot with gf 'subject'",
            "frames/frame[1]/slot[1]: attribute 'required' must be 'true' or 'false', got 'maybe'",
            "ontology/concept[2]: duplicate concept 'a'",
            "ontology/lexmap[2]: duplicate lexmap for semclass 's'",
            "structmap/pattern[1]: argument indices must be distinct",
            "structmap/pattern[1]: argument indices outside pattern bounds",
        ],
        strict=True,
    ),
    (
        _in_bundle('<rules><rule from="A" to="B" trigger="prev_tag"/></rules>'),
        "rules/rule[1]: missing required attribute 'value'",
    ),
    (
        _in_bundle('<grammar start="S"><rule head="1"><cat name="A"/></rule></grammar>'),
        "grammar/rule[1]: missing required attribute 'lhs'",
    ),
    (
        _in_bundle('<lemmarules><lemrule strip="s"/></lemmarules>'),
        "lemmarules/lemrule[1]: missing required attribute 'minstem'",
    ),
    (
        _in_bundle('<semlex><entry lemma="a" semclass="c"/></semlex>'),
        "semlex/entry[1]: missing required attribute 'pos'",
    ),
    (
        _in_bundle(
            '<frames><frame id="f" predicate="p" relation="r">'
            '<slot role="a" gf="subject" required="true"/></frame></frames>'
        ),
        "frames/frame[1]/slot[1]: missing required attribute 'fill'",
    ),
    (
        _in_bundle(
            '<frames><frame id="f" relation="r">'
            '<slot role="a" gf="subject" fill="c" required="true"/></frame></frames>'
        ),
        "frames/frame[1]: missing required attribute 'predicate'",
    ),
    (
        _in_bundle(
            '<structmap><pattern id="p" relation="r" arg1="1" arg2="2">'
            '<m name="A"/><m name="B"/></pattern></structmap>'
        ),
        "structmap/pattern[1]: missing required attribute 'cat'",
    ),
    (
        _in_bundle(
            '<structmap><pattern id="p" cat="NP" relation="r" arg1="1" arg2="2">'
            '<m name="A"/><m form="b"/></pattern></structmap>'
        ),
        "structmap/pattern[1]/m[2]: missing required attribute 'name'",
    ),
    (
        _in_bundle('<lemmarules><lemrule strip="s" minstem="two"/></lemmarules>'),
        "lemmarules/lemrule[1]: attribute 'minstem' is not an integer: 'two'",
    ),
    (
        _in_bundle(
            '<structmap><pattern id="p" cat="NP" relation="r" arg1="first" arg2="2">'
            '<m name="A"/><m name="B"/></pattern></structmap>'
        ),
        "structmap/pattern[1]: attribute 'arg1' is not an integer: 'first'",
    ),
    (
        _in_bundle(
            '<grammar start="S"><rule lhs="S" name="x" head="1"><cat name="A"/></rule></grammar>'
        ),
        "grammar/rule[1]: feature key 'name' is reserved",
    ),
    (
        _in_bundle(
            '<semlex><entry lemma="a" pos="N" semclass="c"/>'
            '<entry lemma="a" pos="N" semclass="d"/></semlex>'
        ),
        "semlex/entry[2]: duplicate entry for ('a', 'N')",
    ),
    (
        _in_bundle('<functions><function gf="subject"/></functions>'),
        "functions/function[1]: expected one <cat>, got 0",
    ),
    (
        _in_bundle('<functions><function before="VP"><cat name="NP"/></function></functions>'),
        "functions/function[1]: missing required attribute 'gf'",
    ),
    (
        _in_bundle('<functions><function gf="object"><cat name="NP" cat="x"/></function></functions>'),
        "functions/function[1]: feature keys ['cat'] are reserved",
    ),
    # Past the first record of each reader that forms its location only
    # when it refuses a record.
    (
        _in_bundle('<taglexicon><w form="a" tags="X"/><w form="b" tags="Y"/><w form="c"/></taglexicon>'),
        "taglexicon/w[3]: missing required attribute 'tags'",
    ),
    (
        _in_bundle('<abbreviations><abbr form="Dr."/><abbr/></abbreviations>'),
        "abbreviations/abbr[2]: missing required attribute 'form'",
    ),
    (
        _in_bundle(
            '<semlex><entry lemma="a" pos="N" semclass="c"/><entry lemma="b" pos="N" semclass="c"/>'
            '<entry lemma="a" pos="N" semclass="d"/></semlex>'
        ),
        "semlex/entry[3]: duplicate entry for ('a', 'N')",
    ),
    (
        _in_bundle(
            '<rules><rule from="A" to="B" trigger="prev_tag" value="X"/>'
            '<rule from="A" to="B" trigger="sideways" value="X"/></rules>'
        ),
        "rules/rule[2]: unknown trigger 'sideways'",
    ),
    (
        _in_bundle(
            '<frames><frame id="f" predicate="p" relation="r">'
            '<slot role="a" gf="subject" fill="c" required="true"/></frame>'
            '<frame id="g" predicate="q" relation="r">'
            '<slot role="a" gf="subject" fill="c" required="true"/>'
            '<slot role="b" gf="object" required="true"/></frame></frames>'
        ),
        "frames/frame[2]/slot[2]: missing required attribute 'fill'",
    ),
    # An attribute the record table does not declare is refused, not
    # ignored: a misspelled optional attribute would load as a weaker
    # declaration, and a stale one would pass unnoticed.
    (
        _in_bundle('<functions><function gf="subject" befor="VP"><cat name="NP"/></function></functions>'),
        "functions/function[1]: unknown attribute 'befor'",
    ),
    (
        _in_bundle(
            '<functions><function gf="subject" before="VP"><cat name="NP"/></function>'
            '<function gf="object" after="V" befor="N"><cat name="NP"/></function></functions>'
        ),
        "functions/function[2]: unknown attribute 'befor'",
    ),
    (
        _in_bundle('<grammar start="S" gf="case-marked"><rule lhs="S" head="1"><cat name="A"/></rule></grammar>'),
        "grammar: unknown attribute 'gf'",
    ),
    (
        _in_bundle(
            '<semlex><entry lemma="a" pos="N" semclass="c"/>'
            '<entry lemma="b" pos="N" semclass="c" sense="2"/></semlex>'
        ),
        "semlex/entry[2]: unknown attribute 'sense'",
    ),
    (
        _in_bundle(
            '<frames><frame id="f" predicate="p" relation="r">'
            '<slot role="a" gf="subject" fill="c" required="true" optional="no"/></frame></frames>'
        ),
        "frames/frame[1]/slot[1]: unknown attribute 'optional'",
    ),
    (
        _in_bundle('<structmap><pattern id="p" cat="NP" relation="r" arg1="1" arg2="2">'
                   '<m name="A"/><m name="B" lemma="b"/></pattern></structmap>'),
        "structmap/pattern[1]/m[2]: unknown attribute 'lemma'",
    ),
    # Every other element refuses an undeclared attribute too: the root,
    # each section and each keyed record.  A misspelled capitalized tag
    # would otherwise load as none.
    (
        '<resources lang="en" version="2"/>',
        "resources: unknown attribute 'version'",
    ),
    (
        _in_bundle('<taglexicon default="NN" capitalised="NNP"><w form="a" tags="NN"/></taglexicon>'),
        "taglexicon: unknown attribute 'capitalised'",
    ),
    (
        _in_bundle('<tagmap sorce="PTB"><map from="NN" to="N"/></tagmap>'),
        "tagmap: unknown attribute 'sorce'",
    ),
    (
        _in_bundle('<semlex lang="de"><entry lemma="a" pos="N" semclass="c"/></semlex>'),
        "semlex: unknown attribute 'lang'",
    ),
    (
        _in_bundle('<rules order="x"><rule from="A" to="B" trigger="prev_tag" value="X"/></rules>'),
        "rules: unknown attribute 'order'",
    ),
    (
        _in_bundle('<functions gf="positional"><function gf="subject"><cat name="NP"/></function></functions>'),
        "functions: unknown attribute 'gf'",
    ),
    (
        _in_bundle('<abbreviations lang="en"><abbr form="Dr."/></abbreviations>'),
        "abbreviations: unknown attribute 'lang'",
    ),
    (
        _in_bundle('<lemmarules order="longest"><lemrule strip="s" minstem="3"/></lemmarules>'),
        "lemmarules: unknown attribute 'order'",
    ),
    (
        _in_bundle('<frames lang="en"/>'),
        "frames: unknown attribute 'lang'",
    ),
    (
        _in_bundle('<ontology root="entity"><concept id="entity"/></ontology>'),
        "ontology: unknown attribute 'root'",
    ),
    (
        _in_bundle('<structmap lang="en"/>'),
        "structmap: unknown attribute 'lang'",
    ),
    (
        _in_bundle('<abbreviations><abbr form="Dr."/><abbr form="e.g." lang="en"/></abbreviations>'),
        "abbreviations/abbr[2]: unknown attribute 'lang'",
    ),
    (
        _in_bundle('<taglexicon><w form="a" tags="NN" lemma="a"/></taglexicon>'),
        "taglexicon/w[1]: unknown attribute 'lemma'",
    ),
    (
        _in_bundle('<tagmap><map from="NN" to="N"/><map from="NNS" to="N" number="pl"/></tagmap>'),
        "tagmap/map[2]: unknown attribute 'number'",
    ),
    (
        _in_bundle('<ontology><concept id="a" label="A"/></ontology>'),
        "ontology/concept[1]: unknown attribute 'label'",
    ),
    (
        _in_bundle('<ontology><concept id="a"><isa ref="b" kind="part"/></concept><concept id="b"/></ontology>'),
        "ontology/concept[1]/isa[1]: unknown attribute 'kind'",
    ),
    (
        _in_bundle('<ontology><concept id="a"/><lexmap semclass="s" concept="a" weight="1"/></ontology>'),
        "ontology/lexmap[1]: unknown attribute 'weight'",
    ),
    # The loader messages of the keyed records, pinned.
    (
        _in_bundle('<ontology><concept id="a"/><concept id="b"><isa ref="a"/><isa ref="x"/></concept></ontology>'),
        "ontology/concept[2]/isa[2]: isa target 'x' is not a concept",
    ),
    (
        _in_bundle('<ontology><concept id="a"/><lexmap semclass="s" concept="a"/>'
                   '<lexmap semclass="t" concept="x"/></ontology>'),
        "ontology/lexmap[2]: lexmap target 'x' is not a concept",
    ),
    (
        _in_bundle('<ontology><concept id="a"/><concept/></ontology>'),
        "ontology/concept[2]: missing required attribute 'id'",
    ),
    (
        _in_bundle('<tagmap><map from="NN" to="N"/><map from="NNS"/></tagmap>'),
        "tagmap/map[2]: missing required attribute 'to'",
    ),
    (
        "<resources/>",
        "resources: missing required attribute 'lang'",
    ),
    # A tagset-map target names a parser category, so it cannot be empty.
    (
        _in_bundle('<tagmap><map from="NN" to="N"/><map from="XX" to=""/></tagmap>'),
        "tagmap/map[2]: empty target tag",
    ),
    # A set member, like any other key, is declared once.
    (
        _in_bundle('<abbreviations><abbr form="Dr."/><abbr form="Dr."/></abbreviations>'),
        "abbreviations/abbr[2]: duplicate abbreviation 'Dr.'",
    ),
    (
        _in_bundle('<ontology><concept id="a"><isa ref="b"/><isa ref="b"/></concept><concept id="b"/></ontology>'),
        "ontology/concept[1]/isa[2]: duplicate isa target 'b'",
    ),
    # A leaf record holds no element and no text.
    (
        _in_bundle('<semlex><entry lemma="a" pos="N" semclass="c"><bogus/></entry></semlex>'),
        "semlex/entry[1]: unexpected element <bogus>",
    ),
    (
        _in_bundle('<grammar start="S"><rule lhs="S" head="1"><cat name="A">junk text</cat></rule></grammar>'),
        "grammar/rule[1]/cat[1]: unexpected text 'junk text'",
    ),
    (
        _in_bundle('<abbreviations><abbr form="x">text<y/></abbr></abbreviations>'),
        "abbreviations/abbr[1]: unexpected element <y>",
    ),
    # An element that holds records holds no text either, before its
    # first child or after any child; the latter is refused at that child.
    (
        _in_bundle('<ontology><concept id="entity">junk</concept></ontology>'),
        "ontology/concept[1]: unexpected text 'junk'",
    ),
    (
        _in_bundle('<semlex>junk<entry lemma="a" pos="N" semclass="c"/></semlex>'),
        "semlex: unexpected text 'junk'",
    ),
    (
        _in_bundle('<semlex><entry lemma="a" pos="N" semclass="c"/> more </semlex>'),
        "semlex/entry[1]: unexpected text 'more' after the element",
    ),
    (
        _in_bundle('<frames><frame id="f" predicate="p" relation="r">'
                   '<slot role="a" gf="subject" fill="c" required="true"/>x</frame></frames>'),
        "frames/frame[1]/slot[1]: unexpected text 'x' after the element",
    ),
    (
        _in_bundle('<structmap><pattern id="p" cat="NP" relation="r" arg1="1" arg2="2">'
                   'junk<m name="A"/><m name="B"/></pattern></structmap>'),
        "structmap/pattern[1]: unexpected text 'junk'",
    ),
    (
        _in_bundle('<grammar start="S"><rule lhs="S" head="1"><cat name="A"/></rule>'
                   '<rule lhs="S" head="1">junk<cat name="B"/></rule></grammar>'),
        "grammar/rule[2]: unexpected text 'junk'",
    ),
    (
        _in_bundle('<ontology><concept id="a"/><lexmap semclass="s" concept="a"/>'
                   '<concept id="b"/>junk<lexmap semclass="t" concept="b"/></ontology>'),
        "ontology/concept[2]: unexpected text 'junk' after the element",
    ),
    ('<resources lang="en">junk<abbreviations/></resources>', "resources: unexpected text 'junk'"),
    (
        '<resources lang="en"><abbreviations/>junk</resources>',
        "abbreviations: unexpected text 'junk' after the element",
    ),
]


@pytest.mark.parametrize("document,message", EXACT_MESSAGES)
def test_malformed_document_messages_are_exact(document, message):
    with pytest.raises(MalformedResource) as exc:
        loads_bundle(document)
    assert str(exc.value) == message


def _located(elem: ET.Element, location: str):
    """``elem`` and every element below it, each with the location the loader names."""
    yield elem, location
    counts: dict[str, int] = {}
    for child in elem:
        counts[child.tag] = counts.get(child.tag, 0) + 1
        yield from _located(child, f"{location}/{child.tag}[{counts[child.tag]}]")


def _bundle_elements(root: ET.Element) -> list[tuple[ET.Element, str]]:
    return [(root, "resources"), *(pair for section in root for pair in _located(section, section.tag))]


def test_every_element_refuses_a_stray_attribute_but_features(en_bio, de_core):
    # Each element of both shipped bundles in turn carries zz="1".  Only a
    # grammar <rule> and a <cat> take it, as a feature of their category.
    tags = set()
    for bundle in (en_bio, de_core):
        text = serialize_bundle(bundle)
        for k in range(len(_bundle_elements(ET.fromstring(text)))):
            root = ET.fromstring(text)
            elem, location = _bundle_elements(root)[k]
            elem.set("zz", "1")
            document = ET.tostring(root, encoding="unicode")
            tags.add(elem.tag)
            if elem.tag == "cat" or location.startswith("grammar/"):
                i, *j = (int(n) - 1 for n in re.findall(r"\[(\d+)\]", location))
                loaded = loads_bundle(document)
                if location.startswith("functions/"):
                    category = loaded.functions[i].category
                else:
                    rule = loaded.grammar.rules[i]
                    category = rule.rhs[j[0]] if j else rule.lhs
                assert ("zz", "1") in category.features, location
            else:
                with pytest.raises(MalformedResource) as exc:
                    loads_bundle(document)
                assert str(exc.value) == f"{location}: unknown attribute 'zz'"
    assert tags == {
        "resources", "abbreviations", "abbr", "taglexicon", "w", "rules", "rule", "tagmap", "map",
        "grammar", "cat", "functions", "function", "lemmarules", "lemrule", "semlex", "entry",
        "frames", "frame", "slot", "ontology", "concept", "isa", "lexmap", "structmap", "pattern", "m",
    }


def test_every_leaf_element_refuses_content(en_bio, de_core):
    # Each leaf record and <cat> of both shipped bundles in turn holds a
    # stray element, then text; both are refused where the element
    # stands, as a stray attribute is.  Whitespace is not text.
    tags = set()
    for bundle in (en_bio, de_core):
        text = serialize_bundle(bundle)
        for k, (elem, location) in enumerate(_bundle_elements(ET.fromstring(text))):
            if len(elem) or location.count("/") == 0 or elem.tag == "concept":
                continue  # a section, or an element that may hold records
            tags.add(elem.tag)
            for content, reason in (("child", "unexpected element <bogus>"),
                                    ("junk text", "unexpected text 'junk text'"),
                                    (" \n ", None)):
                root = ET.fromstring(text)
                leaf = _bundle_elements(root)[k][0]
                if content == "child":
                    ET.SubElement(leaf, "bogus")
                else:
                    leaf.text = content
                document = ET.tostring(root, encoding="unicode")
                if reason is None:
                    assert loads_bundle(document) == bundle
                    continue
                with pytest.raises(MalformedResource) as exc:
                    loads_bundle(document)
                # A function's one <cat> is refused at its function, as
                # its attributes are.
                where = location.removesuffix("/cat[1]") if location.startswith("functions/") else location
                assert str(exc.value) == f"{where}: {reason}"
    assert tags == {"abbr", "w", "rule", "map", "cat", "lemrule", "entry", "slot", "isa", "lexmap", "m"}


RECORD_HOLDERS = [
    "resources", "abbreviations", "taglexicon", "rules", "tagmap", "grammar", "functions",
    "lemmarules", "semlex", "frames", "ontology", "structmap",
    "concept", "frame", "pattern", "grammar/rule", "function",
]


def _kind(location: str) -> str:
    """The element kind at ``location``: its tag, or ``grammar/rule`` for a grammar rule."""
    steps = location.split("/")
    tag = steps[-1].partition("[")[0]
    return "grammar/rule" if steps[0] == "grammar" and tag == "rule" else tag


@pytest.mark.parametrize("kind", RECORD_HOLDERS)
def test_every_element_that_holds_records_refuses_text(en_bio, de_core, kind):
    # Each element of this kind in both shipped bundles in turn holds text
    # before its first child, then after each child; the text is refused at
    # the element, or at the child it follows.  Whitespace is not text.
    seen = 0
    for bundle in (en_bio, de_core):
        text = serialize_bundle(bundle)
        for k, (_, location) in enumerate(_bundle_elements(ET.fromstring(text))):
            if _kind(location) != kind:
                continue
            seen += 1
            root = ET.fromstring(text)
            elements = _bundle_elements(root)
            where = {id(elem): at for elem, at in elements}
            holder = elements[k][0]
            faults = [(holder, "text", f"{location}: unexpected text 'junk'")]
            faults += [(child, "tail", f"{where[id(child)]}: unexpected text 'junk' after the element")
                       for child in holder]
            for elem, slot, message in faults:
                kept = getattr(elem, slot)
                setattr(elem, slot, "junk")
                with pytest.raises(MalformedResource) as exc:
                    loads_bundle(ET.tostring(root, encoding="unicode"))
                assert str(exc.value) == message
                setattr(elem, slot, kept)
            for elem, slot, _ in faults:
                setattr(elem, slot, " \n ")
            assert loads_bundle(ET.tostring(root, encoding="unicode")) == bundle
    assert seen


def test_unary_cycle_not_involving_all_rules():
    doc = """<resources lang="en">
      <tagmap><map from="T" to="A"/></tagmap>
      <grammar start="A">
        <rule lhs="A" head="1"><cat name="B"/></rule>
        <rule lhs="B" head="1"><cat name="C"/></rule>
        <rule lhs="C" head="1"><cat name="B"/></rule>
      </grammar>
    </resources>"""
    findings = validate_bundle(loads_bundle(doc))
    cycle_rules = [f.location for f in findings if f.code == "UnaryRuleCycle"]
    assert cycle_rules == ["grammar/rule[2]", "grammar/rule[3]"]


def test_empty_rule_body_is_rejected():
    doc = """<resources lang="en"><grammar start="S">
        <rule lhs="S" head="1"></rule>
    </grammar></resources>"""
    with pytest.raises(MalformedResource) as exc:
        loads_bundle(doc)
    assert "non-empty" in str(exc.value)


def test_rule_attribute_name_is_reserved():
    doc = """<resources lang="en"><grammar start="S">
        <rule lhs="S" name="x" head="1"><cat name="A"/></rule>
    </grammar></resources>"""
    with pytest.raises(MalformedResource):
        loads_bundle(doc)


def test_type_constructor_guards():
    with pytest.raises(ValueError):
        Category("")
    with pytest.raises(ValueError):
        Category("NP", (("case", "nom"), ("case", "acc")))
    with pytest.raises(ValueError):
        GrammarRule(Category("S"), (), 1)
    with pytest.raises(ValueError):
        GrammaticalFunction("sideways", Category("NP"))


def test_constructors_refuse_what_the_loader_refuses():
    rules = (GrammarRule(Category("S"), (Category("N"),), 1),)
    with pytest.raises(ValueError, match="start symbol 'X' is not a rule left-hand side"):
        Grammar("X", rules)
    twice = (GrammaticalFunction("subject", Category("NP"), before="VP"),
             GrammaticalFunction("subject", Category("NP", {"case": "nom"})))
    with pytest.raises(ValueError, match="more than one declaration of 'subject'"):
        ResourceBundle(lang="en", functions=twice)
    with pytest.raises(ValueError, match="more than one declaration of 'subject'"):
        ResourceBundle(lang="de", grammar=Grammar("S", rules), functions=twice[::-1])
    with pytest.raises(MalformedResource) as exc:
        loads_bundle(
            '<resources lang="de"><functions>'
            '<function gf="object"><cat name="NP"/></function>'
            '<function gf="subject" before="VP"><cat name="NP"/></function>'
            '<function gf="subject"><cat name="NP" case="nom"/></function>'
            "</functions></resources>"
        )
    assert str(exc.value) == "functions/function[3]: more than one declaration of 'subject'"


def test_serializer_rejects_reserved_feature_keys():
    from xdoc.resources import serialize_bundle as ser

    bundle = loads_bundle('<resources lang="en"/>')
    with pytest.raises(ValueError, match="reserved"):
        grammar = Grammar(
            "S", (GrammarRule(Category("S"), (Category("A", {"head": "x"}),), 1),)
        )
        ser(replace(bundle, grammar=grammar))


def test_lookup_tables_are_built_on_first_use_only(en_bio_path):
    bundle = load_bundle(en_bio_path)
    validate_bundle(bundle)
    lazy = ("sem_lexicon_index", "frames_by_lemma")
    assert not set(lazy) & set(vars(bundle))
    assert "compiled" not in vars(bundle.grammar)
    assert bundle.sem_lexicon_index is bundle.sem_lexicon_index
    assert bundle.grammar.compiled is bundle.grammar.compiled
    assert bundle.sem_lexicon_index == {(e.lemma, e.pos): e for e in bundle.sem_lexicon}
    lemmas = {f.predicate_lemma for f in bundle.frames}
    assert bundle.frames_by_lemma == {
        lemma: tuple(f for f in bundle.frames if f.predicate_lemma == lemma) for lemma in lemmas
    }


def _slot(role: str, gf: str) -> FrameSlot:
    return FrameSlot(role, gf, "c", True)


# What loads_bundle refuses in a document, each constructor refuses in code,
# so no bundle built in code serializes to XML that does not load.
@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: ResourceBundle("en", tag_lexicon={"a": ("NN",), "b": ()}),
         ValueError, "empty tag list for form 'b'"),
        (lambda: ResourceBundle("en", tagset_map={"NN": "N", "XX": ""}),
         ValueError, "empty target tag for source tag 'XX'"),
        (lambda: ResourceBundle("en", sem_lexicon=(
            SemLexEntry("a", "N", "x"), SemLexEntry("b", "N", "x"), SemLexEntry("a", "N", "y"))),
         ValueError, r"duplicate entry for \('a', 'N'\)"),
        (lambda: Ontology(frozenset({"a"}), {"a": frozenset({"b"})}),
         ValueError, "isa target 'b' is not a concept"),
        (lambda: Ontology(frozenset({"a"}), {"b": frozenset({"a"})}),
         ValueError, "isa source 'b' is not a concept"),
        (lambda: Ontology(frozenset({"a"}), lexmap={"s": "b"}),
         ValueError, "lexmap target 'b' is not a concept"),
        (lambda: Ontology(frozenset({"a", "b"}), {"a": frozenset({"b"}), "b": frozenset({"a"})}),
         CyclicOntology, "isa cycle"),
        (lambda: CaseFrame("f", "p", "r", (_slot("a", "subject"), _slot("b", "subject"))),
         ValueError, "more than one slot with gf 'subject'"),
        (lambda: CaseFrame("f", "p", "r", (_slot("a", "subject"), _slot("a", "object"))),
         ValueError, "duplicate role 'a'"),
        (lambda: GrammaticalFunction("subject", Category("NP", {"name": "x"})),
         ValueError, r"feature keys \['name'\] are reserved"),
        (lambda: CaseFrame("f", "p", "in\thibits", (_slot("a", "subject"),)),
         ValueError, re.escape(r"relation 'in\thibits' holds U+0009")),
        (lambda: StructPattern("p", "NP", (PatternItem("N"), PatternItem("N")), "h\u2028as", 1, 2),
         ValueError, re.escape(r"relation 'h\u2028as' holds U+2028")),
        (lambda: Ontology(frozenset({"a", "b\nc", "b\rc"})),
         ValueError, re.escape(r"concept id 'b\nc' holds U+000A")),
    ],
    ids=["untagged-form", "empty-map-target", "semlex-pair", "isa-target", "isa-source", "lexmap-target",
         "isa-cycle", "slot-gf", "slot-role", "function-cat", "frame-relation-tab",
         "pattern-relation-break", "concept-id-break"],
)
def test_constructors_refuse_what_the_loader_refuses_in_code(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("char", ["\t", "\n", "\r", "\x85", "\u2028", "\u2029"])
@pytest.mark.parametrize(
    "old,new,location,what",
    [
        ('relation="inhibits"', 'relation="in{}hibits"', "frames/frame[1]", "relation 'in{}hibits'"),
        ('relation="has"', 'relation="h{}as"', "structmap/pattern[1]", "relation 'h{}as'"),
        ('"substance"', '"sub{}stance"', "ontology/concept[2]", "concept id 'sub{}stance'"),
    ],
    ids=["frame", "pattern", "concept"],
)
def test_loader_refuses_a_string_that_splits_a_relation_table_row(en_bio_path, char, old, new, location, what):
    # The relation table copies relation names and concept ids into its
    # fields; a tab or line break in one would split its row.
    with open(en_bio_path, encoding="utf-8") as f:
        document = f.read()
    assert old in document
    document = document.replace(old, new.format(f"&#{ord(char)};"))
    with pytest.raises(MalformedResource) as exc:
        loads_bundle(document)
    reason = what.replace("{}", repr(char)[1:-1])  # as repr() writes the string
    assert str(exc.value) == f"{location}: {reason} holds U+{ord(char):04X}, which splits a relation table row"


def test_one_lemma_may_carry_several_parser_tags():
    entries = (SemLexEntry("a", "N", "x"), SemLexEntry("a", "V", "y"))
    assert ResourceBundle("en", sem_lexicon=entries).sem_lexicon == entries


def test_record_table_follows_field_order():
    from xdoc.resources import _record

    with pytest.raises(TypeError, match="must follow the fields of SemLexEntry"):
        _record("entry", SemLexEntry, pos="pos", lemma="lemma", semclass="semclass")


def _large_bundle(rng: random.Random) -> ResourceBundle:
    base = random_bundle(rng)
    tags = sorted(base.tagset_map) or ["T0"]
    forms = {f"{rng.choice('abcxyz&<')}{i}": tuple(rng.sample(tags, 1)) for i in range(2500)}
    entries = tuple(
        SemLexEntry(f"lemma{i}", rng.choice(["N", "V", "ADJ"]), f"class{i % 17}\"")
        for i in range(2500)
    )
    return replace(base, tag_lexicon=forms, sem_lexicon=entries)


def test_round_trip_large_generated_bundle():
    bundle = _large_bundle(random.Random(20261018))
    assert len(bundle.tag_lexicon) >= 2000 and len(bundle.sem_lexicon) >= 2000
    text = serialize_bundle(bundle)
    reloaded = loads_bundle(text)
    assert reloaded == bundle
    assert serialize_bundle(reloaded).encode("utf-8") == text.encode("utf-8")


def test_validate_orders_unsorted_lexicon_findings_by_location():
    bundle = ResourceBundle(
        "en",
        tag_lexicon={"zeta": ("XX",), "alpha": ("YY", "NN"), "mid": ("ZZ", "AA")},
        default_tag="NN",
        tagset_map={"NN": "N"},
    )
    findings = [(f.location, f.detail) for f in validate_bundle(bundle)]
    assert findings == [
        ("taglexicon/w[alpha]", "tag 'YY' has no tagset mapping"),
        ("taglexicon/w[mid]", "tag 'AA' has no tagset mapping"),
        ("taglexicon/w[mid]", "tag 'ZZ' has no tagset mapping"),
        ("taglexicon/w[zeta]", "tag 'XX' has no tagset mapping"),
    ]
