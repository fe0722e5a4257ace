from __future__ import annotations

import dataclasses
import gc
import re
import types
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdoc import pipeline
from xdoc.errors import InputError, MalformedResource, ResourceError, UnmappedTag
from xdoc.parsing import ParseTree, count_trees, parse, render_bracketed
from xdoc.pipeline import (
    STAGES,
    AnnotatedDocument,
    SentenceAnalysis,
    analyze_text,
    check_stages,
    emit_xml,
    export_relations,
    run_pipeline,
)
from xdoc.resources import Category, load_bundle, loads_bundle, validate_bundle
from xdoc.semantics import Diagnostic
from xdoc.structure import Sentence, Token
from xdoc.tagging import TaggedToken

ASPIRIN = "Aspirin inhibits cyclooxygenase ."
GERMAN_OVS = "Den Katalysator hemmt der Wirkstoff ."


def test_config_requires_stage_prefix():
    assert check_stages(["tok", "sent"]) == ("tok", "sent")
    with pytest.raises(ValueError):
        check_stages(("tok", "tag"))
    with pytest.raises(ValueError):
        check_stages(())
    with pytest.raises(ValueError):
        check_stages(("sent",))


def test_full_run_extracts_inhibition_relation(en_bio_path):
    doc = run_pipeline(en_bio_path, ASPIRIN)
    assert len(doc.sentences) == 1
    analysis = doc.sentences[0]
    assert analysis.tree is not None
    assert [r.name for r in analysis.relations] == ["inhibits"]
    relation = analysis.relations[0]
    by_id = {t.id: t.form for t in doc.tokens}
    assert by_id[relation.arg1] == "Aspirin"
    assert by_id[relation.arg2] == "cyclooxygenase"


def test_prefix_run_stops_after_sentences(en_bio_path):
    doc = run_pipeline(en_bio_path, ASPIRIN, stages=("tok", "sent"))
    analysis = doc.sentences[0]
    assert analysis.tagged is None
    assert analysis.tree is None
    assert analysis.relations == ()


def test_prefix_runs_agree_with_full_run(en_bio):
    full = analyze_text(en_bio, ASPIRIN)
    for k in range(1, len(STAGES) + 1):
        partial = analyze_text(en_bio, ASPIRIN, stages=STAGES[:k])
        assert partial.tokens == full.tokens
        if "sent" not in STAGES[:k]:
            continue
        assert [s.sentence for s in partial.sentences] == [s.sentence for s in full.sentences]
        for got, want in zip(partial.sentences, full.sentences):
            if "sem" in STAGES[:k]:
                assert got.tagged == want.tagged
                assert got.parse_input == want.parse_input
            if "parse" in STAGES[:k]:
                assert got.tree == want.tree
            if "frames" in STAGES[:k]:
                assert got.frames == want.frames
            if "rel" in STAGES[:k]:
                assert got.relations == want.relations


def builtin_tags_file(bundle, text, tmp_path):
    """A tag file holding the built-in tagger's own tags for ``text``."""
    doc = analyze_text(bundle, text, stages=STAGES[:3])
    blocks = ["".join(f"{t.token.form}\t{t.source_tag}\n" for t in a.tagged) for a in doc.sentences]
    return external_tags_file(tmp_path, "\n".join(blocks))


@pytest.mark.parametrize("k", range(1, len(STAGES) + 1))
def test_prefix_means_the_same_for_text_and_tag_file(en_bio, en_bio_path, tmp_path, k):
    tags = builtin_tags_file(en_bio, ASPIRIN, tmp_path)
    from_text = run_pipeline(en_bio_path, ASPIRIN, stages=STAGES[:k])
    from_tags = run_pipeline(en_bio_path, external_tags=tags, stages=STAGES[:k])
    assert emit_xml(from_tags) == emit_xml(from_text)
    if "sent" not in STAGES[:k]:
        assert from_text.sentences == from_tags.sentences == []


def test_map_prefix_shows_parser_tags(en_bio, en_bio_path, tmp_path):
    tags = builtin_tags_file(en_bio, ASPIRIN, tmp_path)
    for k in range(STAGES.index("map") + 1, STAGES.index("sem") + 1):
        for doc in (
            run_pipeline(en_bio_path, ASPIRIN, stages=STAGES[:k]),
            run_pipeline(en_bio_path, external_tags=tags, stages=STAGES[:k]),
        ):
            xml = emit_xml(doc)
            assert re.search(r'<t id="0" [^>]*form="Aspirin" tag0="NN" tag="N"/>', xml), xml
            analysis = doc.sentences[0]  # words first, then the period
            assert list(map(id, analysis.parse_input)) == list(map(id, analysis.tagged[:-1]))


def test_punctuation_tokens_are_tagged_but_not_parsed(en_bio):
    doc = analyze_text(en_bio, ASPIRIN)
    analysis = doc.sentences[0]
    assert [t.token.form for t in analysis.tagged] == ["Aspirin", "inhibits", "cyclooxygenase", "."]
    assert [t.token.form for t in analysis.parse_input] == ["Aspirin", "inhibits", "cyclooxygenase"]
    period = analysis.tagged[-1]
    assert period.source_tag == "NN"  # lexicon default; never mapped
    assert period.parser_tag is None


FALLBACK = "Aspirin inhibits cyclooxygenase at 2.5 mM."  # "at 2.5 mM" has no place in en-bio's grammar


def test_sentence_without_parse_falls_back_to_chunks(en_bio):
    doc = analyze_text(en_bio, FALLBACK)
    analysis = doc.sentences[0]
    assert analysis.tree is None
    assert not analysis.failed
    assert [t.token.form for t in analysis.parse_input] == ["Aspirin", "inhibits", "cyclooxygenase", "at", "2.5", "mM"]
    # The chunk cover holds the clause, so its frame still matches.
    assert [r.name for r in analysis.relations] == ["inhibits"]
    assert export_relations(doc).splitlines()[1:] == ["inhibits\tAspirin\tsubstance\tcyclooxygenase\tenzyme\ts1"]
    assert "<parse>" not in emit_xml(doc)


def test_run_pipeline_takes_exactly_one_input(en_bio_path, tmp_path):
    tags = tmp_path / "tags.tsv"
    tags.write_text("Aspirin\tNNP\n", encoding="utf-8")
    with pytest.raises(ValueError):
        run_pipeline(en_bio_path)
    with pytest.raises(ValueError):
        run_pipeline(en_bio_path, ASPIRIN, external_tags=tags)


def test_invalid_bundle_is_refused(tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text(
        """<resources lang="xx">
          <taglexicon default="QQ"/>
          <tagmap><map from="NN" to="N"/></tagmap>
        </resources>""",
        encoding="utf-8",
    )
    with pytest.raises(ResourceError):
        run_pipeline(bad, "hello")


def external_tags_file(tmp_path, content):
    path = tmp_path / "tags.tsv"
    path.write_text(content, encoding="utf-8")
    return path


def test_external_tags_replace_early_stages(en_bio_path, tmp_path):
    tags = external_tags_file(
        tmp_path, "Aspirin\tNNP\ninhibits\tVBZ\ncyclooxygenase\tNN\n"
    )
    doc = run_pipeline(en_bio_path, external_tags=tags)
    analysis = doc.sentences[0]
    assert analysis.tagged[0].source_tag == "NNP"
    assert [r.name for r in analysis.relations] == ["inhibits"]


def test_lenient_mode_quarantines_failing_sentence(en_bio_path, tmp_path):
    tags = external_tags_file(
        tmp_path,
        "Foo\tFW\n.\t.\n\nAspirin\tNNP\ninhibits\tVBZ\ncyclooxygenase\tNN\n",
    )
    doc = run_pipeline(en_bio_path, external_tags=tags, lenient=True)
    first, second = doc.sentences
    assert first.failed
    assert [d.code for d in first.diagnostics] == ["UnmappedTag"]
    assert first.relations == ()
    assert not second.failed
    assert [r.name for r in second.relations] == ["inhibits"]


def test_strict_mode_raises_on_unmappable_tag(en_bio_path, tmp_path):
    tags = external_tags_file(tmp_path, "Foo\tFW\n")
    with pytest.raises(UnmappedTag):
        run_pipeline(en_bio_path, external_tags=tags)


def test_strict_success_implies_lenient_has_no_failures(en_bio):
    text = "Aspirin inhibits cyclooxygenase . The drug inhibits the enzyme ."
    strict = analyze_text(en_bio, text, lenient=False)
    lenient = analyze_text(en_bio, text, lenient=True)
    assert all(not s.failed for s in lenient.sentences)
    assert emit_xml(strict) == emit_xml(lenient)


def test_paragraph_break_resets_sentences(en_bio):
    doc = analyze_text(en_bio, "one two\n\nthree", stages=("tok", "sent"))
    assert [len(s.sentence.tokens) for s in doc.sentences] == [2, 1]


# -- XML output


def test_emit_xml_empty_document(en_bio):
    doc = analyze_text(en_bio, "")
    assert emit_xml(doc) == '<document lang="en"/>\n'


def test_emit_xml_contains_relation_with_token_refs(en_bio):
    doc = analyze_text(en_bio, ASPIRIN)
    xml = emit_xml(doc)
    root = ET.fromstring(xml)
    rel = root.find("./sentence/relations/rel")
    assert rel is not None
    assert rel.get("type") == "inhibits"
    refs = [arg.get("ref") for arg in rel.findall("arg")]
    tokens = {t.get("id"): t.get("form") for t in root.iter("t")}
    assert [tokens[r] for r in refs] == ["Aspirin", "cyclooxygenase"]
    assert [arg.get("role") for arg in rel.findall("arg")] == ["agent", "patient"]


def test_emit_xml_token_offsets_index_source_text(en_bio):
    text = "Aspirin inhibits COX-2. Dr. Smith e.g. watches ."
    doc = analyze_text(en_bio, text)
    raw = text.encode("utf-8")
    root = ET.fromstring(emit_xml(doc))
    for t in root.iter("t"):
        off, ln = int(t.get("off")), int(t.get("len"))
        assert raw[off : off + ln].decode("utf-8") == t.get("form")


def test_emit_xml_is_deterministic(en_bio):
    text = ASPIRIN + " The drug inhibits the enzyme ."
    first = emit_xml(analyze_text(en_bio, text))
    second = emit_xml(analyze_text(en_bio, text))
    assert first.encode() == second.encode()


def test_emit_xml_omits_absent_annotations(en_bio):
    doc = analyze_text(en_bio, "hello world", stages=("tok", "sent"))
    root = ET.fromstring(emit_xml(doc))
    token = root.find("./sentence/tokens/t")
    assert token.get("tag0") is None
    assert token.get("tag") is None
    assert root.find("./sentence/parse") is None
    assert root.find("./sentence/relations") is None


def test_emit_xml_reports_diagnostics(en_bio_path, tmp_path):
    tags = tmp_path / "tags.tsv"
    tags.write_text("Foo\tFW\n", encoding="utf-8")
    doc = run_pipeline(en_bio_path, external_tags=tags, lenient=True)
    root = ET.fromstring(emit_xml(doc))
    diag = root.find("./sentence/diagnostics/diag")
    assert diag is not None
    assert diag.get("code") == "UnmappedTag"


# Exact output taken from the pair-list writer that came before the
# f-string one.  The benchmark corpora hold none of these characters, so
# their digests cannot catch an escaping slip.
ESCAPED_XML = '''\
<document lang="e&quot;n&amp;">
  <sentence id="s1">
    <tokens>
      <t id="0" off="0" len="8" form="a&amp;b&lt;c&gt;&quot;d" tag0="N&amp;&quot;" tag="N&lt;1&gt;" sem="sem&amp;&quot;" concept="C&lt;&amp;&gt;&quot;&#9;"/>
      <t id="1" off="9" len="8" form="tab&#9;here" tag0="V&#9;" tag="V&#13;&#10;"/>
      <t id="2" off="18" len="9" form="cr&#13;lf&#10;end" tag0="X&gt;" sem="s&#13;c"/>
      <t id="3" off="28" len="12" form="Größe→ü" tag0="Ä" tag="Ä" sem="ß" concept="Größe→"/>
    </tokens>
    <parse>
      <node cat="NP&amp;&lt;&gt;&quot;" case="n&quot;&#9;&lt;" num="&#13;&#10;ü">
        <node cat="N&lt;1&gt;" ref="0"/>
        <node cat="VP">
          <node cat="V&#13;&#10;" ref="1"/>
          <node cat="X" ref="2"/>
        </node>
        <node cat="Ä" ref="3"/>
      </node>
    </parse>
    <diagnostics>
      <diag code="C&amp;&quot;" detail="d&lt;&#9;&#13;&#10;&gt;é"/>
    </diagnostics>
  </sentence>
  <sentence id="s2">
    <tokens>
      <t id="0" off="0" len="8" form="a&amp;b&lt;c&gt;&quot;d"/>
      <t id="1" off="9" len="8" form="tab&#9;here"/>
    </tokens>
  </sentence>
</document>
'''


def test_emit_xml_escapes_every_attribute_value_exactly():
    forms = ['a&b<c>"d', "tab\there", "cr\rlf\nend", "Größe→ü"]
    tokens, off = [], 0
    for i, form in enumerate(forms):
        tokens.append(Token(i, form, off, len(form.encode("utf-8"))))
        off += tokens[-1].length + 1
    tagged = (
        TaggedToken(tokens[0], 'N&"', "N<1>", "a", 'sem&"', 'C<&>"\t'),
        TaggedToken(tokens[1], "V\t", "V\r\n"),
        TaggedToken(tokens[2], "X>", None, None, "s\rc", None),
        TaggedToken(tokens[3], "Ä", "Ä", "größe", "ß", "Größe→"),
    )

    def leaf(i):
        return ParseTree(Category(tagged[i].parser_tag or "X"), i, i + 1)

    vp = ParseTree(Category("VP"), 1, 3, (leaf(1), leaf(2)), 0, 1)
    np = Category('NP&<>"', {"case": 'n"\t<', "num": "\r\nü"})
    analyses = [
        SentenceAnalysis(
            Sentence(0, tuple(tokens)), tagged=tagged, parse_input=tagged,
            tree=ParseTree(np, 0, 4, (leaf(0), vp, leaf(3)), 0, 0),
            diagnostics=(Diagnostic('C&"', "d<\t\r\n>é"),),
        ),
        SentenceAnalysis(Sentence(1, tuple(tokens[:2]))),
    ]
    xml = emit_xml(AnnotatedDocument('e"n&', tuple(tokens), analyses))
    assert xml == ESCAPED_XML


def _right_branching(depth: int) -> AnnotatedDocument:
    """A one-sentence document whose tree nests NP ``depth`` levels below its root."""
    tokens = tuple(Token(i, f"w{i}", 3 * i, 2) for i in range(depth + 1))
    tagged = tuple(TaggedToken(token, "NN", "N") for token in tokens)
    tree = ParseTree(Category("N"), depth, depth + 1)
    for i in range(depth - 1, -1, -1):
        tree = ParseTree(Category("NP"), i, depth + 1, (ParseTree(Category("N"), i, i + 1), tree))
    analysis = SentenceAnalysis(Sentence(0, tokens), tagged=tagged, parse_input=tagged, tree=tree)
    return AnnotatedDocument("en", tokens, [analysis])


def _parse_lines(doc: AnnotatedDocument) -> list[str]:
    lines = emit_xml(doc).splitlines()
    return lines[lines.index("    <parse>") + 1 : lines.index("    </parse>")]


def _padded_lines(depth: int, pad) -> list[str]:
    """The parse lines of ``_right_branching(depth)``, a node at depth ``d`` padded by ``pad(d)``."""
    lines = []
    for i in range(depth):
        lines += [f'{pad(i)}<node cat="NP">', f'{pad(i + 1)}<node cat="N" ref="{i}"/>']
    lines.append(f'{pad(depth)}<node cat="N" ref="{depth}"/>')
    return lines + [f"{pad(i)}</node>" for i in range(depth - 1, -1, -1)]


def test_emit_xml_pads_a_tree_at_the_cap_by_depth_alone():
    # Up to the cap the pad is two spaces per level, as it has always been.
    cap = pipeline.MAX_INDENT_DEPTH
    assert _parse_lines(_right_branching(cap)) == _padded_lines(cap, lambda d: "      " + "  " * d)


def test_emit_xml_writes_a_deep_tree_without_recursion():
    # Past the cap every node takes the deepest pad, so the <parse> of a
    # 5,000-level tree is linear in its nodes, not quadratic.
    cap = pipeline.MAX_INDENT_DEPTH
    depth = 5000
    lines = _parse_lines(_right_branching(depth))
    assert lines == _padded_lines(depth, lambda d: "      " + "  " * min(d, cap))
    # 3 * depth + 1 lines, none longer than the deepest pad and one node.
    assert len(lines) == 3 * depth + 1
    assert max(map(len, lines)) == len("      " + "  " * cap + f'<node cat="N" ref="{depth}"/>')


# -- relation table


def test_export_relations_single_row(en_bio):
    doc = analyze_text(en_bio, ASPIRIN)
    lines = export_relations(doc).splitlines()
    assert lines[0] == "relation\targ1_form\targ1_concept\targ2_form\targ2_concept\tsentence_id"
    assert lines[1] == "inhibits\tAspirin\tsubstance\tcyclooxygenase\tenzyme\ts1"
    assert len(lines) == 2


def test_export_relations_header_only_without_relations(en_bio):
    doc = analyze_text(en_bio, "hello world .")
    assert export_relations(doc) == (
        "relation\targ1_form\targ1_concept\targ2_form\targ2_concept\tsentence_id\n"
    )


def test_export_relations_orders_rows_by_sentence(en_bio):
    text = "Aspirin inhibits cyclooxygenase . Aspirin inhibits cyclooxygenase ."
    doc = analyze_text(en_bio, text)
    rows = export_relations(doc).splitlines()[1:]
    assert [row.split("\t")[-1] for row in rows] == ["s1", "s2"]


# -- XML and TSV describe the same relations

RUN_ON_PARTS = {
    "en": [
        "Aspirin inhibits cyclooxygenase",
        "water inhibits cyclooxygenase",
        "the liver of the patient",
        "Aspirin inhibits the liver",
    ],
    "de": [
        "Den Katalysator hemmt der Wirkstoff",
        "der Wirkstoff des Herstellers hemmt den Katalysator",
        "der Katalysator des Herstellers",
    ],
}
WORDS = {
    "en": ["Aspirin", "water", "cyclooxygenase", "inhibits", "the", "of", "liver", "patient"],
    "de": ["der", "den", "des", "Wirkstoff", "Katalysator", "Herstellers", "hemmt"],
}


def _documents(lang):
    """Sentences of one to three clauses or word runs, so many hold two predicates."""
    part = st.one_of(
        st.sampled_from(RUN_ON_PARTS[lang]),
        st.lists(st.sampled_from(WORDS[lang]), min_size=1, max_size=4).map(" ".join),
    )
    sentence = st.lists(part, min_size=1, max_size=3).map(lambda parts: " ".join(parts) + " .")
    return st.lists(sentence, min_size=1, max_size=3).map(" ".join)


def _xml_relation_rows(xml, bundle):
    """(relation, arg1 form, arg2 form, sentence id) per <rel>, in document order."""
    position = {"arg1": 1, "arg2": 2}
    for frame in bundle.frames:
        for slot in frame.slots:
            position[slot.role] = 1 if slot.gf == "subject" else 2
    rows = []
    for sentence in ET.fromstring(xml).iter("sentence"):
        forms = {t.get("id"): t.get("form") for t in sentence.iter("t")}
        for rel in sentence.iter("rel"):
            args = {position[a.get("role")]: forms[a.get("ref")] for a in rel.iter("arg")}
            rows.append((rel.get("type"), args[1], args[2], sentence.get("id")))
    return rows


@given(case=st.sampled_from(["en", "de"]).flatmap(lambda lang: st.tuples(st.just(lang), _documents(lang))))
@settings(max_examples=200, deadline=None)
def test_xml_and_tsv_list_the_same_relations(en_bio, de_core, case):
    lang, text = case
    bundle = en_bio if lang == "en" else de_core
    doc = analyze_text(bundle, text, lenient=True)
    tsv_rows = [
        (row[0], row[1], row[3], row[5])
        for row in (line.split("\t") for line in export_relations(doc).splitlines()[1:])
    ]
    assert _xml_relation_rows(emit_xml(doc), bundle) == tsv_rows


# What a reader that splits lines on every Unicode line boundary (as
# ``str.splitlines`` does) ends a line at, beyond the \n a tag file ends one at.
_LINE_BREAKS = ["\r", "\x85", "\u2028", "\u2029"]


@given(case=st.sampled_from(["en", "de"]).flatmap(lambda lang: st.tuples(st.just(lang), _documents(lang))),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_tag_files_give_the_same_relations_in_xml_and_tsv_or_an_input_error(
    en_bio, de_core, en_bio_path, de_core_path, tmp_path_factory, case, data
):
    lang, text = case
    bundle, bundle_path = (en_bio, en_bio_path) if lang == "en" else (de_core, de_core_path)
    lines, broken = [], []
    for sentence in analyze_text(bundle, text, stages=STAGES[:3]).sentences:
        for t in sentence.tagged:
            form = t.token.form
            if data.draw(st.booleans()):
                at = data.draw(st.integers(0, len(form)))
                form = form[:at] + data.draw(st.sampled_from(_LINE_BREAKS)) + form[at:]
                broken.append(len(lines) + 1)
            lines.append(f"{form}\t{t.source_tag}\n")
        lines.append("\n")
    tags = tmp_path_factory.mktemp("tags") / "tags.tsv"
    tags.write_bytes("".join(lines).encode("utf-8"))
    try:
        doc = run_pipeline(bundle_path, external_tags=tags, lenient=True)
    except InputError as exc:
        assert broken and f" line {broken[0]}: " in str(exc)
        return
    tsv_rows = [
        (row[0], row[1], row[3], row[5])
        for row in (line.split("\t") for line in export_relations(doc).splitlines()[1:])
    ]
    assert _xml_relation_rows(emit_xml(doc), bundle) == tsv_rows


# Words glued to whitespace and control characters: the form feed, \v and
# \x1c-\x1f that XML cannot carry but that separate words, C0 controls,
# U+FFFE/U+FFFF and lone surrogates that it cannot carry either, and DEL
# and NEL, which it can.
_CONTROL_PIECES = ["Aspirin", "inhibits", "cyclooxygenase", "COX-2", ".", " ", "\n\n",
                   "\x0c", "\x0b", "\x1c", "\x1f", "\x00", "\x01", "\x08", "\x0e", "\x1b",
                   "\x7f", "\x85", "\ufffe", "\uffff", "\ud800", "\udfff"]


def _xml_char(ch):
    """The Char production of XML 1.0."""
    code = ord(ch)
    return ch in "\t\n\r" or 0x20 <= code <= 0xD7FF or 0xE000 <= code <= 0xFFFD or code >= 0x10000


@given(st.lists(st.sampled_from(_CONTROL_PIECES), max_size=12).map("".join))
@settings(max_examples=200, deadline=None)
def test_text_gives_well_formed_xml_or_an_input_error(en_bio, text):
    refused = any(not _xml_char(ch) and not ch.isspace() for ch in text)
    try:
        doc = analyze_text(en_bio, text, lenient=True)
    except InputError:
        assert refused
        return
    assert not refused
    ET.fromstring(emit_xml(doc))


def test_lone_surrogate_is_an_input_error_naming_its_byte_offset(en_bio):
    with pytest.raises(InputError, match="U\\+D800 at byte offset 4 "):
        analyze_text(en_bio, "Ab\u00e9\ud800 inhibits")


def test_bundle_string_xml_cannot_carry_makes_emit_xml_raise(en_bio):
    # Only a bundle built in code can hold one: the loader reads XML.
    bundle = replace(en_bio, default_tag="NN\x01")
    doc = analyze_text(bundle, "zzz .", stages=STAGES[:3])
    assert doc.sentences[0].tagged[0].source_tag == "NN\x01"
    with pytest.raises(ValueError, match="U\\+0001 in 'NN\\\\x01' cannot be written as XML"):
        emit_xml(doc)


def test_two_predicate_run_on_yields_one_relation_per_predicate(en_bio):
    doc = analyze_text(en_bio, "Aspirin inhibits cyclooxygenase water inhibits cyclooxygenase .")
    rows = export_relations(doc).splitlines()[1:]
    assert [row.split("\t")[1] for row in rows] == ["Aspirin", "water"]
    rels = ET.fromstring(emit_xml(doc)).findall("./sentence/relations/rel")
    assert [(rel.get("pred"), rel.find("arg").get("ref")) for rel in rels] == [("1", "0"), ("4", "3")]


# -- the German bundle through the identical code path


def test_german_ovs_sentence_extracts_relation(de_core):
    doc = analyze_text(de_core, GERMAN_OVS)
    analysis = doc.sentences[0]
    assert len(analysis.frames) == 1
    instance = analysis.frames[0]
    by_id = {t.id: t.form for t in doc.tokens}
    assert by_id[instance.bindings["agens"][0]] == "Wirkstoff"
    assert by_id[instance.bindings["patiens"][0]] == "Katalysator"
    rows = export_relations(doc).splitlines()[1:]
    assert rows == ["hemmt\tWirkstoff\tsubstanz\tKatalysator\tenzym\ts1"]


def test_german_genitive_pattern_extracts_has_relation(de_core):
    doc = analyze_text(de_core, "Der Wirkstoff des Herstellers hemmt den Katalysator .")
    rows = export_relations(doc).splitlines()[1:]
    assert "hemmt\tWirkstoff\tsubstanz\tKatalysator\tenzym\ts1" in rows
    assert "hat\tHerstellers\torganisation\tWirkstoff\tsubstanz\ts1" in rows


def test_structural_relation_xml_uses_positional_arg_roles(de_core):
    doc = analyze_text(de_core, "Der Wirkstoff des Herstellers hemmt den Katalysator .")
    root = ET.fromstring(emit_xml(doc))
    rels = root.findall("./sentence/relations/rel")
    by_type = {rel.get("type"): rel for rel in rels}
    assert by_type["hemmt"].get("pred") is not None  # frame-derived
    structural = by_type["hat"]
    assert structural.get("pred") is None
    assert [arg.get("role") for arg in structural.findall("arg")] == ["arg1", "arg2"]


# Frame ids need not be unique: a second frame under the original's id,
# with another predicate and optional slots that bind object then
# subject, must not take the original's relations, wherever it stands.

SHARED_ID_FRAMES = {
    "en-bio": ('<frame id="inhibit-1" predicate="inhibit" ',
               '<frame id="inhibit-1" predicate="patient" relation="inhibits">'
               '<slot role="treated" gf="object" fill="entity" required="false"/>'
               '<slot role="treater" gf="subject" fill="entity" required="false"/></frame>',
               ASPIRIN),
    "de-core": ('<frame id="hemm-1" predicate="hemm" ',
                '<frame id="hemm-1" predicate="hersteller" relation="hemmt">'
                '<slot role="ziel" gf="object" fill="entitaet" required="false"/>'
                '<slot role="quelle" gf="subject" fill="entitaet" required="false"/></frame>',
                GERMAN_OVS),
}


@pytest.mark.parametrize("place", ["before", "after"])
@pytest.mark.parametrize("name", sorted(SHARED_ID_FRAMES))
def test_frames_sharing_an_id_keep_their_relations(name, place, request):
    original, extra, text = SHARED_ID_FRAMES[name]
    xml = Path(request.getfixturevalue(name.replace("-", "_") + "_path")).read_text(encoding="utf-8")
    assert xml.count(original) == 1
    if place == "before":
        shared = xml.replace(original, extra + original)
    else:
        shared = xml.replace("</frames>", extra + "</frames>")
    bundle = loads_bundle(shared)
    assert [f.id for f in bundle.frames].count(original.split('"')[1]) == 2
    assert validate_bundle(bundle) == []
    rows = export_relations(analyze_text(bundle, text))
    assert rows == export_relations(analyze_text(loads_bundle(xml), text))
    assert len(rows.splitlines()) == 2


AMBIGUOUS_BUNDLE = """<resources lang="xx">
  <taglexicon default="NN"/>
  <tagmap><map from="NN" to="N"/></tagmap>
  <grammar start="NP">
    <rule lhs="NP" head="1"><cat name="NP"/><cat name="NP"/></rule>
    <rule lhs="NP" head="1"><cat name="N"/></rule>
  </grammar>
</resources>"""


def ambiguous_bundle_path(tmp_path):
    path = tmp_path / "ambiguous.xml"
    path.write_text(AMBIGUOUS_BUNDLE, encoding="utf-8")
    return path


def first_ambiguous_np(words: int) -> str:
    """The first tree of ``words`` N under AMBIGUOUS_BUNDLE: each split takes the shortest left part."""
    return "(NP N)" if words == 1 else f"(NP (NP N) {first_ambiguous_np(words - 1)})"


def assert_first_ambiguous_tree(analysis):
    assert render_bracketed(analysis.tree) == first_ambiguous_np(9)
    assert (analysis.tree.start, analysis.tree.end) == (0, 9)
    assert analysis.diagnostics == ()
    assert not analysis.failed


def test_overambiguous_sentence_gets_its_first_tree_in_strict_mode(tmp_path):
    path = ambiguous_bundle_path(tmp_path)
    assert count_trees(parse(["N"] * 9, load_bundle(path).grammar), "NP") == 1430
    doc = run_pipeline(path, "a b c d e f g h i")
    assert_first_ambiguous_tree(doc.sentences[0])


def test_overambiguous_sentence_gets_its_first_tree_when_lenient(tmp_path):
    path = ambiguous_bundle_path(tmp_path)
    doc = run_pipeline(path, "a b c d e f g h i", lenient=True)
    assert_first_ambiguous_tree(doc.sentences[0])


def test_single_slot_frame_produces_no_binary_relation(en_bio):
    from xdoc.resources import CaseFrame, FrameSlot

    frame = CaseFrame(
        "solo", "inhibit", "inhibits", (FrameSlot("agent", "subject", "substance", True),)
    )
    bundle = replace(en_bio, frames=(frame,))
    doc = analyze_text(bundle, ASPIRIN)
    analysis = doc.sentences[0]
    assert len(analysis.frames) == 1  # the instance itself is kept
    assert analysis.relations == ()  # but there is no argument pair to export


def test_exported_names_are_the_documented_ones():
    import xdoc

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1].split("\n## ", 1)[0]
    documented = {n for n in re.findall(r"`(\w+)", section) if hasattr(xdoc, n)}
    assert documented == set(xdoc.__all__)


# -- the validated bundle is reused while the file's bytes are unchanged


def _bundles_used(monkeypatch):
    """Record the bundle each later ``run_pipeline`` call on raw text analyzes with."""
    used = []
    real = pipeline.analyze_text

    def spy(bundle, text, **kwargs):
        used.append(bundle)
        return real(bundle, text, **kwargs)

    monkeypatch.setattr(pipeline, "analyze_text", spy)
    return used


def _reaches(root, target):
    """Whether ``target`` is reachable from ``root`` through dataclass fields and containers."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.items())
    return False


def test_same_bytes_reuse_one_bundle(en_bio_path, tmp_path, monkeypatch):
    copy = tmp_path / "copy.xml"
    copy.write_bytes(Path(en_bio_path).read_bytes())
    used = _bundles_used(monkeypatch)
    docs = [run_pipeline(path, ASPIRIN) for path in (en_bio_path, en_bio_path, copy)]
    assert used[0] is used[1] is used[2]
    assert all(not _reaches(doc, used[0]) for doc in docs)
    assert [emit_xml(doc) for doc in docs[1:]] == [emit_xml(docs[0])] * 2


def test_rewritten_bundle_is_seen_on_next_call(en_bio_path, tmp_path):
    path = tmp_path / "bundle.xml"
    original = Path(en_bio_path).read_bytes()
    entry = b'<entry lemma="cyclooxygenase" pos="N" semclass="enzyme"/>'
    assert original.count(entry) == 1
    path.write_bytes(original)
    assert len(run_pipeline(path, ASPIRIN).sentences[0].relations) == 1
    path.write_bytes(original.replace(entry, b""))
    assert run_pipeline(path, ASPIRIN).sentences[0].relations == ()
    path.write_bytes(original)
    assert len(run_pipeline(path, ASPIRIN).sentences[0].relations) == 1


INVALID_BUNDLE = """<resources lang="xx">
  <taglexicon default="QQ"/>
  <tagmap><map from="NN" to="N"/></tagmap>
</resources>"""


def test_invalid_bytes_after_valid_run_are_refused(en_bio_path, tmp_path, monkeypatch, capsys):
    from xdoc.cli import main

    used = _bundles_used(monkeypatch)
    run_pipeline(en_bio_path, ASPIRIN)
    text = tmp_path / "doc.txt"
    text.write_text(ASPIRIN, encoding="utf-8")
    bad = tmp_path / "bad.xml"
    # Validation failures name the bundle file; schema errors name the element.
    for content, named in ((INVALID_BUNDLE, str(bad)), ("<resources", "not well-formed")):
        bad.write_text(content, encoding="utf-8")
        for _ in range(2):  # a refused bundle is never stored, so it fails every time
            with pytest.raises(ResourceError, match=re.escape(named)):
                run_pipeline(bad, ASPIRIN)
        assert main(["analyze", "--bundle", str(bad), "--input", str(text)]) == 1
        assert named in capsys.readouterr().err
    run_pipeline(en_bio_path, ASPIRIN)
    assert used[1] is used[0]  # the failures left the last valid bundle in place


def test_edited_or_deleted_bundle_is_refused_on_next_call(en_bio_path, tmp_path):
    path = tmp_path / "bundle.xml"
    path.write_bytes(Path(en_bio_path).read_bytes())
    run_pipeline(path, ASPIRIN)
    path.write_text(INVALID_BUNDLE, encoding="utf-8")
    with pytest.raises(ResourceError, match="failed validation"):
        run_pipeline(path, ASPIRIN)
    path.unlink()
    with pytest.raises(MalformedResource) as cached:
        run_pipeline(path, ASPIRIN)
    with pytest.raises(MalformedResource) as uncached:
        load_bundle(path)
    assert str(cached.value) == str(uncached.value)
    assert "cannot read bundle" in str(cached.value)


def test_load_bundle_never_caches(en_bio_path, monkeypatch):
    used = _bundles_used(monkeypatch)
    run_pipeline(en_bio_path, ASPIRIN)
    first, second = load_bundle(en_bio_path), load_bundle(en_bio_path)
    assert first is not second
    assert used[0] is not first and used[0] is not second


def _de_np(article, head, genitives):
    words = [article, (head, "NN")]
    for genitive in genitives:
        words += [("des", "ARTG"), (genitive, "NN")]
    return words


# A 588-reading clause (over the cap of the full listing, one tree read),
# a verbless genitive chain (no complete parse, chunks) and an unmappable
# tag (a failed sentence).
DE_LENIENT_TAGS = "\n\n".join(
    "\n".join(f"{form}\t{tag}" for form, tag in sentence)
    for sentence in (
        _de_np(("Der", "ARTN"), "Wirkstoff", ["Herstellers", "Labors", "Instituts", "Verfahrens"])
        + [("hemmt", "VVFIN")]
        + _de_np(("den", "ARTA"), "Katalysator",
                 ["Präparats", "Extrakts", "Versuchs", "Labors", "Instituts"])
        + [(".", "$.")],
        _de_np(("Der", "ARTN"), "Hersteller",
               ["Wirkstoffs", "Labors", "Instituts", "Verfahrens", "Präparats", "Extrakts"])
        + [(".", "$.")],
        [("Foo", "FW"), (".", "$.")],
    )
) + "\n"


def _reuse_calls(en_bio_path, de_core_path, tmp_path):
    """``run_pipeline`` arguments that switch bundles and cover every fallback."""
    tags = external_tags_file(tmp_path, DE_LENIENT_TAGS)
    return [
        (en_bio_path, {"text": ASPIRIN}),
        (en_bio_path, {"text": "Aspirin inhibits cyclooxygenase water inhibits cyclooxygenase ."}),
        (en_bio_path, {"text": "the inhibitor of the enzyme . Aspirin inhibits COX-2. Dr. Smith e.g. watches ."}),
        (de_core_path, {"text": GERMAN_OVS}),
        (de_core_path, {"external_tags": tags, "lenient": True}),
        (de_core_path, {"text": "Der Wirkstoff des Herstellers hemmt den Katalysator ."}),
        (de_core_path, {"external_tags": tags, "lenient": True}),
        (en_bio_path, {"text": ASPIRIN + " The drug inhibits the enzyme ."}),
        (en_bio_path, {"text": "the liver of the patient .", "stages": STAGES[:5]}),
    ]


def _rendered(calls):
    docs = [run_pipeline(path, **kwargs) for path, kwargs in calls]
    return [(emit_xml(doc), export_relations(doc)) for doc in docs]


def _cold_outputs(calls, monkeypatch):
    out = []
    for call in calls:
        monkeypatch.setattr(pipeline, "_last_valid", None)
        out.extend(_rendered([call]))
    return out


def test_warm_bundle_gives_the_bytes_of_a_cold_one(en_bio_path, de_core_path, tmp_path, monkeypatch):
    calls = _reuse_calls(en_bio_path, de_core_path, tmp_path)
    cold = _cold_outputs(calls, monkeypatch)
    lenient_xml = cold[4][0]
    assert "TooAmbiguous" not in lenient_xml
    s1, s2, s3 = ET.fromstring(lenient_xml).findall("sentence")
    assert s1.find("parse") is not None and s1.find("diagnostics") is None
    assert s2.find("parse") is None and s2.find("relations") is not None  # chunk fallback
    assert [d.get("code") for d in s3.iter("diag")] == ["UnmappedTag"]
    assert _rendered(calls) == cold
    assert _rendered(calls) == cold


def test_threads_sharing_a_bundle_give_the_bytes_of_one_thread(
    en_bio_path, de_core_path, tmp_path, monkeypatch
):
    # Lazy indexes and grammar memo tables of the shared bundle fill while
    # threads race; from 3.12 on ``cached_property`` no longer locks.
    import sys
    import threading

    calls = _reuse_calls(en_bio_path, de_core_path, tmp_path)
    calls = [c for c in calls if c[0] == de_core_path] + [c for c in calls if c[0] == en_bio_path]
    cold = _cold_outputs(calls, monkeypatch)
    results, errors = {}, []

    def worker(n):
        try:
            results[n] = _rendered(calls[n % 2 :] + calls[: n % 2])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    monkeypatch.setattr(pipeline, "_last_valid", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for n, got in results.items():
        assert got == cold[n % 2 :] + cold[: n % 2]
    assert len(results) == 4


# Memory held by an analysis: chunk trees feed frames and structure patterns
# and are dropped, so a document holds only the trees its XML writes.

FALLBACK_HEAVY = (
    FALLBACK + " the inhibitor of the enzyme . " + ASPIRIN
    + " the liver of the patient . The drug inhibits the enzyme in the liver ."
)
DE_CHAINS_TAGS = "\n\n".join(
    "\n".join(f"{form}\t{tag}" for form, tag in sentence + [(".", "$.")])
    for sentence in (
        _de_np(("Der", "ARTN"), "Hersteller", ["Wirkstoffs", "Labors", "Instituts"]),
        _de_np(("Der", "ARTN"), "Wirkstoff", ["Herstellers"]) + [("hemmt", "VVFIN")]
        + _de_np(("den", "ARTA"), "Katalysator", ["Präparats"]),
        _de_np(("Die", "ARTN"), "Extrakt", ["Versuchs", "Labors", "Instituts", "Verfahrens", "Präparats"]),
    )
) + "\n"


def _reached_tree_nodes(root) -> set[int]:
    """Ids of the ParseTree nodes reachable from ``root``; classes, modules and functions are not entered."""
    seen, stack, nodes = {id(root)}, [root], set()
    while stack:
        obj = stack.pop()
        if type(obj) is ParseTree:
            nodes.add(id(obj))
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, (type, types.ModuleType, types.FunctionType)):
                seen.add(id(ref))
                stack.append(ref)
    return nodes


def test_a_document_holds_only_the_trees_it_writes(en_bio_path, de_core_path, tmp_path):
    docs = [
        run_pipeline(en_bio_path, FALLBACK_HEAVY),
        run_pipeline(de_core_path, external_tags=external_tags_file(tmp_path, DE_CHAINS_TAGS)),
    ]
    for doc in docs:
        written = [a.tree for a in doc.sentences if a.tree is not None]
        fallbacks = [a for a in doc.sentences if a.tree is None and not a.failed and a.parse_input]
        assert written and len(fallbacks) >= 2
        assert _reached_tree_nodes(doc) == {id(node) for tree in written for node in tree.preorder()}


@pytest.mark.parametrize("source, lenient", [("en-bio text", False), ("en-bio text", True), ("de-core tags", True)])
def test_analysis_and_output_leave_no_cyclic_garbage(en_bio_path, de_core_path, tmp_path, source, lenient):
    if source == "en-bio text":
        path, kwargs = en_bio_path, {"text": FALLBACK_HEAVY}
    else:
        tags = external_tags_file(tmp_path, DE_CHAINS_TAGS + "\n" + DE_LENIENT_TAGS)
        path, kwargs = de_core_path, {"external_tags": tags}
    run_pipeline(path, **kwargs, lenient=lenient)  # the bundle is loaded and cached outside the count
    gc.collect()
    gc.disable()
    try:
        doc = run_pipeline(path, **kwargs, lenient=lenient)
        emit_xml(doc)
        export_relations(doc)
        del doc
        assert gc.collect() == 0
    finally:
        gc.enable()
