from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdoc.errors import MalformedLine, UnmappedTag
from xdoc.resources import ContextRule, loads_bundle
from xdoc.structure import Sentence, Token, segment
from xdoc.tagging import apply_rules, import_external_tags, initial_tag, map_tagset


def sentence_of(text: str) -> Sentence:
    return Sentence(0, tuple(segment(text)[0]))


def tag_sentence(text: str, bundle) -> list:
    return initial_tag(sentence_of(text), bundle)


def make_bundle():
    return loads_bundle(
        """<resources lang="en">
          <taglexicon default="NN" capitalized="NNP">
            <w form="inhibits" tags="VBZ"/>
            <w form="the" tags="DT"/>
            <w form="run" tags="NN VB"/>
          </taglexicon>
        </resources>"""
    )


def test_known_form_gets_first_listed_tag():
    tagged = tag_sentence("the inhibits run", make_bundle())
    assert [t.source_tag for t in tagged] == ["DT", "VBZ", "NN"]


def test_unknown_lowercase_gets_default():
    tagged = tag_sentence("the flurble", make_bundle())
    assert tagged[1].source_tag == "NN"


def test_unknown_capitalized_noninitial_gets_capitalized_tag():
    tagged = tag_sentence("saw Smith", make_bundle())
    assert [t.source_tag for t in tagged] == ["NN", "NNP"]


def test_sentence_initial_capitalized_unknown_gets_default():
    tagged = tag_sentence("Smith saw", make_bundle())
    assert tagged[0].source_tag == "NN"


def test_lookup_is_case_sensitive_then_lowercased():
    tagged = tag_sentence("saw The", make_bundle())
    assert tagged[1].source_tag == "DT"


def tokens_with_tags(pairs):
    from xdoc.tagging import TaggedToken

    out = []
    offset = 0
    for i, (form, tag) in enumerate(pairs):
        out.append(TaggedToken(Token(i, form, offset, len(form.encode()) or 1), tag))
        offset += len(form.encode()) + 1
    return out


def test_apply_rules_empty_list_is_identity():
    tagged = tokens_with_tags([("to", "TO"), ("run", "NN")])
    assert apply_rules(tagged, []) == tagged


def test_apply_rule_prev_tag_fires():
    tagged = tokens_with_tags([("to", "TO"), ("run", "NN")])
    rule = ContextRule("NN", "VB", "prev_tag", "TO")
    assert [t.source_tag for t in apply_rules(tagged, [rule])] == ["TO", "VB"]


def test_apply_rule_without_trigger_is_noop():
    tagged = tokens_with_tags([("the", "DT"), ("run", "NN")])
    rule = ContextRule("NN", "VB", "prev_tag", "TO")
    assert apply_rules(tagged, [rule]) == tagged


@pytest.mark.parametrize(
    "trigger,value,expected",
    [
        ("next_tag", "B", ["X", "B", "C"]),
        ("prev2_tag", "A", ["A", "B", "X"]),
        ("next2_tag", "C", ["X", "B", "C"]),
        ("prev_word", "bb", ["A", "B", "X"]),
        ("next_word", "bb", ["X", "B", "C"]),
    ],
)
def test_apply_rule_trigger_variants(trigger, value, expected):
    tagged = tokens_with_tags([("aa", "A"), ("bb", "B"), ("cc", "C")])
    rules = [
        ContextRule("A", "X", trigger, value),
        ContextRule("C", "X", trigger, value),
    ]
    result = [t.source_tag for t in apply_rules(tagged, rules)]
    assert result == expected


def test_apply_rule_out_of_range_context_never_matches():
    tagged = tokens_with_tags([("aa", "A")])
    rules = [
        ContextRule("A", "X", "prev_tag", "A"),
        ContextRule("A", "X", "next_tag", "A"),
    ]
    assert apply_rules(tagged, rules) == tagged


def test_apply_rule_sweep_reads_tags_in_place():
    # A rewrite at position i must be visible to the same rule at i+1.
    tagged = tokens_with_tags([("x", "B"), ("y", "A"), ("z", "A")])
    rule = ContextRule("A", "B", "prev_tag", "B")
    assert [t.source_tag for t in apply_rules(tagged, [rule])] == ["B", "B", "B"]


plain_tags = st.sampled_from(["A", "B", "C"])
rule_strategy = st.builds(
    ContextRule,
    from_tag=st.just("A"),
    to_tag=st.sampled_from(["B", "C"]),
    trigger=st.sampled_from(["prev_tag", "next_tag", "prev2_tag", "next2_tag"]),
    trigger_value=plain_tags,
)


@given(
    st.lists(plain_tags, max_size=8),
    st.lists(rule_strategy, max_size=4),
    st.lists(rule_strategy, max_size=4),
)
@settings(max_examples=200)
def test_apply_rules_composes_sequentially(tags, rules1, rules2):
    tagged = tokens_with_tags([(f"w{i}", tag) for i, tag in enumerate(tags)])
    combined = apply_rules(tagged, rules1 + rules2)
    chained = apply_rules(apply_rules(tagged, rules1), rules2)
    assert combined == chained


def test_import_external_tags_single_sentence(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("Aspirin\tNNP\n.\t.\n\n", encoding="utf-8")
    sentences = import_external_tags(path)
    assert len(sentences) == 1
    assert [(t.token.form, t.source_tag) for t in sentences[0]] == [
        ("Aspirin", "NNP"),
        (".", "."),
    ]
    # offsets as if forms were joined by single spaces
    assert [(t.token.offset, t.token.length) for t in sentences[0]] == [(0, 7), (8, 1)]


def test_import_external_tags_two_blocks(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("a\tX\n\nb\tY\n", encoding="utf-8")
    sentences = import_external_tags(path)
    assert [len(s) for s in sentences] == [1, 1]
    assert sentences[1][0].token.offset == 2


def test_import_external_tags_rejects_untabbed_line(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("Aspirin NNP\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        import_external_tags(path)
    assert exc.value.line_number == 1


def test_map_tagset_annotates_parser_tags():
    tagged = tokens_with_tags([("A", "NNP"), ("i", "VBZ"), ("c", "NN"), (".", ".")])
    mapping = {"NN": "N", "NNP": "N", "VBZ": "V", "DT": "DET", "IN": "PREP", ".": "EOS"}
    mapped = map_tagset(tagged, mapping)
    assert [t.parser_tag for t in mapped] == ["N", "V", "N", "EOS"]
    assert [t.source_tag for t in mapped] == ["NNP", "VBZ", "NN", "."]


def test_map_tagset_identity_map():
    tagged = tokens_with_tags([("x", "X")])
    assert map_tagset(tagged, {"X": "X"})[0].parser_tag == "X"


def test_map_tagset_unknown_tag_raises_with_offset():
    tagged = tokens_with_tags([("ok", "NN"), ("odd", "FW")])
    with pytest.raises(UnmappedTag) as exc:
        map_tagset(tagged, {"NN": "N"})
    assert exc.value.source_tag == "FW"
    assert exc.value.offset == tagged[1].token.offset


def test_map_tagset_is_annotation_only():
    tagged = tokens_with_tags([("a", "NN"), ("b", "NN")])
    mapped = map_tagset(tagged, {"NN": "N"})
    assert [t.token for t in mapped] == [t.token for t in tagged]
    assert all(t.parser_tag is None for t in tagged)


def test_initial_tag_requires_default_for_unknowns():
    from xdoc.errors import ResourceError

    bundle = loads_bundle('<resources lang="en"><taglexicon><w form="a" tags="X"/></taglexicon></resources>')
    with pytest.raises(ResourceError):
        tag_sentence("a b", bundle)


def test_import_external_tags_rejects_two_tabs(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("a\tX\tmore\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        import_external_tags(path)
    assert exc.value.line_number == 1


@given(st.lists(st.sampled_from(["the", "inhibits", "of", "Unknown", "xyz", "COX-2"]), min_size=1, max_size=8))
@settings(max_examples=100)
def test_valid_bundle_tags_are_always_mappable(en_bio, words):
    # guaranteed by validation: lexicon tags, default, capitalized tag and
    # rule targets are all in the tagset map domain
    sentence = sentence_of(" ".join(words))
    tagged = apply_rules(initial_tag(sentence, en_bio), en_bio.context_rules)
    mapped = map_tagset(tagged, en_bio.tagset_map)
    assert all(t.parser_tag is not None for t in mapped)


def test_import_external_tags_tolerates_crlf(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_bytes(b"Aspirin\tNNP\r\n.\t.\r\n")
    sentences = import_external_tags(path)
    assert [(t.token.form, t.source_tag) for t in sentences[0]] == [
        ("Aspirin", "NNP"),
        (".", "."),
    ]


@pytest.mark.parametrize("brk", ["\r", "\x85", "\u2028", "\u2029"])
@pytest.mark.parametrize("line", ["Her{}stellers\tNN", "Herstellers{}\tNN", "Herstellers\tN{}N", "Herstellers\tNN{}\r"])
def test_import_external_tags_refuses_a_line_break_in_a_form_or_tag(tmp_path, brk, line):
    from xdoc.errors import InputError

    path = tmp_path / "tags.tsv"
    path.write_bytes(f"des\tARTG\n{line.format(brk)}\n".encode())
    with pytest.raises(InputError, match=f"line 2: line break U\\+{ord(brk):04X} inside a form or tag"):
        import_external_tags(path)


def test_import_external_tags_takes_line_breaks_on_a_blank_line(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_bytes("a\tX\n\r\u2028\x85\u2029\r\nb\tY\n".encode())
    assert [[t.token.form for t in sentence] for sentence in import_external_tags(path)] == [["a"], ["b"]]


def test_import_external_tags_rejects_non_utf8(tmp_path):
    from xdoc.errors import InputError

    path = tmp_path / "tags.tsv"
    path.write_bytes(b"\xff\xfe\tX\n")
    with pytest.raises(InputError):
        import_external_tags(path)


def test_import_external_tags_without_trailing_newline(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("a\tX\nb\tY", encoding="utf-8")
    sentences = import_external_tags(path)
    assert [(t.token.form, t.source_tag) for t in sentences[0]] == [("a", "X"), ("b", "Y")]


def test_import_external_tags_keeps_a_lone_cr_inside_its_line(tmp_path):
    # Only \n ends a line, so the lone \r joins two form<TAB>tag pairs
    # into one line with two tabs.
    path = tmp_path / "tags.tsv"
    path.write_bytes(b"Aspirin\tNNP\ninhibits\tVBZ\rcyclooxygenase\tNN\n.\t.\n")
    with pytest.raises(MalformedLine) as exc:
        import_external_tags(path)
    assert exc.value.line_number == 2


def test_import_external_tags_numbers_lines_past_a_lone_cr(tmp_path):
    # Line 1 is blank with a lone \r in it; the bad line is line 2.
    path = tmp_path / "tags.tsv"
    path.write_bytes(b" \r \nAspirin NNP\n")
    with pytest.raises(MalformedLine) as exc:
        import_external_tags(path)
    assert exc.value.line_number == 2
