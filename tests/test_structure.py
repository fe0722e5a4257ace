from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from xdoc.structure import (
    PUNCTUATION,
    Sentence,
    Token,
    is_punctuation,
    segment,
)


def forms(tokens):
    return [t.form for t in tokens]


def tokens_of(text, abbreviations=()):
    return segment(text, abbreviations)[0]


def test_tokenize_offsets_counted_by_hand():
    tokens = tokens_of("Aspirin inhibits COX-2.")
    assert forms(tokens) == ["Aspirin", "inhibits", "COX-2", "."]
    assert [t.offset for t in tokens] == [0, 8, 17, 22]


def test_tokenize_empty_text():
    assert tokens_of("") == []


def test_abbreviation_keeps_trailing_period():
    tokens = tokens_of("e.g. cells", {"e.g."})
    assert forms(tokens) == ["e.g.", "cells"]


def test_abbreviation_absent_splits_periods():
    assert forms(tokens_of("e.g. cells")) == ["e", ".", "g", ".", "cells"]


def test_punctuation_split_into_own_tokens():
    assert forms(tokens_of('He said: "stop (now), please!"')) == [
        "He", "said", ":", '"', "stop", "(", "now", ")", ",", "please", "!", '"',
    ]


def test_digit_internal_punctuation_stays_inside():
    assert forms(tokens_of("pH 3.5 rose 1,000-fold")) == ["pH", "3.5", "rose", "1,000-fold"]


def test_hyphenated_token_is_one_token():
    assert forms(tokens_of("COX-2 level")) == ["COX-2", "level"]


def test_multibyte_offsets_are_byte_based():
    text = "Über die Löslichkeit."
    tokens = tokens_of(text)
    raw = text.encode("utf-8")
    for token in tokens:
        assert raw[token.offset : token.offset + token.length].decode("utf-8") == token.form


def test_abbreviation_followed_by_punctuation():
    tokens = tokens_of("(e.g. Dr.),", {"e.g.", "Dr."})
    assert forms(tokens) == ["(", "e.g.", "Dr.", ")", ","]


def test_split_sentences_abbreviation_aware():
    abbrevs = {"Dr."}
    _, sentences = segment("Dr. Smith arrived. He left.", abbrevs)
    assert [len(s.tokens) for s in sentences] == [4, 3]


def test_split_sentences_no_terminator():
    _, sentences = segment("hello world")
    assert [len(s.tokens) for s in sentences] == [2]


def test_split_sentences_empty():
    assert segment("") == ([], [])


def test_split_sentences_partition():
    tokens, sentences = segment("One. Two! Three? Four")
    flat = [t for s in sentences for t in s.tokens]
    assert flat == tokens
    assert [s.id for s in sentences] == list(range(len(sentences)))


def test_segment_resets_at_blank_line():
    tokens, sentences = segment("one two\n\nthree")
    assert [len(s.tokens) for s in sentences] == [2, 1]
    flat = [t for s in sentences for t in s.tokens]
    assert flat == tokens


TEXT_ALPHABET = "abA .!?\n-3(ü"
texts = st.text(alphabet=st.sampled_from(list(TEXT_ALPHABET)), max_size=60)
# Overlapping abbreviations: one is a prefix ("a." / "a.b."), a suffix
# ("ab." / "b.") or an infix ("b.a." / "a.") of another.
ABBREVIATIONS = ["a.", "ab.", "b.a.", "A.", "a.b.", "b."]
abbrev_sets = st.sets(st.sampled_from(ABBREVIATIONS), max_size=4)
# Text glued from abbreviations and single characters, so that
# overlapping abbreviations compete at the same position.
abbrev_texts = st.lists(st.sampled_from(ABBREVIATIONS + list(TEXT_ALPHABET))).map("".join)


def _reference_tokenize(text, abbreviations):
    """Linear scan: every abbreviation, longest first, tried at every character."""
    abbrevs = sorted((a for a in abbreviations if a), key=len, reverse=True)
    forms = []
    for run in re.findall(r"\S+", text):
        pos = 0
        while pos < len(run):
            hit = next((a for a in abbrevs if run.startswith(a, pos)), None)
            if hit is None and run[pos] in PUNCTUATION:
                hit = run[pos]
            if hit is None:
                end = pos
                while end < len(run):
                    ch = run[end]
                    digit_internal = (
                        ch in ".,"
                        and pos < end < len(run) - 1
                        and run[end - 1].isdigit()
                        and run[end + 1].isdigit()
                    )
                    if ch in PUNCTUATION and not digit_internal:
                        break
                    end += 1
                hit = run[pos:end]
            forms.append(hit)
            pos += len(hit)
    tokens, cursor = [], 0
    for form in forms:
        start = text.index(form, cursor)
        offset = len(text[:start].encode("utf-8"))
        tokens.append(Token(len(tokens), form, offset, len(form.encode("utf-8"))))
        cursor = start + len(form)
    return tokens


@given(texts, abbrev_sets)
@settings(max_examples=200)
def test_tokens_index_back_into_source(text, abbrevs):
    raw = text.encode("utf-8")
    tokens = tokens_of(text, abbrevs)
    previous_end = 0
    for token in tokens:
        assert raw[token.offset : token.offset + token.length].decode("utf-8") == token.form
        assert token.offset >= previous_end
        previous_end = token.offset + token.length
    # concatenating forms with the original gaps reconstructs the text
    rebuilt = bytearray(raw)
    for token in tokens:
        rebuilt[token.offset : token.offset + token.length] = token.form.encode("utf-8")
    assert bytes(rebuilt) == raw


@given(abbrev_texts, abbrev_sets)
@settings(max_examples=300)
def test_tokenize_matches_linear_scan(text, abbrevs):
    assert tokens_of(text, abbrevs) == _reference_tokenize(text, abbrevs)


@given(texts, abbrev_sets)
@settings(max_examples=200)
def test_sentences_partition_tokens(text, abbrevs):
    tokens, sentences = segment(text, abbrevs)
    assert [t for s in sentences for t in s.tokens] == tokens
    for sentence in sentences:
        assert isinstance(sentence, Sentence)
        assert sentence.tokens


@given(texts, abbrev_sets)
@settings(max_examples=200)
def test_removing_abbreviation_never_merges_sentences(text, abbrevs):
    for dropped in abbrevs:
        smaller = abbrevs - {dropped}
        _, full = segment(text, abbrevs)
        _, reduced = segment(text, smaller)
        assert len(reduced) >= len(full)


def _reference_segment(text, abbrevs):
    """Naive segment: the linear-scan tokens, re-encoding the prefix per
    break and testing every break per token."""
    tokens = _reference_tokenize(text, abbrevs)
    breaks = [len(text[: m.start()].encode("utf-8")) for m in re.finditer(r"\n[ \t\r]*\n", text)]
    sentences, current = [], []
    for token in tokens:
        if current:
            prev_end = current[-1].offset + current[-1].length
            if any(prev_end <= b < token.offset for b in breaks):
                sentences.append(Sentence(len(sentences), tuple(current)))
                current = []
        current.append(token)
        if token.form in ".!?" and token.form not in abbrevs:
            sentences.append(Sentence(len(sentences), tuple(current)))
            current = []
    if current:
        sentences.append(Sentence(len(sentences), tuple(current)))
    return tokens, sentences


# Words with one- to four-byte UTF-8 characters, joined by gaps that are
# often blank lines, so break offsets and token offsets diverge from
# character offsets.  Some gaps hold whitespace that ``\S+`` skips but a
# blank line does not (form feed, ``\v``, ``\x1c``), around or between
# line ends, where a test per gap and a scan of the whole text could differ.
multibyte_words = st.text(alphabet=st.sampled_from(list("aZ.3-äß€𝔸")), min_size=1, max_size=6)
gaps = st.sampled_from([" ", "\n", "\n\n", "\n \t\n", "\n\r\n\n", " \n\n\n ", "\t",
                        "\x0c", "\n\x0b\n", "\n\x1c\n", "\n \n", "\n\n\x0c"])
paragraph_texts = st.lists(st.tuples(multibyte_words, gaps), max_size=25).map(
    lambda pairs: "".join(word + gap for word, gap in pairs)
)


@given(paragraph_texts, abbrev_sets)
@settings(max_examples=300)
def test_segment_matches_naive_reference(text, abbrevs):
    assert segment(text, abbrevs) == _reference_segment(text, abbrevs)


@given(st.text(alphabet=st.sampled_from(sorted(PUNCTUATION) + list("aZ1ä .-"))))
def test_is_punctuation_matches_character_test(form):
    assert is_punctuation(form) == (bool(form) and all(ch in PUNCTUATION for ch in form))


def test_segment_builds_the_abbreviation_table_once_per_set():
    from xdoc.structure import _abbreviation_table

    abbrevs = frozenset({"Dr.", "e.g."})
    segment("Dr. Smith came. He left.", abbrevs)
    before = _abbreviation_table.cache_info()
    tokens, _ = segment("See e.g. Dr. Who. And that.", abbrevs)
    after = _abbreviation_table.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert [t.form for t in tokens][:4] == ["See", "e.g.", "Dr.", "Who"]
