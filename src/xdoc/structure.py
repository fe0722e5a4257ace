"""Tokenization and abbreviation-aware sentence boundary detection.

Both operations are language independent; the only language-dependent
input is the abbreviation set taken from the resource bundle.  Offsets
are byte offsets into the UTF-8 encoding of the source text so that
annotations stay bit-exact regardless of platform string handling.
:func:`segment` walks the text once, noting blank lines as it tokenizes.

:class:`Token` and :class:`Sentence` are :class:`typing.NamedTuple`
records: immutable and hashable like any tuple, cheap to build once
per token, and, being tuples, they unpack, have a ``len`` and equal a
plain tuple of the same values.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Container, Iterable, Iterator, Mapping, NamedTuple

__all__ = [
    "PUNCTUATION",
    "TERMINATORS",
    "Token",
    "Sentence",
    "segment",
    "is_punctuation",
]

PUNCTUATION = frozenset(".,;:!?()\"'")
_PUNCTUATION_CHARS = "".join(sorted(PUNCTUATION))  # the same set, as str.strip takes it
TERMINATORS = frozenset(".!?")

_RUN = re.compile(r"\S+")
_PARAGRAPH = re.compile(r"\n[ \t\r]*\n")


class Token(NamedTuple):
    id: int
    form: str
    offset: int  # byte offset into the UTF-8 source
    length: int  # byte length


class Sentence(NamedTuple):
    id: int
    tokens: tuple[Token, ...]


def is_punctuation(form: str) -> bool:
    return bool(form) and not form.strip(_PUNCTUATION_CHARS)  # empty iff all punctuation


def _blen(s: str) -> int:
    return len(s.encode("utf-8"))


def _split_run(run: str, abbrevs: Mapping[str, tuple[str, ...]]) -> Iterator[str]:
    """Split one whitespace-free run into token forms, in order.

    Punctuation characters become their own tokens except when they sit
    between digits (decimal points, digit grouping) or when an
    abbreviation from the lexicon starts at the current position; the
    longest such abbreviation is then emitted whole, trailing period
    included.  ``abbrevs`` maps a first character to the abbreviations
    starting with it, longest first.
    """
    pos = 0
    n = len(run)
    while pos < n:
        hit = next((a for a in abbrevs.get(run[pos], ()) if run.startswith(a, pos)), None)
        if hit is not None:
            yield hit
            pos += len(hit)
            continue
        if run[pos] in PUNCTUATION:
            yield run[pos]
            pos += 1
            continue
        j = pos
        while j < n:
            ch = run[j]
            if ch in PUNCTUATION:
                digit_internal = (
                    ch in ".,"
                    and j > pos
                    and j + 1 < n
                    and run[j - 1].isdigit()
                    and run[j + 1].isdigit()
                )
                if not digit_internal:
                    break
            j += 1
        yield run[pos:j]
        pos = j


@lru_cache(maxsize=32)
def _abbreviation_table(abbreviations: frozenset[str]) -> Mapping[str, tuple[str, ...]]:
    """The abbreviations by first character, longest first, built once
    per abbreviation set (a bundle's set keeps its hash once computed)."""
    table: dict[str, list[str]] = {}
    for a in sorted((a for a in abbreviations if a), key=len, reverse=True):
        table.setdefault(a[0], []).append(a)
    return {first: tuple(forms) for first, forms in table.items()}


def _scan(text: str, abbreviations: frozenset[str]) -> tuple[list[Token], set[int]]:
    """The tokenizer's one walk over ``text``: its tokens, and the ids of
    the tokens whose preceding whitespace gap holds a blank line."""
    abbrevs = _abbreviation_table(abbreviations)
    tokens: list[Token] = []
    after_blank_line: set[int] = set()
    char_pos = 0
    byte_pos = 0
    for match in _RUN.finditer(text):
        gap = text[char_pos : match.start()]
        if "\n" in gap and _PARAGRAPH.search(gap):
            after_blank_line.add(len(tokens))
        byte_pos += _blen(gap)
        for piece in _split_run(match.group(), abbrevs):
            length = _blen(piece)
            tokens.append(Token(len(tokens), piece, byte_pos, length))
            byte_pos += length
        char_pos = match.end()
    return tokens, after_blank_line


def _group(tokens: Iterable[Token], abbrevs: Container[str], breaks: Container[int]) -> list[Sentence]:
    """End a sentence before each token whose id is in ``breaks`` and after
    each standalone terminator that is not an abbreviation."""
    sentences: list[Sentence] = []
    current: list[Token] = []
    for token in tokens:
        if current and token.id in breaks:
            sentences.append(Sentence(len(sentences), tuple(current)))
            current = []
        current.append(token)
        if token.form in TERMINATORS and token.form not in abbrevs:
            sentences.append(Sentence(len(sentences), tuple(current)))
            current = []
    if current:
        sentences.append(Sentence(len(sentences), tuple(current)))
    return sentences


def segment(text: str, abbreviations: Iterable[str] = ()) -> tuple[list[Token], list[Sentence]]:
    """Tokens with byte offsets, covering every non-whitespace run, and their sentences.

    Hyphens and digit-internal punctuation stay inside tokens (``COX-2``
    and ``3.5``); an abbreviation such as ``Dr.`` keeps its period, so it
    ends no sentence.  A sentence ends at each standalone terminator
    (``.`` ``!`` ``?``) and at each blank line, which makes no element of
    its own; a final run without terminator is a sentence too.
    """
    abbrevs = frozenset(abbreviations)  # the same object when given a frozenset
    tokens, after_blank_line = _scan(text, abbrevs)
    return tokens, _group(tokens, abbrevs, after_blank_line)
