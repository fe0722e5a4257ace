"""Part-of-speech tagging and tagset mapping.

The built-in tagger is a two-step substitute for an external tool: a
lexicon pass that assigns each token its most likely source tag,
followed by ordered transformation rules that patch tags in context.
Externally produced taggings can be imported from a tab-separated file
instead.  Either way the source tagset is then mapped onto the smaller
tagset the grammar's terminals use.

:class:`TaggedToken` is a :class:`typing.NamedTuple`, like the
:class:`~xdoc.structure.Token` it wraps: immutable, hashable, cheap to
build per token, and a tuple, so it unpacks, has a ``len`` and equals a
plain tuple of the same values.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InputError, MalformedLine, ResourceError, UnmappedTag
from .resources import _LINE_BREAKS, _NOT_XML, _TRIGGER_OFFSETS, ContextRule, ResourceBundle
from .structure import Sentence, Token

__all__ = [
    "TaggedToken",
    "initial_tag",
    "apply_rules",
    "import_external_tags",
    "map_tagset",
]


class TaggedToken(NamedTuple):
    """A token plus its accumulated annotations.

    ``source_tag`` is the tag in the upstream tagger's tagset;
    ``parser_tag`` is set once the tagset map has run.  Lemma, semantic
    class and ontology concept are filled in by the semantic tagger.
    """

    token: Token
    source_tag: str
    parser_tag: str | None = None
    lemma: str | None = None
    semclass: str | None = None
    concept: str | None = None


def initial_tag(sentence: Sentence, bundle: ResourceBundle) -> list[TaggedToken]:
    """Assign each token its most likely source tag from the lexicon.

    Known forms (exact match first, then lowercased) get the first tag
    listed for them.  Unknown capitalized tokens that are not sentence
    initial get the lexicon's capitalized tag when one is configured;
    every other unknown token gets the default tag.
    """
    lexicon = bundle.tag_lexicon
    out: list[TaggedToken] = []
    for index, token in enumerate(sentence.tokens):
        tags = lexicon.get(token.form) or lexicon.get(token.form.lower())
        if tags:
            tag = tags[0]
        elif (
            index > 0
            and bundle.capitalized_tag is not None
            and token.form[:1].isupper()
        ):
            tag = bundle.capitalized_tag
        else:
            if bundle.default_tag is None:
                raise ResourceError(
                    f"bundle {bundle.lang!r} has no default tag for unknown forms"
                )
            tag = bundle.default_tag
        out.append(TaggedToken(token, tag))
    return out


def _trigger_holds(
    rule: ContextRule, index: int, tags: list[str], forms: Sequence[str]
) -> bool:
    where = index + _TRIGGER_OFFSETS[rule.trigger]
    if not 0 <= where < len(tags):
        return False
    if rule.trigger.endswith("_word"):
        return forms[where] == rule.trigger_value
    return tags[where] == rule.trigger_value


def apply_rules(
    tagged: Sequence[TaggedToken], rules: Iterable[ContextRule]
) -> list[TaggedToken]:
    """Run transformation rules, each in one left-to-right sweep.

    Within a sweep, conditions read the tags as they stand at evaluation
    time, so a rewrite at position i is visible to the rule's own test
    at position i+1.
    """
    tags = [t.source_tag for t in tagged]
    forms = [t.token.form for t in tagged]
    for rule in rules:
        for i in range(len(tags)):
            if tags[i] == rule.from_tag and _trigger_holds(rule, i, tags, forms):
                tags[i] = rule.to_tag
    return [
        t if t.source_tag == tag
        else TaggedToken(t.token, tag, t.parser_tag, t.lemma, t.semclass, t.concept)
        for t, tag in zip(tagged, tags)
    ]


_LINE_BREAK = re.compile(f"[{_LINE_BREAKS}]")


def import_external_tags(path: str | Path) -> list[list[TaggedToken]]:
    """Read tagged sentences from a ``form<TAB>tag`` file.

    A leading UTF-8 byte order mark is dropped.  A blank line ends a
    sentence.  A line ends at ``\n`` only, with the ``\r`` of a CRLF
    dropped, and line numbers count ``\n``.  Token offsets are
    synthesized as if the forms were joined by single spaces.  Raises
    :class:`MalformedLine` when a non-blank line does not contain
    exactly one tab, and :class:`InputError` for a character that XML
    cannot carry, since forms and tags reach the XML output as they are,
    or for a line break left in a form or tag (``\r``, U+0085, U+2028,
    U+2029), which would split a row of the relation table.
    """
    try:
        # Bytes, not read_text: universal newlines would end a line at a lone \r.
        text = Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read tag file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"tag file {path} is not valid UTF-8: {exc}") from None
    bad = _NOT_XML.search(text)
    if bad is not None:
        lineno = text.count("\n", 0, bad.start()) + 1
        raise InputError(f"tag file {path} line {lineno}: character U+{ord(bad.group()):04X} cannot be written as XML")
    # Most files hold no line break but \n; only others are searched line by line.
    may_break = any(map(text.__contains__, _LINE_BREAKS))
    sentences: list[list[TaggedToken]] = []
    current: list[TaggedToken] = []
    byte_pos = 0
    token_id = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.removesuffix("\r")
        if not line.strip():
            if current:
                sentences.append(current)
                current = []
            continue
        if line.count("\t") != 1:
            raise MalformedLine(lineno)
        brk = may_break and _LINE_BREAK.search(line)
        if brk:
            raise InputError(f"tag file {path} line {lineno}: line break U+{ord(brk.group()):04X} inside a form or tag")
        form, tag = line.split("\t")
        length = len(form.encode("utf-8"))
        current.append(TaggedToken(Token(token_id, form, byte_pos, length), tag))
        token_id += 1
        byte_pos += length + 1
    if current:
        sentences.append(current)
    return sentences


def map_tagset(
    tagged: Sequence[TaggedToken], tagset_map: Mapping[str, str]
) -> list[TaggedToken]:
    """Annotate every token with its parser tag; source tags are kept.

    Raises :class:`UnmappedTag` for a source tag without mapping.
    Callers that want to tolerate gaps catch the error and mark the
    sentence failed instead.
    """
    out: list[TaggedToken] = []
    for t in tagged:
        mapped = tagset_map.get(t.source_tag)
        if mapped is None:
            raise UnmappedTag(t.source_tag, t.token.offset)
        out.append(TaggedToken(t.token, t.source_tag, mapped, t.lemma, t.semclass, t.concept))
    return out
