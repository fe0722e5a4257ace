"""The contracts of the per-token and per-tree records.

``Token``, ``Sentence``, ``TaggedToken`` and ``ParseTree`` are built by
every layer, so their construction, immutability, equality and hashing
are pinned here, independently of how the records are implemented.
"""

from __future__ import annotations

import pytest

from xdoc.parsing import ParseTree
from xdoc.resources import Category
from xdoc.structure import Sentence, Token
from xdoc.tagging import TaggedToken

TOKEN = Token(3, "Aspirin", 10, 7)
LEAF = ParseTree(Category("N"), 0, 1)


def _records():
    """(record type, positional values, field names in declaration order)."""
    tagged = (TOKEN, "NN", "N", "aspirin", "drug", "Drug")
    tree = (Category("NP", {"case": "nom"}), 0, 2, (LEAF, ParseTree(Category("N"), 1, 2)), 1, 4)
    cases = [
        (Token, (3, "Aspirin", 10, 7), ("id", "form", "offset", "length")),
        (Sentence, (0, (TOKEN,)), ("id", "tokens")),
        (TaggedToken, tagged,
         ("token", "source_tag", "parser_tag", "lemma", "semclass", "concept")),
        (ParseTree, tree, ("category", "start", "end", "children", "head", "rule_index")),
    ]
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


@pytest.mark.parametrize("cls, values, names", _records())
def test_positional_order_is_the_field_order(cls, values, names):
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert record == cls(**dict(zip(names, values)))


@pytest.mark.parametrize("cls, values, names", _records())
def test_assigning_a_field_raises(cls, values, names):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("cls, values, names", _records())
def test_equal_values_hash_and_compare_equal(cls, values, names):
    a, b = cls(*values), cls(*values)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    changed = cls(*values[:1], *(None for _ in values[1:]))
    assert changed != a


def test_defaults_are_unchanged():
    tagged = TaggedToken(TOKEN, "NN")
    assert (tagged.parser_tag, tagged.lemma, tagged.semclass, tagged.concept) == (None,) * 4
    assert (LEAF.children, LEAF.head, LEAF.rule_index) == ((), 0, None)
    assert LEAF.is_leaf

