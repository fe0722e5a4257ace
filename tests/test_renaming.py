"""A language is data: renaming a bundle's names renames its output, nothing else.

Categories and parser tags share one namespace (grammar terminals are
parser tags); feature values, concept ids and relation names have their
own.  A renaming
is consistent when every occurrence of a name in the bundle, function
declarations included, gets the same new name and distinct names stay
distinct.  The relation table of fixed sentences must then equal the
original one with its relation and concept columns renamed.
"""

from __future__ import annotations

import importlib.resources
import xml.etree.ElementTree as ET
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdoc.pipeline import analyze_text, export_relations
from xdoc.resources import loads_bundle, validate_bundle

# (element, attribute) -> the namespace the attribute's value is a name in.
NAMESPACES = {
    "grammar": {"start": "category"},
    "rule": {"lhs": "category"},  # context rules have no lhs attribute
    "cat": {"name": "category"},
    "function": {"after": "category", "before": "category"},
    "map": {"to": "category"},
    "entry": {"pos": "category"},
    "pattern": {"cat": "category", "relation": "relation"},
    "m": {"name": "category"},
    "frame": {"relation": "relation"},
    "concept": {"id": "concept"},
    "isa": {"ref": "concept"},
    "lexmap": {"concept": "concept"},
    "slot": {"fill": "concept"},
}

TEXTS = {
    "en-bio": "Aspirin inhibits cyclooxygenase .\n"
              "Water inhibits the cyclooxygenase of the liver .\n"
              "The patient inhibits aspirin .\n",
    "de-core": "Den Katalysator hemmt der Wirkstoff .\n"
               "Der Wirkstoff des Herstellers hemmt den Katalysator des Labors .\n"
               "Der Hersteller hemmt den Wirkstoff .\n",
}


@cache
def _bundle_xml(name: str) -> str:
    return (importlib.resources.files("xdoc") / "bundles" / f"{name}.xml").read_text(encoding="utf-8")


def _named(elem: ET.Element):
    """(attribute, namespace) for each name ``elem`` carries."""
    spaces = NAMESPACES.get(elem.tag, {})
    grammar_symbol = elem.tag == "cat" or "lhs" in elem.attrib
    for attr in elem.attrib:
        if attr in spaces:
            yield attr, spaces[attr]
        elif grammar_symbol and attr not in ("lhs", "head", "name"):
            yield attr, "feature value"


def _names(xml: str) -> dict[str, list[str]]:
    found: dict[str, set[str]] = {}
    for elem in ET.fromstring(xml).iter():
        for attr, space in _named(elem):
            found.setdefault(space, set()).add(elem.get(attr))
    return {space: sorted(names) for space, names in found.items()}


def renamed(xml: str, renaming: dict[str, dict[str, str]], only: tuple[str, ...] = ()) -> str:
    """``xml`` with every name renamed; with ``only``, just in those elements."""
    root = ET.fromstring(xml)
    sections = [root.find(tag) for tag in only] if only else [root]
    for section in sections:
        for elem in section.iter():
            for attr, space in list(_named(elem)):
                elem.set(attr, renaming.get(space, {}).get(elem.get(attr), elem.get(attr)))
    return ET.tostring(root, encoding="unicode")


def _tsv(xml: str, text: str) -> list[list[str]]:
    bundle = loads_bundle(xml)
    assert validate_bundle(bundle) == []
    return [row.split("\t") for row in export_relations(analyze_text(bundle, text)).splitlines()]


def _renamed_rows(rows: list[list[str]], renaming: dict[str, dict[str, str]]) -> list[list[str]]:
    concept = renaming["concept"]
    return rows[:1] + [
        [renaming["relation"][rel], a1, concept.get(c1, c1), a2, concept.get(c2, c2), sid]
        for rel, a1, c1, a2, c2, sid in rows[1:]
    ]


_NAME = st.text(st.characters(categories=("Lu", "Ll", "Lo", "Nd")), min_size=1, max_size=4)


@st.composite
def renamings(draw, names: dict[str, list[str]]) -> dict[str, dict[str, str]]:
    return {
        space: dict(zip(old, draw(st.lists(_NAME, min_size=len(old), max_size=len(old), unique=True))))
        for space, old in names.items()
    }


@pytest.mark.parametrize("name", sorted(TEXTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_output_follows_a_consistent_renaming(name, data):
    xml, text = _bundle_xml(name), TEXTS[name]
    original = _tsv(xml, text)
    assert len(original) > 2, "the fixed sentences must give relation rows"
    renaming = data.draw(renamings(_names(xml)))
    assert _tsv(renamed(xml, renaming), text) == _renamed_rows(original, renaming)


NX = {"category": {"NP": "NX", "VP": "VX"}}


def test_en_bio_with_nx_and_vx_gives_its_relations():
    xml, text = _bundle_xml("en-bio"), TEXTS["en-bio"]
    assert _tsv(renamed(xml, NX), text) == _tsv(xml, text)


def test_en_bio_with_stale_declarations_fails_validation():
    xml = _bundle_xml("en-bio")
    stale = loads_bundle(renamed(xml, NX, only=("grammar", "structmap")))
    assert {(f.code, f.location) for f in validate_bundle(stale)} == {
        ("UnknownFunctionCategory", "functions/function[subject]"),
        ("UnknownFunctionCategory", "functions/function[object]"),
    }
