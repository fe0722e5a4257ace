"""Acceptance suite: the exit criteria for this package.

Each test prints one pass/fail line so a plain ``pytest -s
tests/test_acceptance.py`` run doubles as a checklist.  Expected values
come from independent oracles (brute-force CYK recognition, exhaustive
bracketing counts, reachability enumeration) or from hand-traced
fixture runs frozen below.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import xdoc
from bundlegen import random_bundle
from cyk_oracle import brute_force_spans, chart_spans, count_bracketings
from grammargen import random_case, to_grammar
from xdoc.cli import main
from xdoc.errors import CyclicOntology, MalformedResource
from xdoc.parsing import count_trees, parse
from xdoc.pipeline import analyze_text, export_relations
from xdoc.resources import (
    Category,
    Grammar,
    GrammarRule,
    load_bundle,
    loads_bundle,
    serialize_bundle,
    validate_bundle,
)
from xdoc.semantics import grammatical_functions
from xdoc.structure import segment

ASPIRIN = "Aspirin inhibits cyclooxygenase .\n"
GERMAN_OVS = "Den Katalysator hemmt der Wirkstoff .\n"


@contextmanager
def criterion(name: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_1_resource_round_trip(en_bio_path, de_core_path):
    with criterion("1 resource round-trip"):
        started = time.monotonic()
        for path in (en_bio_path, de_core_path):
            bundle = load_bundle(path)
            text = serialize_bundle(bundle)
            assert loads_bundle(text) == bundle
            assert serialize_bundle(loads_bundle(text)) == text
        rng = random.Random(94025)
        for _ in range(100):
            bundle = random_bundle(rng)
            text = serialize_bundle(bundle)
            reloaded = loads_bundle(text)
            assert reloaded == bundle
            assert serialize_bundle(reloaded).encode("utf-8") == text.encode("utf-8")
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"round-trip sweep took {elapsed:.2f}s"


def _mutated(source: str, tag: str, attr: str, value: str) -> str:
    root = ET.fromstring(source)
    parents = {child: parent for parent in root.iter() for child in parent}
    victim = next(e for e in root.iter(tag) if e.get(attr) == value)
    parents[victim].remove(victim)
    return ET.tostring(root, encoding="unicode")


def _detected(document: str) -> bool:
    try:
        bundle = loads_bundle(document)
    except (MalformedResource, CyclicOntology):
        return True  # reference checks enforced at load count as detection
    return len(validate_bundle(bundle)) > 0


def test_2_validation_mutation_suite(en_bio_path, en_bio):
    with criterion("2 validation mutation suite"):
        source = Path(en_bio_path).read_text(encoding="utf-8")
        assert validate_bundle(en_bio) == []
        mutations = [
            *(("map", "from", tag) for tag in ("DT", "IN", "NN", "NNP", "VBZ")),
            ("entry", "lemma", "inhibit"),
            *(
                ("concept", "id", concept)
                for concept in ("entity", "substance", "protein", "enzyme", "organ", "person")
            ),
        ]
        assert len(mutations) >= 10
        for tag, attr, value in mutations:
            mutated = _mutated(source, tag, attr, value)
            assert _detected(mutated), f"undetected deletion: <{tag} {attr}={value!r}>"


def test_3_parser_matches_brute_force_oracle():
    with criterion("3 parser vs brute-force oracle"):
        started = time.monotonic()
        rng = random.Random(60614)
        for _ in range(1000):
            rules, tags = random_case(rng)
            chart = parse(tags, to_grammar(rules))
            assert chart_spans(chart) == brute_force_spans(rules, tags), (rules, tags)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.2f}s"


def test_4_catalan_ambiguity_count():
    with criterion("4 ambiguity count (Catalan)"):
        grammar = Grammar(
            "NP",
            (
                GrammarRule(Category("NP"), (Category("NP"), Category("NP")), 1),
                GrammarRule(Category("NP"), (Category("N"),), 1),
            ),
        )
        assert count_bracketings(4) == 5
        assert count_trees(parse(["N"] * 4, grammar), "NP") == 5


def _analyze_via_cli(bundle_path: str, text: str, tmp_path: Path, stem: str):
    doc = tmp_path / f"{stem}.txt"
    doc.write_text(text, encoding="utf-8")
    xml_out = tmp_path / f"{stem}.xml"
    tsv_out = tmp_path / f"{stem}.tsv"
    code = main(
        [
            "analyze",
            "--bundle", bundle_path,
            "--input", str(doc),
            "--output", str(xml_out),
            "--relations-tsv", str(tsv_out),
        ]
    )
    assert code == 0
    return xml_out.read_bytes(), tsv_out.read_bytes()


def test_5_multilingual_sharing(en_bio_path, de_core_path, tmp_path):
    with criterion("5 multilingual resource sharing"):
        _, en_tsv = _analyze_via_cli(en_bio_path, ASPIRIN, tmp_path, "en")
        _, de_tsv = _analyze_via_cli(de_core_path, GERMAN_OVS, tmp_path, "de")
        en_rows = en_tsv.decode("utf-8").splitlines()[1:]
        de_rows = de_tsv.decode("utf-8").splitlines()[1:]
        assert en_rows == ["inhibits\tAspirin\tsubstance\tcyclooxygenase\tenzyme\ts1"]
        assert de_rows == ["hemmt\tWirkstoff\tsubstanz\tKatalysator\tenzym\ts1"]

        # No code path may branch on the language: the bundle path is the
        # only language-dependent configuration.
        conditional = re.compile(r"""\blang\b\s*(==|!=|\sin\s)|(==|!=)\s*["'](en|de)["']""")
        package_dir = Path(xdoc.__file__).parent
        for path in sorted(package_dir.glob("*.py")):
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                assert not conditional.search(line), f"{path.name}:{lineno}: {line.strip()}"


def test_6_positional_vs_case_marked_subjects(en_bio, de_core):
    with criterion("6 positional vs case-marked subjects"):
        doc = analyze_text(de_core, GERMAN_OVS)
        tree = doc.sentences[0].tree
        assert tree is not None
        mapped = doc.sentences[0].parse_input

        def head_form(node):
            return mapped[node.head_leaf().start].token.form

        # de-core declares its functions by case, en-bio by position
        case_marked = grammatical_functions(tree, de_core.functions)
        positional = grammatical_functions(tree, en_bio.functions)
        # post-verbal nominative NP is the subject under case marking
        assert head_form(case_marked["subject"]) == "Wirkstoff"
        assert (case_marked["subject"].start, case_marked["subject"].end) == (3, 5)
        # the same token order read positionally binds the pre-verbal NP
        assert head_form(positional["subject"]) == "Katalysator"
        assert (positional["subject"].start, positional["subject"].end) == (0, 2)


def test_7_np_structure_mapping(en_bio):
    with criterion("7 noun-phrase structure mapping"):
        flat_np = GrammarRule(
            Category("NP"),
            (Category("N"), Category("PREP"), Category("DET"), Category("N")),
            1,
        )
        grammar = Grammar("S", en_bio.grammar.rules + (flat_np,))
        bundle = replace(en_bio, grammar=grammar)
        assert validate_bundle(bundle) == []

        doc = analyze_text(bundle, "liver of the patient")
        rows = export_relations(doc).splitlines()[1:]
        assert rows == ["has\tpatient\tperson\tliver\torgan\ts1"]

        stripped = replace(bundle, struct_patterns=())
        doc = analyze_text(stripped, "liver of the patient")
        assert export_relations(doc).splitlines()[1:] == []


def test_8_abbreviation_sensitivity():
    with criterion("8 abbreviation sensitivity"):
        text = "Dr. Smith arrived. He left."
        _, with_abbrev = segment(text, {"Dr."})
        _, without_abbrev = segment(text, set())
        assert len(with_abbrev) == 2
        assert len(without_abbrev) == 3


def test_9_end_to_end_determinism(en_bio_path, tmp_path):
    with criterion("9 end-to-end determinism"):
        nouns = ["cyclooxygenase", "water", "aspirin", "trypsin", "pepsin"]
        lines = []
        for i in range(50):
            if i % 7 == 3:
                lines.append("Dr. Smith examined the liver of the patient .")
            else:
                lines.append(f"Aspirin inhibits {nouns[i % len(nouns)]} .")
        text = "\n".join(lines) + "\n"
        doc = tmp_path / "doc.txt"
        doc.write_text(text, encoding="utf-8")

        # two separate processes, different hash seeds: output bytes may not
        # depend on anything but the input and the bundle
        outputs = []
        for run, seed in (("run1", "0"), ("run2", "4242")):
            xml_out = tmp_path / f"{run}.xml"
            tsv_out = tmp_path / f"{run}.tsv"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = str(Path(xdoc.__file__).parent.parent) + os.pathsep + env.get(
                "PYTHONPATH", ""
            )
            subprocess.run(
                [
                    sys.executable, "-m", "xdoc", "analyze",
                    "--bundle", en_bio_path,
                    "--input", str(doc),
                    "--output", str(xml_out),
                    "--relations-tsv", str(tsv_out),
                ],
                check=True,
                env=env,
            )
            outputs.append((xml_out.read_bytes(), tsv_out.read_bytes()))
        assert outputs[0] == outputs[1]
        document = ET.fromstring(outputs[0][0].decode("utf-8"))
        assert len(document.findall("sentence")) == 50
