from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import xdoc
import xdoc.cli
from xdoc.cli import main

ASPIRIN = "Aspirin inhibits cyclooxygenase .\n"


def test_validate_clean_bundle_exits_zero(en_bio_path, capsys):
    assert main(["validate", en_bio_path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_validate_malformed_bundle_exits_one(tmp_path, capsys):
    bad = tmp_path / "broken.xml"
    bad.write_text("<resources", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "resource error" in capsys.readouterr().err


def test_validate_reports_findings(tmp_path, capsys):
    bundle = tmp_path / "dangling.xml"
    bundle.write_text(
        """<resources lang="en">
          <taglexicon default="QQ"/>
          <tagmap><map from="NN" to="N"/></tagmap>
        </resources>""",
        encoding="utf-8",
    )
    assert main(["validate", str(bundle)]) == 1
    out = capsys.readouterr().out
    assert "UnmappableLexiconTag" in out


def test_analyze_writes_xml_and_tsv(en_bio_path, tmp_path):
    text = tmp_path / "doc.txt"
    text.write_text(ASPIRIN, encoding="utf-8")
    xml_out = tmp_path / "doc.xml"
    tsv_out = tmp_path / "doc.tsv"
    code = main(
        [
            "analyze",
            "--bundle", en_bio_path,
            "--input", str(text),
            "--output", str(xml_out),
            "--relations-tsv", str(tsv_out),
        ]
    )
    assert code == 0
    assert '<rel type="inhibits"' in xml_out.read_text(encoding="utf-8")
    assert "inhibits\tAspirin" in tsv_out.read_text(encoding="utf-8")


def test_analyze_missing_input_exits_two(en_bio_path, capsys):
    code = main(["analyze", "--bundle", en_bio_path, "--input", "/no/such/file.txt"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_analyze_invalid_stage_list_exits_two(en_bio_path, tmp_path, capsys):
    text = tmp_path / "doc.txt"
    text.write_text(ASPIRIN, encoding="utf-8")
    code = main(
        ["analyze", "--bundle", en_bio_path, "--input", str(text), "--stages", "tok,parse"]
    )
    assert code == 2


@pytest.mark.parametrize("stages", ["", ",", "tok,parse", "bogus"])
def test_analyze_bad_stage_list_is_input_error(en_bio_path, tmp_path, capsys, stages):
    text = tmp_path / "doc.txt"
    text.write_text(ASPIRIN, encoding="utf-8")
    code = main(["analyze", "--bundle", en_bio_path, "--input", str(text), "--stages", stages])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_analyze_bad_stage_list_is_checked_before_bundle(tmp_path, capsys):
    missing = str(tmp_path / "no-such-bundle.xml")
    code = main(["analyze", "--bundle", missing, "--input", "-", "--stages", "tok,parse"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_analyze_stage_prefix_limits_output(en_bio_path, tmp_path):
    text = tmp_path / "doc.txt"
    text.write_text(ASPIRIN, encoding="utf-8")
    xml_out = tmp_path / "doc.xml"
    code = main(
        [
            "analyze",
            "--bundle", en_bio_path,
            "--input", str(text),
            "--output", str(xml_out),
            "--stages", "tok,sent",
        ]
    )
    assert code == 0
    body = xml_out.read_text(encoding="utf-8")
    assert "<tokens>" in body
    assert "tag0" not in body


# No complete parse in en-bio; a run through the parse stage writes its
# mapped tags and no <parse>, and reads no chunk cover that no stage uses.
FALLBACK = "Aspirin inhibits cyclooxygenase at 2.5 mM.\n"
FALLBACK_TO_PARSE_XML = """<document lang="en">
  <sentence id="s1">
    <tokens>
      <t id="0" off="0" len="7" form="Aspirin" tag0="NN" tag="N"/>
      <t id="1" off="8" len="8" form="inhibits" tag0="VBZ" tag="V"/>
      <t id="2" off="17" len="14" form="cyclooxygenase" tag0="NN" tag="N"/>
      <t id="3" off="32" len="2" form="at" tag0="NN" tag="N"/>
      <t id="4" off="35" len="3" form="2.5" tag0="NN" tag="N"/>
      <t id="5" off="39" len="2" form="mM" tag0="NN" tag="N"/>
      <t id="6" off="41" len="1" form="." tag0="NN"/>
    </tokens>
  </sentence>
</document>
"""


def test_parse_prefix_writes_a_fallback_sentence_without_its_chunks(en_bio_path, tmp_path, monkeypatch):
    text = tmp_path / "doc.txt"
    text.write_text(FALLBACK, encoding="utf-8")
    xml_out = tmp_path / "doc.xml"
    read = []
    monkeypatch.setattr(xdoc.pipeline, "chunks", lambda chart: read.append(chart) or [])
    argv = ["analyze", "--bundle", en_bio_path, "--input", str(text), "--output", str(xml_out)]
    assert main(argv + ["--stages", "tok,sent,tag,map,parse"]) == 0
    assert xml_out.read_text(encoding="utf-8") == FALLBACK_TO_PARSE_XML
    assert read == []


def test_analyze_strict_unmappable_tag_exits_three(en_bio_path, tmp_path, capsys):
    tags = tmp_path / "tags.tsv"
    tags.write_text("Foo\tFW\n", encoding="utf-8")
    code = main(["analyze", "--bundle", en_bio_path, "--external-tags", str(tags)])
    assert code == 3
    assert "analysis error" in capsys.readouterr().err


def test_analyze_reports_a_lone_cr_line_as_one_malformed_line(en_bio_path, tmp_path, capsys):
    tags = tmp_path / "tags.tsv"
    tags.write_bytes(b"Aspirin\tNNP\ninhibits\tVBZ\rcyclooxygenase\tNN\n.\t.\n")
    code = main(["analyze", "--bundle", en_bio_path, "--lenient", "--external-tags", str(tags)])
    assert code == 2
    assert capsys.readouterr().err == "input error: line 2: expected exactly one tab\n"


def test_analyze_lenient_with_external_tags_succeeds(en_bio_path, tmp_path):
    tags = tmp_path / "tags.tsv"
    tags.write_text("Foo\tFW\n\nAspirin\tNNP\ninhibits\tVBZ\ncyclooxygenase\tNN\n", encoding="utf-8")
    xml_out = tmp_path / "out.xml"
    code = main(
        [
            "analyze",
            "--bundle", en_bio_path,
            "--external-tags", str(tags),
            "--lenient",
            "--output", str(xml_out),
        ]
    )
    assert code == 0
    body = xml_out.read_text(encoding="utf-8")
    assert 'code="UnmappedTag"' in body
    assert '<rel type="inhibits"' in body



def test_strict_failure_partway_leaves_existing_outputs_untouched(en_bio_path, tmp_path, capsys):
    # The second of three sentences has a tag the bundle cannot map: a strict
    # run exits 3 after analyzing the first, and neither output is written.
    tags = tmp_path / "tags.tsv"
    aspirin = "Aspirin\tNNP\ninhibits\tVBZ\ncyclooxygenase\tNN\n"
    tags.write_text(f"{aspirin}\nFoo\tFW\n\n{aspirin}", encoding="utf-8")
    xml_out, tsv_out = tmp_path / "out.xml", tmp_path / "out.tsv"
    xml_out.write_bytes(b"<earlier/>\n")
    tsv_out.write_bytes(b"earlier\trows\n")
    argv = ["analyze", "--bundle", en_bio_path, "--external-tags", str(tags),
            "--output", str(xml_out), "--relations-tsv", str(tsv_out)]
    assert main(argv) == 3
    assert "analysis error" in capsys.readouterr().err
    assert xml_out.read_bytes() == b"<earlier/>\n"
    assert tsv_out.read_bytes() == b"earlier\trows\n"
    assert main([*argv, "--lenient"]) == 0
    assert xml_out.read_text(encoding="utf-8").count("<sentence ") == 3
    assert len(tsv_out.read_text(encoding="utf-8").splitlines()) == 3


def test_analyze_writes_what_the_pipeline_renders(en_bio_path, tmp_path):
    # On a document of several paragraphs the files hold exactly emit_xml
    # and export_relations of run_pipeline's analysis.
    text = ("Aspirin inhibits cyclooxygenase .\n\nWater inhibits the cyclooxygenase . Foo bar .\n"
            "\n\nAspirin inhibits water of the liver .\n")
    doc_path = tmp_path / "doc.txt"
    doc_path.write_text(text, encoding="utf-8")
    xml_out, tsv_out = tmp_path / "out.xml", tmp_path / "out.tsv"
    assert _analyze_into(en_bio_path, str(doc_path), str(xml_out), str(tsv_out)) == 0
    doc = xdoc.run_pipeline(en_bio_path, text, lenient=True)
    assert len(doc.sentences) == 4
    assert xml_out.read_bytes() == xdoc.emit_xml(doc).encode("utf-8")
    assert tsv_out.read_bytes() == xdoc.export_relations(doc).encode("utf-8")
    assert len(tsv_out.read_bytes().splitlines()) == 3  # two paragraphs with a relation each


def test_empty_lexicon_without_default_warns_and_takes_only_tag_files(en_bio_path, tmp_path, capsys):
    source = Path(en_bio_path).read_text(encoding="utf-8")
    start, end = source.index("<taglexicon"), source.index("</taglexicon>") + len("</taglexicon>")
    bundle = tmp_path / "no-lexicon.xml"
    bundle.write_text(source[:start] + "<taglexicon/>" + source[end:], encoding="utf-8")
    assert main(["validate", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("warning: MissingDefaultTag at taglexicon: ")
    assert "raw text cannot be tagged" in out and "--external-tags" in out

    text = tmp_path / "doc.txt"
    text.write_text(ASPIRIN, encoding="utf-8")
    assert main(["analyze", "--bundle", str(bundle), "--input", str(text), "--lenient"]) == 1
    assert "no default tag for unknown forms" in capsys.readouterr().err

    tags = tmp_path / "tags.tsv"
    tags.write_text("Aspirin\tNNP\ninhibits\tVBZ\ncyclooxygenase\tNN\n", encoding="utf-8")
    xml_out = tmp_path / "out.xml"
    code = main(["analyze", "--bundle", str(bundle), "--external-tags", str(tags), "--output", str(xml_out)])
    assert code == 0
    assert '<rel type="inhibits"' in xml_out.read_text(encoding="utf-8")

def test_tag_prints_three_columns(en_bio_path, tmp_path, capsys):
    text = tmp_path / "doc.txt"
    text.write_text(ASPIRIN, encoding="utf-8")
    assert main(["tag", "--bundle", en_bio_path, "--input", str(text)]) == 0
    out = capsys.readouterr().out
    lines = out.strip("\n").split("\n")
    assert lines[0] == "Aspirin\tNN\tN"
    assert lines[1] == "inhibits\tVBZ\tV"
    assert lines[3] == ".\tNN\t"


def test_parse_prints_bracketed_tree(en_bio_path, capsys):
    assert main(["parse", "--bundle", en_bio_path, "--tags", "DET N V DET N"]) == 0
    out = capsys.readouterr().out
    assert out == "trees: 1\n(S (NP DET N) (VP V (NP DET N)))\n"


def test_parse_without_result_prints_a_zero_count(en_bio_path, capsys):
    assert main(["parse", "--bundle", en_bio_path, "--tags", "DET DET"]) == 0
    assert capsys.readouterr().out == "trees: 0\n"


@pytest.mark.parametrize("k, m, count", [(4, 5, 588), (20, 20, 43087676888260976400)])
def test_parse_counts_every_reading_and_prints_the_first(de_core_path, capsys, k, m, count):
    # DETN N (DETG N)*k V DETA N (DETG N)*m has Catalan(k) * Catalan(m)
    # readings; the count is exact, and only the first tree is printed.
    clause = "DETN N" + " DETG N" * k + " V DETA N" + " DETG N" * m
    assert main(["parse", "--bundle", de_core_path, "--tags", clause]) == 0
    count_line, tree, end = capsys.readouterr().out.split("\n")
    assert (count_line, end) == (f"trees: {count}", "")
    assert tree.startswith("(S ") and tree.count("(") == tree.count(")")


@pytest.mark.parametrize(
    "old, new, error",
    [('relation="inhibits"', 'relation="in&#9;hibits"',
      "frames/frame[1]: relation 'in\\thibits' holds U+0009"),
     ('"substance"', '"sub&#9;stance"', "ontology/concept[2]: concept id 'sub\\tstance' holds U+0009")],
    ids=["relation", "concept"],
)
def test_a_tab_the_relation_table_would_copy_is_a_resource_error(en_bio_path, tmp_path, capsys, old, new, error):
    # Loaded, such a bundle would write a 7-field row under the 6-field header.
    bundle = tmp_path / "tab.xml"
    bundle.write_text(Path(en_bio_path).read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    doc = tmp_path / "doc.txt"
    doc.write_text("Aspirin inhibits cyclooxygenase .\n", encoding="utf-8")
    expected = f"resource error: {error}, which splits a relation table row\n"
    assert main(["validate", str(bundle)]) == 1
    assert capsys.readouterr().err == expected
    tsv = tmp_path / "relations.tsv"
    assert main(["analyze", "--bundle", str(bundle), "--input", str(doc), "--relations-tsv", str(tsv)]) == 1
    assert capsys.readouterr().err == expected
    assert not tsv.exists()


def test_validate_missing_bundle_exits_one(capsys):
    assert main(["validate", "/no/such/bundle.xml"]) == 1
    assert "resource error" in capsys.readouterr().err


def test_analyze_missing_external_tags_exits_two(en_bio_path, capsys):
    code = main(["analyze", "--bundle", en_bio_path, "--external-tags", "/no/such.tsv"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_analyze_reads_stdin_writes_stdout(en_bio_path, capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(
        sys, "stdin", type("S", (), {"buffer": io.BytesIO(ASPIRIN.encode("utf-8"))})()
    )
    assert main(["analyze", "--bundle", en_bio_path]) == 0
    out = capsys.readouterr().out
    assert '<rel type="inhibits"' in out


def test_analyze_rejects_non_utf8_input(en_bio_path, tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_bytes(b"\xff\xfe broken")
    assert main(["analyze", "--bundle", en_bio_path, "--input", str(doc)]) == 2
    assert "UTF-8" in capsys.readouterr().err


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("source", ["--input", "stdin", "--external-tags"])
def test_a_byte_order_mark_changes_no_output(en_bio_path, tmp_path, monkeypatch, source):
    content = (b"Aspirin\tNN\ninhibits\tVBZ\ncyclooxygenase\tNN\n.\t.\n" if source == "--external-tags"
               else b"Aspirin inhibits cyclooxygenase .\nWater inhibits cyclooxygenase .\n")
    outputs = []
    for prefix in (b"", BOM):
        doc = tmp_path / "doc"
        doc.write_bytes(prefix + content)
        argv = ["analyze", "--bundle", en_bio_path, "--output", str(tmp_path / "out.xml"),
                "--relations-tsv", str(tmp_path / "out.tsv")]
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(prefix + content)})())
        else:
            argv += [source, str(doc)]
        assert main(argv) == 0
        outputs.append(((tmp_path / "out.xml").read_bytes(), (tmp_path / "out.tsv").read_bytes()))
    assert outputs[1] == outputs[0]
    xml, tsv = outputs[0]
    assert b'<t id="0" off="0" len="7" form="Aspirin"' in xml
    assert tsv.count(b"\tAspirin\t") == 1 and tsv.count(b"\n") == (2 if source == "--external-tags" else 3)


def test_a_lone_cr_inside_a_tag_file_form_exits_two(de_core_path, tmp_path, capsys):
    tags = tmp_path / "tags.tsv"
    tags.write_bytes(b"der\tARTN\nWirkstoff\tNN\ndes\tARTG\nHer\rstellers\tNN\n")
    out = tmp_path / "out.tsv"
    code = main(["analyze", "--bundle", de_core_path, "--external-tags", str(tags), "--relations-tsv", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"input error: tag file {tags} line 4: line break U+000D inside a form or tag\n"
    assert not out.exists()


def test_analyze_unknown_stage_name_exits_two(en_bio_path, tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text(ASPIRIN, encoding="utf-8")
    code = main(["analyze", "--bundle", en_bio_path, "--input", str(doc), "--stages", "tok,bogus"])
    assert code == 2
    assert "unknown stages" in capsys.readouterr().err


def test_parse_requires_tags(en_bio_path, capsys):
    assert main(["parse", "--bundle", en_bio_path, "--tags", "  "]) == 2


def test_parse_rejects_invalid_bundle(tmp_path, capsys):
    bundle = tmp_path / "bad.xml"
    bundle.write_text(
        '<resources lang="xx"><taglexicon default="QQ"/>'
        '<tagmap><map from="NN" to="N"/></tagmap></resources>',
        encoding="utf-8",
    )
    assert main(["parse", "--bundle", str(bundle), "--tags", "N"]) == 1


def _doc(tmp_path) -> str:
    path = tmp_path / "doc.txt"
    path.write_text(ASPIRIN, encoding="utf-8")
    return str(path)


# Input that XML cannot carry is refused before any output is written.


@pytest.mark.parametrize(
    "source, content, message",
    [
        ("text", b"Aspirin\x01 inhibits cyclooxygenase .\n",
         "character U+0001 at byte offset 7 cannot be written as XML"),
        ("text", b"Aspirin inhibits \xef\xbf\xbf .\n",
         "character U+FFFF at byte offset 17 cannot be written as XML"),
        ("tags", b"Aspirin\tNNP\nA\x01\tNN\n", "line 2: character U+0001 cannot be written as XML"),
        ("tags", b"Aspirin\tNN\x0bP\n", "line 1: character U+000B cannot be written as XML"),
    ],
    ids=["text-control", "text-uffff", "tags-control", "tags-vertical-tab"],
)
def test_character_xml_cannot_carry_is_an_input_error(en_bio_path, tmp_path, capsys, source, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    option = "--input" if source == "text" else "--external-tags"
    assert main(["analyze", "--bundle", en_bio_path, "--lenient", option, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.rstrip("\n").endswith(message)


def test_whitespace_xml_cannot_carry_still_separates_words(en_bio_path, tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_bytes(b"Aspirin\x0cinhibits\x0b\x1c cyclooxygenase\x1f.\n")
    assert main(["analyze", "--bundle", en_bio_path, "--input", str(doc)]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    assert [t.get("form") for t in root.iter("t")] == ["Aspirin", "inhibits", "cyclooxygenase", "."]
    assert root.find("sentence/relations/rel").get("type") == "inhibits"


@pytest.mark.parametrize("input_arg", ["/no/such/file", "-", None])
def test_analyze_rejects_input_with_external_tags(en_bio_path, tmp_path, capsys, input_arg):
    tags = tmp_path / "tags.tsv"
    tags.write_text("Aspirin\tNNP\ninhibits\tVBZ\ncyclooxygenase\tNN\n", encoding="utf-8")
    input_arg = input_arg or _doc(tmp_path)
    code = main(
        ["analyze", "--bundle", en_bio_path, "--external-tags", str(tags), "--input", input_arg]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "--input and --external-tags" in captured.err
    assert captured.out == ""


def test_unexpected_exception_exits_four_with_one_line(en_bio_path, tmp_path, monkeypatch, capsys):
    import xdoc.cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(xdoc.cli, "run_pipeline", broken)
    assert main(["analyze", "--bundle", en_bio_path, "--input", _doc(tmp_path)]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_resource_error_still_exits_one(en_bio_path, tmp_path, monkeypatch, capsys):
    import xdoc.cli
    from xdoc.errors import ResourceError

    def refuse(*args, **kwargs):
        raise ResourceError("refused")

    monkeypatch.setattr(xdoc.cli, "run_pipeline", refuse)
    assert main(["analyze", "--bundle", en_bio_path, "--input", _doc(tmp_path)]) == 1
    assert capsys.readouterr().err == "resource error: refused\n"


def test_interrupt_is_not_caught(en_bio_path, tmp_path, monkeypatch):
    import xdoc.cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(xdoc.cli, "run_pipeline", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["analyze", "--bundle", en_bio_path, "--input", _doc(tmp_path)])


# Malformed bundles: every command that reads a bundle names the file.


@pytest.mark.parametrize(
    "command",
    [
        ["validate", "{bundle}"],
        ["analyze", "--bundle", "{bundle}", "--input", "{doc}"],
        ["tag", "--bundle", "{bundle}", "--input", "{doc}"],
        ["parse", "--bundle", "{bundle}", "--tags", "N V N"],
    ],
    ids=["validate", "analyze", "tag", "parse"],
)
@pytest.mark.parametrize("content", ["<resources", "<bundle/>"], ids=["truncated", "wrong-root"])
def test_document_level_bundle_error_names_the_file(tmp_path, capsys, command, content):
    bundle = tmp_path / "truncated.xml"
    bundle.write_text(content, encoding="utf-8")
    argv = [arg.format(bundle=bundle, doc=_doc(tmp_path)) for arg in command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"resource error: {bundle}: ")
    assert ("not well-formed XML" in captured.err) == (content == "<resources")
    assert captured.err.count("\n") == 1


# One argparse parser serves every main call in a process.


def _run_module(argv: list[str], env: dict[str, str] | None = None, stdout=subprocess.PIPE):
    """``python -m xdoc argv`` in a fresh process that imports this xdoc."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = str(Path(xdoc.__file__).parent.parent) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "xdoc", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        stdin=subprocess.DEVNULL,
    )


def _fresh_process(argv: list[str]) -> tuple[int, str, str]:
    done = _run_module(argv)
    return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")


def _in_process(argv: list[str], capsys) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusing the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_back_to_back_main_calls_match_fresh_processes(en_bio_path, de_core_path, tmp_path, capsys):
    tags = tmp_path / "tags.tsv"  # the first sentence has an unmapped tag
    tags.write_text("Foo\tFW\n\nAspirin\tNNP\ninhibits\tVBZ\ncyclooxygenase\tNN\n", encoding="utf-8")
    doc = _doc(tmp_path)
    calls = [
        ["analyze", "--bundle", en_bio_path, "--external-tags", str(tags), "--lenient"],
        ["analyze", "--bundle", en_bio_path, "--external-tags", str(tags)],
        ["analyze", "--bundle", en_bio_path, "--input", doc, "--stages", "tok,sent,tag"],
        ["analyze", "--bundle", en_bio_path, "--input", doc],
        ["parse", "--bundle", en_bio_path, "--tags", "N V N"],
        ["tag", "--bundle", en_bio_path, "--input", doc],
        ["validate", en_bio_path],
        ["analyze", "--bundle", en_bio_path, "--no-such-flag"],
        ["validate", de_core_path],
        ["analyze", "--bundle", en_bio_path, "--external-tags", str(tags), "--lenient"],
    ]
    in_process = [_in_process(argv, capsys) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 3, 0, 0, 0, 0, 0, 2, 0, 0]
    assert in_process == [_fresh_process(argv) for argv in calls]
    assert xdoc.cli.build_parser() is xdoc.cli.build_parser()


# Output files are overwritten in place; stdout gets the same UTF-8 bytes.


def _analyze_into(bundle: str, doc: str, *outputs: str) -> int:
    argv = ["analyze", "--bundle", bundle, "--input", doc, "--lenient"]
    for option, path in zip(("--output", "--relations-tsv"), outputs):
        argv += [option, path]
    return main(argv)


def _expected_xml(bundle: str, doc: str, tmp_path) -> bytes:
    fresh = tmp_path / "fresh.xml"
    assert _analyze_into(bundle, doc, str(fresh)) == 0
    return fresh.read_bytes()


@pytest.mark.parametrize("option", ["--output", "--relations-tsv"])
@pytest.mark.parametrize("case", ["directory", "missing-parent", "dev-full"])
def test_unwritable_output_is_an_input_error(en_bio_path, tmp_path, capsys, option, case):
    target = {
        "directory": str(tmp_path),
        "missing-parent": str(tmp_path / "no" / "such" / "out"),
        "dev-full": "/dev/full",
    }[case]
    if case == "dev-full" and not os.path.exists(target):
        pytest.skip("no /dev/full here")
    argv = ["analyze", "--bundle", en_bio_path, "--input", _doc(tmp_path), option, target]
    if option == "--relations-tsv":
        argv += ["--output", str(tmp_path / "doc.xml")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot write {target}: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_unwritable_stdout_is_an_input_error(en_bio_path, tmp_path, unbuffered):
    # A buffered stdout holds the ~1 kB XML until a flush; the error must
    # still come from the write, not from the flush at interpreter exit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (
        ["analyze", "--bundle", en_bio_path, "--input", _doc(tmp_path)],
        ["validate", en_bio_path],
        ["parse", "--bundle", en_bio_path, "--tags", "DET N V DET N"],
    ):
        with open("/dev/full", "wb") as full:
            done = _run_module(argv, env=env, stdout=full)
        assert done.returncode == 2, argv
        assert done.stderr.decode("utf-8").startswith("input error: cannot write stdout: ")


def test_stdout_without_a_byte_buffer_takes_the_text(en_bio_path, tmp_path):
    doc = _doc(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", "--bundle", en_bio_path, "--input", doc]) == 0
    assert out.getvalue().encode("utf-8") == _expected_xml(en_bio_path, doc, tmp_path)


def test_shorter_rewrite_leaves_exactly_the_new_bytes(en_bio_path, tmp_path):
    doc = _doc(tmp_path)
    expected = _expected_xml(en_bio_path, doc, tmp_path)
    out = tmp_path / "out.xml"
    out.write_bytes(b"x" * (4 * len(expected)))
    assert _analyze_into(en_bio_path, doc, str(out)) == 0
    assert out.read_bytes() == expected


@pytest.mark.parametrize("link", ["symlink", "hardlink"])
def test_rewrite_through_a_link_keeps_the_target_file(en_bio_path, tmp_path, link):
    doc = _doc(tmp_path)
    target = tmp_path / "target.xml"
    target.write_bytes(b"old contents, longer than nothing\n")
    target.chmod(0o640)
    alias = tmp_path / "alias.xml"
    if link == "symlink":
        alias.symlink_to(target)
    else:
        os.link(target, alias)
    before = target.stat()
    assert _analyze_into(en_bio_path, doc, str(alias)) == 0
    after = target.stat()
    assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, before.st_nlink)
    assert alias.is_symlink() == (link == "symlink")
    assert target.read_bytes() == _expected_xml(en_bio_path, doc, tmp_path)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null here")
def test_output_to_dev_null_succeeds(en_bio_path, tmp_path):
    assert _analyze_into(en_bio_path, _doc(tmp_path), "/dev/null", "/dev/null") == 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_output_to_a_fifo_succeeds(en_bio_path, tmp_path):
    import threading

    doc = _doc(tmp_path)
    expected = _expected_xml(en_bio_path, doc, tmp_path)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received: list[bytes] = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert _analyze_into(en_bio_path, doc, str(fifo)) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [expected]


def test_output_and_relations_tsv_on_one_path_end_with_the_tsv(en_bio_path, tmp_path):
    doc = _doc(tmp_path)
    tsv = tmp_path / "doc.tsv"
    assert _analyze_into(en_bio_path, doc, str(tmp_path / "doc.xml"), str(tsv)) == 0
    both = tmp_path / "both"
    assert _analyze_into(en_bio_path, doc, str(both), str(both)) == 0
    assert both.read_bytes() == tsv.read_bytes()


def test_new_file_mode_matches_path_write_text(en_bio_path, tmp_path):
    doc = _doc(tmp_path)
    old = os.umask(0o002)  # 0o664 for a file created with mode 0o666
    try:
        assert _analyze_into(en_bio_path, doc, str(tmp_path / "new.xml")) == 0
        (tmp_path / "reference.xml").write_text("", encoding="utf-8")
    finally:
        os.umask(old)
    assert (tmp_path / "new.xml").stat().st_mode == (tmp_path / "reference.xml").stat().st_mode


GERMAN = "Das Enzym hemmt Müller .\n"


@pytest.mark.parametrize(
    "locale_env",
    [
        {"PYTHONIOENCODING": "ascii"},
        {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
    ],
    ids=["ascii-io", "c-locale"],
)
def test_stdout_is_utf8_whatever_the_locale(de_core_path, tmp_path, locale_env):
    doc = tmp_path / "doc.txt"
    doc.write_text(GERMAN, encoding="utf-8")
    out = tmp_path / "out.xml"
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env.update(locale_env)
    analyze = ["analyze", "--bundle", de_core_path, "--input", str(doc), "--lenient"]
    to_stdout = _run_module(analyze, env)
    to_file = _run_module([*analyze, "--output", str(out)], env)
    tag = _run_module(["tag", "--bundle", de_core_path, "--input", str(doc)], env)
    assert (to_stdout.returncode, to_file.returncode, tag.returncode) == (0, 0, 0)
    assert "Müller" in out.read_text(encoding="utf-8")
    assert to_stdout.stdout == out.read_bytes()
    assert tag.stdout.decode("utf-8").startswith("Das\t")
    assert "Müller\t" in tag.stdout.decode("utf-8")
    # Under the C locale a non-ASCII path reaches xdoc with its bytes as
    # surrogate escapes; validate must print them as the same bytes.
    bundle = tmp_path / "bündel.xml"
    bundle.write_bytes(Path(de_core_path).read_bytes())
    validate = _run_module(["validate", str(bundle)], env)
    parse = _run_module(["parse", "--bundle", str(bundle), "--tags", "DETN N V DETA N"], env)
    assert (validate.returncode, parse.returncode) == (0, 0), validate.stderr + parse.stderr
    assert validate.stdout.endswith(f"{bundle}: ok (de)\n".encode("utf-8"))
    assert parse.stdout.startswith(b"trees: 1\n(S ")


@pytest.mark.parametrize(
    "argv",
    [["validate", "{bundle}"],
     ["analyze", "--bundle", "{bundle}", "--external-tags", "{tags}"],
     ["analyze", "--bundle", "{bundle}", "--lenient", "--external-tags", "{tags}"],
     ["analyze", "--bundle", "{bundle}", "--input", "{text}"]],
    ids=["validate", "strict", "lenient", "text"],
)
def test_empty_tagset_map_target_is_a_resource_error(en_bio_path, tmp_path, capsys, argv):
    # An empty target would name an empty parser category; the loader
    # refuses it, so no command gets as far as building one.
    source = Path(en_bio_path).read_text(encoding="utf-8")
    source = source.replace("</tagmap>", '<map from="XX" to=""/></tagmap>', 1)
    bundle = tmp_path / "empty-target.xml"
    bundle.write_text(source.replace("</taglexicon>", '<w form="foo" tags="XX"/></taglexicon>', 1),
                      encoding="utf-8")
    (tmp_path / "tags.tsv").write_text("foo\tXX\n", encoding="utf-8")
    (tmp_path / "doc.txt").write_text("foo .\n", encoding="utf-8")
    paths = {"bundle": bundle, "tags": tmp_path / "tags.tsv", "text": tmp_path / "doc.txt"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err == "resource error: tagmap/map[6]: empty target tag\n"
