"""Command line interface.

Subcommands: validate a bundle, analyze a document, dump the tagger
output, or parse a tag sequence.  Exit codes: 0 success, 1 resource
error, 2 input error, 3 analysis error in strict mode, 4 internal error
(any other exception, reported in one line without a traceback).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import AnalysisError, InputError, ResourceError
from .parsing import complete_parses, parse, render_bracketed
from .pipeline import (
    STAGES,
    _load_validated,
    check_stages,
    emit_xml,
    export_relations,
    run_pipeline,
)
from .resources import load_bundle, validate_bundle

EXIT_OK = 0
EXIT_RESOURCE = 1
EXIT_INPUT = 2
EXIT_ANALYSIS = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_validate(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    findings = validate_bundle(bundle)
    for f in findings:
        print(f"{f.severity}: {f.code} at {f.location}: {f.detail}")
    if any(f.severity == "error" for f in findings):
        return EXIT_RESOURCE
    print(f"{args.bundle}: ok ({bundle.lang})")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    stages = STAGES
    if args.stages is not None:
        try:
            stages = check_stages(p.strip() for p in args.stages.split(",") if p.strip())
        except ValueError as exc:
            raise InputError(str(exc)) from None
    if args.external_tags is not None:
        if args.input is not None:
            raise InputError("--input and --external-tags are mutually exclusive")
        text = None
    else:
        text = _read_text("-" if args.input is None else args.input)
    doc = run_pipeline(
        args.bundle,
        text,
        external_tags=args.external_tags,
        stages=stages,
        lenient=args.lenient,
    )
    _write_text(args.output, emit_xml(doc))
    if args.relations_tsv is not None:
        _write_text(args.relations_tsv, export_relations(doc))
    return EXIT_OK


def _cmd_tag(args: argparse.Namespace) -> int:
    stages = STAGES[:4]  # tok, sent, tag, map
    doc = run_pipeline(args.bundle, _read_text(args.input), stages=stages, lenient=True)
    blocks = [
        "\n".join(f"{t.token.form}\t{t.source_tag}\t{t.parser_tag or ''}" for t in a.tagged)
        for a in doc.sentences
    ]
    if blocks:
        print("\n\n".join(blocks))
    return EXIT_OK


def _cmd_parse(args: argparse.Namespace) -> int:
    bundle = _load_validated(args.bundle)
    tags = args.tags.split()
    if not tags:
        raise InputError("no tags given")
    chart = parse(tags, bundle.grammar)
    for tree in complete_parses(chart, bundle.grammar.start_symbol):
        print(render_bracketed(tree))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xdoc", description="Document analysis driven by XML language resources."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a resource bundle for dangling references")
    p.add_argument("bundle")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="run the analysis stages over a document")
    p.add_argument("--bundle", required=True)
    p.add_argument("--input", default=None, help="UTF-8 text file, or - for stdin (the default)")
    p.add_argument("--output", default=None, help="annotated XML target, default stdout")
    p.add_argument("--stages", default=None, help=f"comma-separated prefix of {','.join(STAGES)}")
    p.add_argument("--lenient", action="store_true", help="record per-sentence failures and continue")
    p.add_argument("--external-tags", default=None, help="form<TAB>tag file replacing tok/sent/tag")
    p.add_argument("--relations-tsv", default=None, help="also write the relation table here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("tag", help="print form/source tag/parser tag per token")
    p.add_argument("--bundle", required=True)
    p.add_argument("--input", default="-")
    p.set_defaults(func=_cmd_tag)

    p = sub.add_parser("parse", help="parse a parser-tag sequence and print trees")
    p.add_argument("--bundle", required=True)
    p.add_argument("--tags", required=True, help='e.g. "DET N V DET N"')
    p.set_defaults(func=_cmd_parse)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: built on the first call of :func:`main`.

    ``parse_args`` leaves the parser unchanged, so every ``main`` call
    may share it.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except Exception as exc:  # a defect, kept apart from the documented codes
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
