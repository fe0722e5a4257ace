"""Command line interface.

Subcommands: validate a bundle, analyze a document, dump the tagger
output, or count a tag sequence's parse trees and print the first.  Exit
codes: 0 success, 1 resource error, 2 input error, 3 analysis error in
strict mode, 4 internal error (any other exception, reported in one line
without a traceback).
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from pathlib import Path

from .errors import AnalysisError, InputError, ResourceError
from .parsing import count_trees, first_parse, parse, render_bracketed
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
            return sys.stdin.buffer.read().decode("utf-8-sig")
        return Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8: {exc}") from None


# No O_TRUNC: truncating an existing file to zero makes ext4 (auto_da_alloc)
# start writeback at close, which costs several times the write itself.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write_all(write, data: bytes) -> None:
    """Call ``write`` until it has taken all of ``data`` (it may take part)."""
    view = memoryview(data)
    written = 0
    while written < len(view):
        written += write(view[written:])


def _write_output(path: str | None, text: str) -> None:
    """Write ``text`` as UTF-8 bytes to ``path``, or to stdout for ``-`` or None.

    A file is overwritten in place: written from its start, then cut to the
    written length if it is a regular file (a FIFO or device is not cut).  So
    it keeps its inode, links and permissions, a symlink is followed, and a
    new file gets its mode from the umask, as with ``open(path, "w")``.

    Stdout's bytes go past its buffer to the stream under it, after the
    text and byte layers are flushed.  A failed write then leaves nothing
    buffered, so it is reported here and not again at interpreter exit.
    A stdout without a byte buffer (``io.StringIO``, some IDEs) takes the
    text as it is.  Surrogate escapes, which a path taken from the command
    line holds for bytes the locale cannot decode, are written as those bytes.
    """
    to_stdout = path is None or path == "-"
    data = text.encode("utf-8", "surrogateescape")
    try:
        if to_stdout:
            sys.stdout.flush()
            out = getattr(sys.stdout, "buffer", None)
            if out is None:
                sys.stdout.write(text)
                sys.stdout.flush()
            else:
                out.flush()
                _write_all(getattr(out, "raw", out).write, data)
            return
        fd = os.open(path, _WRITE_FLAGS, 0o666)
        try:
            _write_all(functools.partial(os.write, fd), data)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise InputError(f"cannot write {'stdout' if to_stdout else path}: {exc}") from None


def _cmd_validate(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    findings = validate_bundle(bundle)
    lines = [f"{f.severity}: {f.code} at {f.location}: {f.detail}\n" for f in findings]
    failed = any(f.severity == "error" for f in findings)
    if not failed:
        lines.append(f"{args.bundle}: ok ({bundle.lang})\n")
    _write_output(None, "".join(lines))
    return EXIT_RESOURCE if failed else EXIT_OK


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
    xml = emit_xml(doc)
    tsv = None if args.relations_tsv is None else export_relations(doc)
    # Nothing is written before the whole document is rendered, so a failing
    # analysis leaves existing files as they were; and the writes, which
    # encode a copy of each string, run without the input and its analysis.
    del text, doc
    _write_output(args.output, xml)
    if tsv is not None:
        _write_output(args.relations_tsv, tsv)
    return EXIT_OK


def _cmd_tag(args: argparse.Namespace) -> int:
    stages = STAGES[:4]  # tok, sent, tag, map
    doc = run_pipeline(args.bundle, _read_text(args.input), stages=stages, lenient=True)
    blocks = [
        "\n".join(f"{t.token.form}\t{t.source_tag}\t{t.parser_tag or ''}" for t in a.tagged)
        for a in doc.sentences
    ]
    if blocks:
        _write_output(None, "\n\n".join(blocks) + "\n")
    return EXIT_OK


def _cmd_parse(args: argparse.Namespace) -> int:
    bundle = _load_validated(args.bundle)
    tags = args.tags.split()
    if not tags:
        raise InputError("no tags given")
    chart = parse(tags, bundle.grammar)
    start = bundle.grammar.start_symbol
    count = count_trees(chart, start)
    first = f"{render_bracketed(first_parse(chart, start))}\n" if count else ""
    _write_output(None, f"trees: {count}\n{first}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: built on the first call of :func:`main`.

    ``parse_args`` leaves the parser unchanged, so every ``main`` call
    may share it.
    """
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

    p = sub.add_parser("parse", help="count the trees of a parser-tag sequence and print the first")
    p.add_argument("--bundle", required=True)
    p.add_argument("--tags", required=True, help='e.g. "DET N V DET N"')
    p.set_defaults(func=_cmd_parse)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
