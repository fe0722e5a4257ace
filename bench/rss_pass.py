"""One untimed pass over a workload in a fresh process, for its peak RSS.

Usage: python3 rss_pass.py SRC_DIR CALLS_JSON CODES_JSON

Runs every ``xdoc analyze`` argument list in CALLS_JSON through
``xdoc.cli.main`` in this process and writes the exit codes to
CODES_JSON; an exception that escapes ``main`` is recorded as -1.  The
caller reads this process's peak resident set from ``getrusage``.
"""

import json
import sys


def main() -> int:
    src, calls_path, codes_path = sys.argv[1:4]
    sys.path.insert(0, src)
    from xdoc import cli

    with open(calls_path, encoding="utf-8") as fh:
        calls = json.load(fh)
    codes = []
    for argv in calls:
        try:
            codes.append(cli.main(argv))
        except (Exception, SystemExit) as exc:  # the caller counts the failed call
            print(f"rss_pass: {argv}: {type(exc).__name__}: {exc}", file=sys.stderr)
            codes.append(-1)
    with open(codes_path, "w", encoding="utf-8") as fh:
        json.dump(codes, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
