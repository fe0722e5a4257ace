"""Independent brute-force recognizer used as a parser oracle.

Binarizes the grammar with fresh helper symbols, runs textbook CYK by
increasing span length, and closes every cell under unary rules by
fixpoint iteration.  Shares no code with the chart parser under test.

Rules are plain (lhs name, tuple of rhs names); symbols never contain
the helper marker ``<``.
"""

from __future__ import annotations

from typing import Sequence

Rule = tuple[str, tuple[str, ...]]


def binarize(rules: Sequence[Rule]) -> list[Rule]:
    out: list[Rule] = []
    fresh = 0
    for lhs, rhs in rules:
        if len(rhs) <= 2:
            out.append((lhs, tuple(rhs)))
            continue
        current = rhs[0]
        for sym in rhs[1:-1]:
            helper = f"<{fresh}>"
            fresh += 1
            out.append((helper, (current, sym)))
            current = helper
        out.append((lhs, (current, rhs[-1])))
    return out


def _close_unary(cell: set[str], unary: list[Rule]) -> None:
    changed = True
    while changed:
        changed = False
        for lhs, (rhs,) in unary:
            if rhs in cell and lhs not in cell:
                cell.add(lhs)
                changed = True


def brute_force_spans(rules: Sequence[Rule], tags: Sequence[str]) -> set[tuple[str, int, int]]:
    """All (symbol, start, end) facts derivable over the tag string."""
    bin_rules = binarize(rules)
    unary = [r for r in bin_rules if len(r[1]) == 1]
    binary = [r for r in bin_rules if len(r[1]) == 2]
    n = len(tags)

    cells: dict[tuple[int, int], set[str]] = {}
    for i, tag in enumerate(tags):
        cell = {tag}
        _close_unary(cell, unary)
        cells[(i, i + 1)] = cell

    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            cell: set[str] = set()
            for k in range(i + 1, j):
                left, right = cells[(i, k)], cells[(k, j)]
                for lhs, (b, c) in binary:
                    if b in left and c in right:
                        cell.add(lhs)
            _close_unary(cell, unary)
            cells[(i, j)] = cell

    return {
        (sym, i, j)
        for (i, j), cell in cells.items()
        for sym in cell
        if not sym.startswith("<")
    }


def chart_spans(chart) -> set[tuple[str, int, int]]:
    """The parser chart's passive edges as (category name, start, end) facts."""
    return {(n.category.name, n.start, n.end) for n in chart.nodes}


def count_bracketings(leaves: int) -> int:
    """Number of binary bracketings of a string of the given length."""
    counts = {1: 1}
    for n in range(2, leaves + 1):
        counts[n] = sum(counts[k] * counts[n - k] for k in range(1, n))
    return counts[leaves]
