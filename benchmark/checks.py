"""Verdict checks that do not rely on the code under test.

Each function returns a list of problems; an empty list means the output is
correct.  Inputs are plain data (tile tuples, grids, row tuples), so the CLI
workload can feed them from the JSON files and the in-process workloads from
the returned objects.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction

N, E, S, W = 0, 1, 2, 3


def tiling_problems(tiles, grid) -> list[str]:
    """Every east edge must match its right neighbour's west edge and every
    north edge the south edge of the tile above, with wraparound."""
    b = len(grid)
    a = len(grid[0]) if b else 0
    if not a or any(len(row) != a for row in grid):
        return [f"tiling grid is not a nonempty rectangle: {grid!r}"]
    bad = [idx for row in grid for idx in row if not 0 <= idx < len(tiles)]
    if bad:
        return [f"tiling uses unknown tile indices {sorted(set(bad))}"]
    out = []
    for v in range(b):
        for u in range(a):
            t = tiles[grid[v][u]]
            right = tiles[grid[v][(u + 1) % a]]
            above = tiles[grid[(v + 1) % b][u]]
            if t[E] != right[W]:
                out.append(f"cell ({u},{v}) east edge {t[E]} != west edge {right[W]}")
            if t[N] != above[S]:
                out.append(f"cell ({u},{v}) north edge {t[N]} != south edge {above[S]}")
    return out


def violation(rel: str, lhs: float, rhs: float) -> float:
    if rel == "=":
        return abs(lhs - rhs)
    if rel == ">=":
        return max(0.0, rhs - lhs)
    if rel == "<=":
        return max(0.0, lhs - rhs)
    raise ValueError(f"unknown relation {rel!r}")


def report_problems(report_rows, system_rows, tol: float) -> list[str]:
    """Check a verification report row by row against the system it claims to verify.

    `report_rows` are (tag, rel, lhs, rhs, passed) tuples; `system_rows` are
    (tag, rel, exact rhs) tuples in system order.  Every system row must be
    reported, in order, against its own right-hand side, with a violation
    recomputed here of at most `tol`, and flagged as passing.
    """
    if len(report_rows) != len(system_rows):
        return [f"report has {len(report_rows)} rows, system has {len(system_rows)}"]
    out = []
    for (tag, rel, lhs, rhs, passed), (stag, srel, srhs) in zip(report_rows, system_rows):
        if (tag, rel) != (stag, srel) or rhs != float(Fraction(srhs)):
            out.append(f"row {tag!r} does not match system row {stag!r}")
        elif violation(rel, lhs, rhs) > tol:
            out.append(f"row {tag!r}: {lhs} {rel} {rhs} violated beyond {tol}")
        elif passed is not True:
            out.append(f"row {tag!r} flagged as failing")
        if len(out) >= 5:
            out.append("...")
            break
    return out


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
