"""Seeded 4-variable entropy prescriptions with known Shannon verdicts.

Every row bounds the entropy of one subset of X1..X4, so the rows alone are
a box with a nonempty range on each coordinate; any contradiction has to
come through the elemental Shannon inequalities.

* `entropic` items put a window of half-width delta around a perturbed
  entropic vector h + u with |u| <= delta/2.  The true vector h of the joint
  lies inside every window, and an entropic vector satisfies every Shannon
  inequality, so the refuter must answer UNKNOWN.
* `shannon` items add a core that a Shannon inequality forbids
  (subadditivity, monotonicity or submodularity, with a positive gap) to
  windows on the remaining subsets.  The refuter must answer REFUTED.

Nothing here imports `infotile`: the expected verdicts and the certificate
replay are the benchmark's own.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

NAMES = ("X1", "X2", "X3", "X4")
SUBSETS = [frozenset(c) for r in range(1, 5) for c in combinations(NAMES, r)]
DENOM = 1000

REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"


class ReplayError(ValueError):
    pass


@dataclass(frozen=True)
class Prescription:
    name: str
    expected: str
    rows: tuple  # ((tag, {frozenset: Fraction}, Fraction rhs), ...), each `lhs >= rhs`


def _setname(s) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def random_entropic_vector(rng: random.Random) -> dict:
    """Subset entropies, in bits, of a random joint of X1..X4.

    X1..X3 get a random pmf on a small product alphabet (zero weights make
    some values impossible); X4 is a random function of them, so the
    conditional entropy H(X4 | X1 X2 X3) is exactly zero.
    """
    sizes = [rng.randint(2, 3) for _ in range(3)]
    cells = list(product(*(range(s) for s in sizes)))
    weights = [rng.randint(0, 4) for _ in cells]
    if not any(weights):
        weights[0] = 1
    f = {c: rng.randrange(3) for c in cells}
    total = sum(weights)
    pmf = {c + (f[c],): Fraction(w, total) for c, w in zip(cells, weights) if w}
    h = {}
    for sub in SUBSETS:
        idx = [i for i, n in enumerate(NAMES) if n in sub]
        marg: dict = {}
        for atom, p in pmf.items():
            key = tuple(atom[i] for i in idx)
            marg[key] = marg.get(key, Fraction(0)) + p
        h[sub] = -sum(float(p) * math.log2(float(p)) for p in marg.values())
    return h


def _window_rows(rng: random.Random, h: dict, subsets) -> list:
    rows = []
    for sub in subsets:
        delta = rng.uniform(0.02, 0.2)
        centre = h[sub] + rng.uniform(-delta / 2, delta / 2)
        lo = Fraction(math.floor((centre - delta) * DENOM), DENOM)
        hi = Fraction(math.ceil((centre + delta) * DENOM), DENOM)
        if not lo < h[sub] < hi:
            raise AssertionError("window must contain the entropic point")
        rows.append((f"win.lo{_setname(sub)}", {sub: Fraction(1)}, lo))
        rows.append((f"win.hi{_setname(sub)}", {sub: Fraction(-1)}, -hi))
    return rows


def _gap(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(50, 500), DENOM)


def _bound(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(500, 2000), DENOM)


def _shannon_core(rng: random.Random) -> list:
    """Rows that only a Shannon inequality contradicts, on distinct subsets."""
    kind = rng.choice(("subadditivity", "monotonicity", "submodularity"))
    if kind == "subadditivity":
        ups = [_bound(rng) for _ in NAMES]
        rows = [(f"core.hi{{{n}}}", {frozenset([n]): Fraction(-1)}, -u) for n, u in zip(NAMES, ups)]
        rows.append(("core.lo{all}", {frozenset(NAMES): Fraction(1)}, sum(ups) + _gap(rng)))
        return rows
    if kind == "monotonicity":
        small = frozenset(rng.sample(NAMES, rng.randint(1, 3)))
        big = small | frozenset(rng.sample([n for n in NAMES if n not in small], 1))
        a = _bound(rng) + 1
        return [
            (f"core.lo{_setname(small)}", {small: Fraction(1)}, a),
            (f"core.hi{_setname(big)}", {big: Fraction(-1)}, -(a - _gap(rng))),
        ]
    # Submodularity, H(A) + H(B) >= H(A u B) + H(A n B), on incomparable A, B.
    a_only, b_only, both = rng.sample(NAMES, 3)
    a, b = frozenset([a_only, both]), frozenset([b_only, both])
    ua, ub, lc = _bound(rng) + 1, _bound(rng) + 1, _bound(rng)
    return [
        (f"core.hi{_setname(a)}", {a: Fraction(-1)}, -ua),
        (f"core.hi{_setname(b)}", {b: Fraction(-1)}, -ub),
        (f"core.lo{_setname(a & b)}", {a & b: Fraction(1)}, lc),
        (f"core.lo{_setname(a | b)}", {a | b: Fraction(1)}, ua + ub - lc + _gap(rng)),
    ]


def generate(seed: int, count: int) -> list[Prescription]:
    """`count` prescriptions, alternating entropic (UNKNOWN) and shannon (REFUTED)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        h = random_entropic_vector(rng)
        if i % 2 == 0:
            rows = _window_rows(rng, h, SUBSETS)
            out.append(Prescription(f"entropic{i}", UNKNOWN, tuple(rows)))
        else:
            core = _shannon_core(rng)
            used = {s for _, coeffs, _ in core for s in coeffs}
            rows = core + _window_rows(rng, h, [s for s in SUBSETS if s not in used])
            out.append(Prescription(f"shannon{i}", REFUTED, tuple(rows)))
    return out


def elemental_row(tag: str, names) -> dict:
    """Coefficients of the elemental inequality a refuter tag names.

    Tags are `elem:h(X|rest)`, `elem:h(X)` for a single variable, and
    `elem:i(A;B|{K...})`; the empty set's entropy is zero and dropped.
    """
    allv = frozenset(names)
    coeffs: dict = {}

    def add(s, c):
        if s:
            coeffs[s] = coeffs.get(s, Fraction(0)) + c

    body = tag[len("elem:"):]
    if body.startswith("h(") and body.endswith("|rest)"):
        x = body[2:-len("|rest)")]
        add(allv, Fraction(1))
        add(allv - {x}, Fraction(-1))
    elif body.startswith("h(") and body.endswith(")"):
        add(frozenset([body[2:-1]]), Fraction(1))
    elif body.startswith("i(") and body.endswith("})"):
        pair, _, cond = body[2:-2].partition("|{")
        a, _, b = pair.partition(";")
        k = frozenset(x for x in cond.split(",") if x)
        add(k | {a}, Fraction(1))
        add(k | {b}, Fraction(1))
        add(k | {a, b}, Fraction(-1))
        add(k, Fraction(-1))
    else:
        raise ReplayError(f"unrecognised elemental tag {tag!r}")
    unknown = set().union(*coeffs) - allv if coeffs else set()
    if unknown:
        raise ReplayError(f"{tag!r} names variables outside {sorted(allv)}")
    return {s: c for s, c in coeffs.items() if c}


def replay(certificate, rows, names) -> None:
    """Check a Farkas certificate with exact Fraction sums; raise ReplayError if it fails.

    `rows` are the prescription's own `lhs >= rhs` rows.  The certificate must
    use each tag at most once, with positive multipliers, and the combination
    must cancel every entropy coefficient while leaving a positive
    right-hand side, i.e. prove 0 >= rhs > 0.
    """
    by_tag = {tag: (coeffs, rhs) for tag, coeffs, rhs in rows}
    combo: dict = {}
    total = Fraction(0)
    seen = set()
    for tag, mult in certificate:
        mult = Fraction(mult)
        if mult <= 0:
            raise ReplayError(f"multiplier {mult} on {tag!r} is not positive")
        if tag in seen:
            raise ReplayError(f"row {tag!r} used twice")
        seen.add(tag)
        if tag.startswith("elem:"):
            coeffs, rhs = elemental_row(tag, names), Fraction(0)
        elif tag in by_tag:
            coeffs, rhs = by_tag[tag]
        else:
            raise ReplayError(f"certificate names unknown row {tag!r}")
        for s, c in coeffs.items():
            combo[s] = combo.get(s, Fraction(0)) + mult * c
        total += mult * rhs
    residue = {s: c for s, c in combo.items() if c}
    if residue:
        raise ReplayError(f"{len(residue)} entropy coefficients do not cancel")
    if total <= 0:
        raise ReplayError(f"right-hand side {total} is not positive")
