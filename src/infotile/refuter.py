"""Shannon outer-bound feasibility by exact rational phase-1 simplex.

The rows are the elemental inequalities (Yeung 1997) plus the system's own
`expr_i >= rhs_i` rows, over one free entropy column per variable subset.
By Farkas' lemma they have no solution exactly when some y >= 0 satisfies
sum_i y_i expr_i = 0 and sum_i y_i rhs_i = 1.  The simplex solves for that
y directly.  If it exists the system is REFUTED and y is the certificate,
normalized to prove 0 >= 1; every certificate is replayed exactly before it
is returned.  Otherwise the answer is UNKNOWN: Shannon-type reasoning is
incomplete, so feasibility of the outer bound never certifies
satisfiability.

No floating point is used anywhere in this module.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .expressions import REL_GE, InfoExpr, frac_str, varset_key
from .systems import ConstraintSystem

N_CAP = 10

REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"


class RefuterError(ValueError):
    pass


@dataclass
class LPOutcome:
    status: str
    certificate: list[tuple[str, Fraction]] | None = None

    def to_obj(self) -> dict:
        obj = {"status": self.status}
        if self.certificate is not None:
            obj["multipliers"] = [[tag, frac_str(m)] for tag, m in self.certificate]
        return obj


def elemental_inequalities(n: int, names: list[str] | None = None):
    """The elemental Shannon inequalities for n variables, as (tag, expr >= 0).

    Exactly the conditional entropies H(X_i | rest) and the conditional
    mutual informations I(X_i; X_j | X_K), deduplicated by construction and
    in canonical order.  There are n + C(n,2) * 2^(n-2) of them.
    """
    if not 1 <= n <= N_CAP:
        raise RefuterError(f"variable count {n} outside [1, {N_CAP}]")
    if names is None:
        names = [f"X{i}" for i in range(1, n + 1)]
    if len(names) != n:
        raise RefuterError("names length must match n")
    out = []
    allv = frozenset(names)
    if n == 1:
        out.append((f"elem:h({names[0]})", InfoExpr.entropy(names)))
        return out
    for i, nm in enumerate(names):
        rest = allv - {nm}
        expr = InfoExpr.entropy(allv) - InfoExpr.entropy(rest)
        out.append((f"elem:h({nm}|rest)", expr))
    for a, b in combinations(range(n), 2):
        na, nb = names[a], names[b]
        others = [nm for idx, nm in enumerate(names) if idx not in (a, b)]
        for mask in range(2 ** len(others)):
            kset = frozenset(nm for idx, nm in enumerate(others) if mask >> idx & 1)
            expr = (
                InfoExpr.entropy(kset | {na})
                + InfoExpr.entropy(kset | {nb})
                - InfoExpr.entropy(kset | {na, nb})
                - InfoExpr.entropy(kset)
            )
            ktxt = ",".join(sorted(kset))
            out.append((f"elem:i({na};{nb}|{{{ktxt}}})", expr))
    return out


def _phase1_feasible(rows):
    """Feasibility of {expr_i >= rhs_i} over free column variables.

    rows: list of (tag, {col: Fraction}, Fraction rhs).  Returns
    (feasible, certificate), the certificate being the Farkas multipliers y.

    Phase 1 runs on the Farkas system itself: y >= 0 (one entry per row),
    sum_i y_i a_ic = 0 for every column c, and sum_i y_i rhs_i = 1.  Each
    equation starts with an artificial basic variable; every right-hand side
    is 0 or 1, so that start is feasible as it stands.  An artificial that
    leaves the basis is never needed again, so artificial columns are not
    stored: the basis records them as indices >= m.  Bland's rule, all in
    Fractions.
    """
    cols = sorted({c for _, coeffs, _ in rows for c in coeffs}, key=varset_key)
    cidx = {c: i for i, c in enumerate(cols)}
    m = len(rows)
    zero = Fraction(0)
    tab = [[zero] * (m + 1) for _ in range(len(cols) + 1)]
    for i, (_, coeffs, rhs) in enumerate(rows):
        for c, val in coeffs.items():
            tab[cidx[c]][i] = val
        tab[-1][i] = rhs
    tab[-1][m] = Fraction(1)
    basis = [m + r for r in range(len(tab))]
    # reduced costs of minimizing the sum of the artificials
    obj = [sum(col, zero) for col in zip(*tab)]

    while obj[m] != 0:
        pc = next((j for j in range(m) if obj[j] > 0), None)  # Bland: smallest index
        if pc is None:
            return True, None
        # Bland's leaving rule: least ratio, ties to the smallest basic index.
        # Some row always qualifies: the objective is bounded below by 0.
        pr = min((r for r, row in enumerate(tab) if row[pc] > 0),
                 key=lambda r: (tab[r][m] / tab[r][pc], basis[r]))
        inv = 1 / tab[pr][pc]
        prow = tab[pr] = [x * inv for x in tab[pr]]
        for row in (*tab[:pr], *tab[pr + 1 :], obj):
            factor = row[pc]
            if factor != 0:
                row[:] = [a - factor * b for a, b in zip(row, prow)]
        basis[pr] = pc
    cert = [zero] * m
    for r, j in enumerate(basis):
        if j < m:
            cert[j] = tab[r][m]
    return False, cert


def refute(sas: ConstraintSystem, variables: list[str] | None = None) -> LPOutcome:
    """Decide Shannon-refutability of a >=-form system, such as `flatten` writes.

    With `variables` given, rows mentioning any excluded variable are
    dropped before the check (a sound relaxation: REFUTED still implies the
    full system has no realization).  A restriction that names a variable
    twice is refused, with the repeated names.
    """
    names = sas.all_vars()
    if variables is None:
        variables = names
    varset_all = frozenset(variables)
    if len(varset_all) != len(variables):
        repeated = sorted(n for n, count in Counter(variables).items() if count > 1)
        raise RefuterError(f"restriction names a variable more than once: {', '.join(repeated)}")
    if not varset_all <= set(names):
        raise RefuterError("restriction names unknown to the system")
    n = len(variables)
    if not 1 <= n <= N_CAP:
        raise RefuterError(f"variable count {n} outside [1, {N_CAP}]")
    rows = []
    for tag, expr in elemental_inequalities(n, sorted(varset_all)):
        rows.append((tag, dict(expr.terms), Fraction(0)))
    for r in sas.rows:
        if r.rel != REL_GE:
            raise RefuterError("refute expects a >=-form system (run flatten first)")
        if r.variables() <= varset_all:
            rows.append((r.tag, r.lhs.terms, r.rhs))
    feasible, cert = _phase1_feasible(rows)
    if feasible:
        return LPOutcome(UNKNOWN)
    certificate = [(rows[i][0], y) for i, y in enumerate(cert) if y != 0]
    replay_certificate(rows, certificate)
    return LPOutcome(REFUTED, certificate)


def replay_certificate(rows, certificate) -> None:
    """Exactly recompute the contradiction; raise if it does not replay.

    The nonnegative combination of the rows must cancel every entropy
    coefficient and leave a strictly positive right-hand side, i.e. prove
    0 >= rhs > 0.
    """
    by_tag = {}
    for tag, coeffs, rhs in rows:
        by_tag.setdefault(tag, []).append((coeffs, rhs))
    combo: dict = {}
    total_rhs = Fraction(0)
    for tag, mult in certificate:
        if mult < 0:
            raise RefuterError(f"negative multiplier on {tag}")
        if tag not in by_tag or not by_tag[tag]:
            raise RefuterError(f"certificate references unknown row {tag}")
        coeffs, rhs = by_tag[tag].pop(0)
        for c, val in coeffs.items():
            combo[c] = combo.get(c, Fraction(0)) + mult * val
        total_rhs += mult * rhs
    if any(v != 0 for v in combo.values()) or total_rhs <= 0:
        raise RefuterError("certificate does not replay to a contradiction")


def outcome_dumps(outcome: LPOutcome) -> str:
    return json.dumps(outcome.to_obj(), separators=(",", ":")) + "\n"
