#!/usr/bin/env python3
"""Small refuter demonstration: an infeasible prescription of entropies.

H(X1) = 1/2, H(X2) = 1, H(X1, X2) = 2 violates submodularity; the refuter
finds an exact dual certificate and the script replays it."""
from fractions import Fraction

from infotile.compiler import flatten
from infotile.expressions import REL_EQ, AffineConstraint, InfoExpr
from infotile.refuter import elemental_inequalities, refute, replay_certificate
from infotile.systems import ConstraintSystem


def main():
    rows = [
        AffineConstraint(InfoExpr.entropy(["X1"]), REL_EQ, Fraction(1, 2), "h1"),
        AffineConstraint(InfoExpr.entropy(["X2"]), REL_EQ, Fraction(1), "h2"),
        AffineConstraint(InfoExpr.entropy(["X1", "X2"]), REL_EQ, Fraction(2), "h12"),
    ]
    sas = flatten(ConstraintSystem(["X1", "X2"], [], rows))
    outcome = refute(sas)
    print("status:", outcome.status)
    for tag, mult in outcome.certificate or ():
        print(f"  {mult} * [{tag}]")
    replay = [(t, dict(e.terms), Fraction(0)) for t, e in elemental_inequalities(2)]
    replay += [(r.tag, dict(r.lhs.terms), r.rhs) for r in sas.rows]
    replay_certificate(replay, outcome.certificate)
    print("certificate replays exactly")


if __name__ == "__main__":
    main()
