import json
import random
from fractions import Fraction

import pytest

from infotile.compiler import flatten
from infotile.expressions import REL_EQ, REL_GE, REL_LE, AffineConstraint, InfoExpr
from infotile.gadgets import GadgetRef, instantiate_gadget
from infotile.joint import entropic_vector
from infotile.refuter import (
    REFUTED,
    UNKNOWN,
    RefuterError,
    elemental_inequalities,
    outcome_dumps,
    refute,
    replay_certificate,
)
from infotile.systems import ConstraintSystem

from conftest import random_joint


def eq_system(entries):
    rows = [
        AffineConstraint(InfoExpr.entropy(list(names)), REL_EQ, Fraction(val), f"h{i}")
        for i, (names, val) in enumerate(entries)
    ]
    names = sorted({n for ns, _ in entries for n in ns})
    return flatten(ConstraintSystem(names, [], rows))


def lp_rows(sas, variables=None):
    """The rows `refute` checks: elemental inequalities plus the kept system rows."""
    names = sorted(variables or sas.all_vars())
    rows = [(tag, dict(expr.terms), Fraction(0))
            for tag, expr in elemental_inequalities(len(names), names)]
    for r in sas.rows:
        if r.variables() <= set(names):
            rows.append((r.tag, dict(r.lhs.terms), r.rhs))
    return rows


def assert_refuted(sas, variables=None):
    """REFUTED, with a certificate that replays and is normalized to prove 0 >= 1."""
    out = refute(sas, variables=variables)
    assert out.status == REFUTED
    rows = lp_rows(sas, variables)
    replay_certificate(rows, out.certificate)
    rhs = {tag: r for tag, _, r in rows}
    assert len(rhs) == len(rows)
    assert sum(m * rhs[tag] for tag, m in out.certificate) == 1
    return out


def test_elemental_counts():
    assert len(elemental_inequalities(1)) == 1
    assert len(elemental_inequalities(2)) == 3
    assert len(elemental_inequalities(3)) == 9
    # formula: n + C(n,2) * 2^(n-2)
    assert len(elemental_inequalities(5)) == 5 + 10 * 8


def test_elemental_forms_n2():
    tags = [t for t, _ in elemental_inequalities(2)]
    assert tags == ["elem:h(X1|rest)", "elem:h(X2|rest)", "elem:i(X1;X2|{})"]


def test_elemental_cap():
    with pytest.raises(RefuterError):
        elemental_inequalities(11)


def test_refute_submodularity_violation():
    sas = eq_system([(("X1",), "1/2"), (("X2",), 1), (("X1", "X2"), 2)])
    out = assert_refuted(sas)
    assert out.certificate


def test_refute_single_entropy_unknown():
    sas = eq_system([(("X1",), 1)])
    assert refute(sas).status == UNKNOWN


def test_refute_direct_contradiction():
    rows = [
        AffineConstraint(InfoExpr.entropy(["X1"]), REL_GE, Fraction(1), "lo"),
        AffineConstraint(InfoExpr.entropy(["X1"]), REL_LE, Fraction(1, 2), "hi"),
    ]
    sas = flatten(ConstraintSystem(["X1"], [], rows))
    assert_refuted(sas)


def test_certificate_multipliers_nonnegative_and_exact():
    sas = eq_system([(("X1",), "1/2"), (("X2",), 1), (("X1", "X2"), 2)])
    out = assert_refuted(sas)
    assert all(m > 0 for _, m in out.certificate)
    obj = json.loads(outcome_dumps(out))
    assert obj["status"] == "REFUTED"
    assert all(Fraction(m) > 0 for _, m in obj["multipliers"])


def test_bogus_certificate_rejected():
    rows = [("r1", {frozenset({"X1"}): Fraction(1)}, Fraction(0))]
    with pytest.raises(RefuterError):
        replay_certificate(rows, [("r1", Fraction(1))])  # 0 >= 0 is no contradiction


def test_feasible_gadget_systems_are_unknown():
    triple = instantiate_gadget(GadgetRef("TRIPLE"), ["A", "B", "C"])
    assert refute(flatten(triple)).status == UNKNOWN
    cycs = instantiate_gadget(GadgetRef("CYCS"), ["X1", "X2"])
    sas = flatten(cycs)
    assert refute(sas, variables=["X1", "X2"]).status == UNKNOWN


def test_entropic_vectors_never_refuted():
    # soundness: realized entropy vectors satisfy the outer bound
    rng = random.Random(11)
    for trial in range(25):
        joint = random_joint(rng, max_vars=3)
        names = joint.var_names()
        vec = entropic_vector(joint, names)
        rows = []
        for sub, h in vec.entries.items():
            approx = Fraction(h).limit_denominator(10**6)
            for rel, adj in ((REL_GE, Fraction(-1, 10**5)), (REL_LE, Fraction(1, 10**5))):
                rows.append(
                    AffineConstraint(InfoExpr.entropy(sub), rel, approx + adj, f"{sorted(sub)}:{rel}")
                )
        sas = flatten(ConstraintSystem(names, [], rows))
        assert refute(sas).status == UNKNOWN, trial


def test_projection_never_turns_unknown_into_refuted():
    rng = random.Random(23)
    for trial in range(10):
        joint = random_joint(rng, max_vars=4)
        names = joint.var_names()
        vec = entropic_vector(joint, names)
        rows = []
        for sub, h in vec.entries.items():
            approx = Fraction(h).limit_denominator(10**6)
            rows.append(
                AffineConstraint(InfoExpr.entropy(sub), REL_LE, approx + Fraction(1, 10**5), f"{sorted(sub)}")
            )
        sas = flatten(ConstraintSystem(names, [], rows))
        full = refute(sas).status
        sub_names = names[: max(1, len(names) - 1)]
        projected = refute(sas, variables=sub_names).status
        assert full == UNKNOWN
        assert projected == UNKNOWN, trial


def test_restriction_drops_rows_mentioning_excluded_vars():
    rows = [
        AffineConstraint(InfoExpr.entropy(["X1", "X2"]), REL_GE, Fraction(10), "impossible"),
    ]
    sas = flatten(ConstraintSystem(["X1", "X2"], [], rows))
    # projecting away X2 drops the only row: nothing left to refute
    assert refute(sas, variables=["X1"]).status == UNKNOWN


def test_variable_cap():
    names = [f"X{i}" for i in range(1, 12)]
    sas = ConstraintSystem(names, [], [])
    with pytest.raises(RefuterError):
        refute(sas)


def test_repeated_restriction_variable_is_named():
    sas = eq_system([(("X1", "X2"), 1), (("X2",), 1)])
    with pytest.raises(RefuterError, match="more than once: X1$"):
        refute(sas, variables=["X1", "X1", "X2"])


def test_compiled_instance_projection_is_unknown():
    # witnesses exist for compiled tileable instances, so any variable
    # restriction of the flattened system must stay feasible
    from infotile.compiler import compile_ttori
    from infotile.tiling import TileSet

    sas = flatten(compile_ttori(TileSet(1, ((1, 1, 1, 1),))))
    out = refute(sas, variables=["X1", "X2", "Y1", "Y2", "F"])
    assert out.status == UNKNOWN


def test_refutes_contradictory_cardinality_window():
    # a two-point uniform forced above two bits is Shannon-infeasible
    from infotile.expressions import bound_row
    from infotile.gadgets import GadgetRef, instantiate_gadget
    from infotile.systems import ConstraintSystem, conjoin

    unif2 = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["X"])
    cap = ConstraintSystem(["X"], [], [bound_row("X", ">=", 2, "floor")])
    assert_refuted(flatten(conjoin(unif2, cap)))


def window_system(names, vec, eps=Fraction(1, 10**5)):
    """Rows H(S) in [vec[S] - eps, vec[S] + eps] for every nonempty subset S."""
    rows = []
    for sub, h in vec.items():
        for rel, bound in ((REL_GE, h - eps), (REL_LE, h + eps)):
            rows.append(AffineConstraint(InfoExpr.entropy(sub), rel, bound, f"{sorted(sub)}:{rel}"))
    return flatten(ConstraintSystem(names, [], rows))


def test_violated_elemental_inequality_is_refuted():
    # an entropic vector stays UNKNOWN; pushing one elemental inequality
    # below zero by a margin far above the windows' slack is REFUTED
    rng = random.Random(5)
    trials = 0
    while trials < 12:
        joint = random_joint(rng, max_vars=4)
        names = joint.var_names()
        if len(names) < 3:
            continue
        trials += 1
        vec = {
            sub: Fraction(h).limit_denominator(10**6)
            for sub, h in entropic_vector(joint, names).entries.items()
        }
        assert refute(window_system(names, vec)).status == UNKNOWN, trials
        tag, expr = rng.choice(elemental_inequalities(len(names), sorted(names)))
        value = sum(c * vec[s] for s, c in expr.terms.items())
        margin = Fraction(rng.randint(1, 50), 100)
        lowered = rng.choice([s for s, c in expr.terms.items() if c < 0])
        vec[lowered] += value + margin  # expr now evaluates to -margin
        assert sum(c * vec[s] for s, c in expr.terms.items()) == -margin
        assert_refuted(window_system(names, vec))
