import json
import random
from fractions import Fraction

import pytest

from conftest import random_derived_joint, random_probs

from infotile import joint as joint_mod
from infotile.compiler import compile_ttori, compile_ttori_indexed
from infotile.expressions import REL_EQ, REL_GE, REL_LE, AffineConstraint, InfoExpr
from infotile.joint import (
    FLAT_ATOM_LIMIT,
    FactoredJoint,
    Seed,
    Variable,
    eval_expression,
    exact_marginal,
    exact_uniform_over,
    joint_dumps,
    joint_loads,
    uniform_seed,
)
from infotile.systems import ConstraintSystem
from infotile.tiling import PeriodicTiling, TileSet, find_periodic_tiling
from infotile.witness import (
    ColoredTorus,
    WitnessError,
    WitnessRefusal,
    build_witness,
    check_colored_tori,
    report_dumps,
    tiling_to_colored_tori,
    unit_flip,
    unit_sat,
    unit_sw,
    unit_triple,
    verify,
    vertex_group,
)

MONO = TileSet(1, ((1, 1, 1, 1),))
CHECKER = TileSet(2, ((1, 1, 2, 2), (2, 2, 1, 1)))


def sbar_outside(k, keep):
    return tuple(i for i in range(1, k + 1) if i not in keep)


# --- unit witnesses ---


def test_unit_triple_exact():
    joint, cs = unit_triple()
    report = verify(joint, cs, tol=1e-12)
    assert report.passed and report.max_violation <= 1e-12


def test_unit_flip():
    joint, cs = unit_flip()
    assert verify(joint, cs, tol=1e-9).passed
    # the three-variable law is the four-atom table
    pmf = exact_marginal(joint, ["F", "G1", "G2"])
    assert pmf == {
        (0, 0, 0): Fraction(1, 4),
        (0, 1, 0): Fraction(1, 4),
        (1, 0, 0): Fraction(1, 4),
        (1, 0, 1): Fraction(1, 4),
    }


def test_unit_sw():
    joint, cs = unit_sw(4)
    report = verify(joint, cs, tol=1e-9)
    assert report.passed, [(r.tag, r.residual) for r in report.failures[:4]]


def test_unit_sat_sign_gadget_positive_and_negative():
    k = 9
    joint, cs = unit_sat("ne_half", k, [[1, 2], [-3, -4]], (k,), ())
    assert verify(joint, cs, tol=1e-9).passed


def test_unit_sat_le_half_zero_and_one():
    k = 9
    sbar = sbar_outside(k, (1, 2))
    joint, cs = unit_sat("le_half", k, [[1, 3], [5, 6]], (), sbar)
    assert verify(joint, cs, tol=1e-9).passed


def test_unit_sat_le_34_all_admissible_counts():
    k = 9
    sbar = sbar_outside(k, (1, 2, 3, 4))
    groups = [[1, 2, 3, 5], [1, 2, 6, 7], [1, 6, 7, 8], [5, 6, 7, 8]]
    joint, cs = unit_sat("le_3_4", k, groups, (), sbar)
    assert verify(joint, cs, tol=1e-9).passed


def test_unit_sat_mirrored_selection():
    k = 9
    joint, cs = unit_sat("le_half", k, [[-1, -3], [-5, -6]], sbar_outside(k, (1, 2)), ())
    assert verify(joint, cs, tol=1e-9).passed


def test_refusal_le_half_two_selected():
    k = 9
    with pytest.raises(WitnessRefusal) as exc:
        unit_sat("le_half", k, [[1, 2]], (), sbar_outside(k, (1, 2)))
    err = exc.value
    assert err.law == Fraction(1, 2)
    assert err.required_split == Fraction(3, 2)
    assert err.seed_size == 3 and err.sat_count == 2 and err.group_size == 2


def test_refusal_ne_half_mixed_signs():
    k = 9
    with pytest.raises(WitnessRefusal) as exc:
        unit_sat("ne_half", k, [[1, -2]], (k,), ())
    err = exc.value
    assert err.law == Fraction(1, 3)
    assert err.required_split == Fraction(2, 3)


def test_refusal_le_34_four_selected():
    k = 9
    with pytest.raises(WitnessRefusal) as exc:
        unit_sat("le_3_4", k, [[1, 2, 3, 4]], (), sbar_outside(k, (1, 2, 3, 4)))
    assert exc.value.law == Fraction(1, 2)
    assert exc.value.required_split == Fraction(105, 2)


# --- colored tori ---


def test_vertex_groups_fix_edge_orientations():
    for p in range(4):
        for q in range(4):
            g = vertex_group(p, q)
            assert {g, vertex_group(p, q + 1)} in ({1, 4}, {2, 3})
            assert {g, vertex_group(p + 1, q)} in ({1, 2}, {3, 4})


def test_monochrome_tori_shape():
    til = find_periodic_tiling(MONO, 2)
    pos, neg = tiling_to_colored_tori(MONO, til, 9)
    assert pos.side == 4 and neg.side == 4
    assert pos.sign == 1 and neg.sign == -1
    assert set(abs(c) for c in pos.colors.values()) == {1, 2, 3, 4}
    assert all(c < 0 for c in neg.colors.values())


def test_checkerboard_tori_use_two_tile_colors():
    til = find_periodic_tiling(CHECKER, 2)
    pos, neg = tiling_to_colored_tori(CHECKER, til, 9)
    assert pos.side == 4
    tile_colors = {(abs(c) - 1) // 4 + 1 for c in pos.colors.values()}
    assert tile_colors == {1, 2}


def test_invalid_tiling_rejected():
    bad = PeriodicTiling(1, 1, ((0,),))
    with pytest.raises(WitnessError):
        tiling_to_colored_tori(TileSet(2, ((1, 1, 2, 1),)), bad, 9)


def test_check_catches_unbalanced_copies():
    til = find_periodic_tiling(MONO, 2)
    pos, neg = tiling_to_colored_tori(MONO, til, 9)
    broken = ColoredTorus(neg.side, -1, {pq: c for pq, c in pos.colors.items()})
    with pytest.raises(WitnessError):
        check_colored_tori(MONO, 9, pos, broken)


# --- the full witness ---


@pytest.fixture(scope="module")
def mono_pipeline():
    til = find_periodic_tiling(MONO, 2)
    cs, index, lay = compile_ttori_indexed(MONO)
    joint = build_witness(MONO, til)
    return til, cs, lay, joint


def test_full_witness_verifies(mono_pipeline):
    _, cs, _, joint = mono_pipeline
    report = verify(joint, cs, tol=1e-6)
    assert report.passed, [(r.tag, r.residual) for r in report.failures[:5]]
    assert report.max_atoms <= 10**7


def test_witness_balance_exact(mono_pipeline):
    _, _, lay, joint = mono_pipeline
    for w in lay.w:
        assert exact_uniform_over(joint, w, 2)
    assert exact_uniform_over(joint, lay.f, 2)


def test_witness_cycle_degrees(mono_pipeline):
    _, _, lay, joint = mono_pipeline
    for pair in (lay.x, lay.y):
        pmf = exact_marginal(joint, list(pair))
        left, right = {}, {}
        for (a, b), p in pmf.items():
            assert p > 0
            left.setdefault(a, set()).add(b)
            right.setdefault(b, set()).add(a)
        assert all(len(s) == 2 for s in left.values())
        assert all(len(s) == 2 for s in right.values())


def test_witness_locality_bound(mono_pipeline):
    _, cs, _, joint = mono_pipeline
    biggest = max(
        max((joint.atoms_for(vs) for vs in row.lhs.terms), default=0) for row in cs.rows
    )
    assert biggest <= 10**7


def test_partner_tables_are_derived(mono_pipeline):
    # each U2 = X + U1 mod m is stored over X's values, not over X's seeds
    _, cs, _, joint = mono_pipeline
    derived = [v for v in joint.variables.values() if v.inputs]
    assert derived and all(v.name.endswith(".U2") for v in derived)
    for v in derived:
        (x,), (seed,) = v.inputs, v.seeds
        m = joint.seeds[seed].size
        assert exact_uniform_over(joint, x, m) and exact_uniform_over(joint, v.name, m)
        assert v.table.size == (joint.var(x).vmax + 1) * m == m * m
    assert sum(v.table.size for v in joint.variables.values()) <= 1_500_000


def test_corrupted_witness_fails(mono_pipeline):
    _, cs, lay, joint = mono_pipeline
    from infotile.joint import FactoredJoint, Variable

    tampered = []
    for v in joint.variables.values():
        if v.name == lay.vb[0]:
            src = joint.var(lay.v[0])
            tampered.append(Variable(v.name, src.seeds, src.table))
        else:
            tampered.append(v)
    bad = FactoredJoint(list(joint.seeds.values()), tampered)
    report = verify(bad, cs, tol=1e-6)
    assert not report.passed
    failing = {r.tag for r in report.failures}
    assert any("i_vvb|w" in tag for tag in failing)


def test_conjoin_verification_consistency(mono_pipeline):
    from infotile.systems import conjoin
    from infotile.gadgets import GadgetRef, instantiate_gadget

    _, _, lay, joint = mono_pipeline
    p = instantiate_gadget(GadgetRef("TRIPLE"), ["Y1", "Y2", "Y3"])
    tj, _ = unit_triple()
    assert verify(tj, conjoin(p, p), tol=1e-9).passed == verify(tj, p, tol=1e-9).passed


def test_empty_system_passes():
    joint, _ = unit_triple()
    report = verify(joint, ConstraintSystem([], [], []), tol=1e-9)
    assert report.passed and report.rows == []


def test_report_serialization(mono_pipeline):
    joint, cs = unit_triple()
    report = verify(joint, cs, tol=1e-9)
    obj = json.loads(report_dumps(report))
    assert obj["summary"]["pass"] is True
    assert [r["tag"] for r in obj["rows"]] == [r.tag for r in cs.rows]


def test_checkerboard_full_witness():
    til = find_periodic_tiling(CHECKER, 2)
    joint = build_witness(CHECKER, til)
    report = verify(joint, compile_ttori(CHECKER), tol=1e-6)
    assert report.passed


def test_witness_json_round_trip_small():
    joint, cs = unit_flip()
    back = joint_loads(joint_dumps(joint))
    assert verify(back, cs, tol=1e-9).passed


def test_conjoin_semantics_on_witnesses():
    # a joint verifies a conjunction exactly when it verifies both parts
    from infotile.expressions import bound_row
    from infotile.gadgets import GadgetRef, instantiate_gadget
    from infotile.systems import conjoin

    joint, p = unit_triple()  # three-point modular sum, H(Y1) = log2 3
    ok = ConstraintSystem(["Y1"], [], [bound_row("Y1", ">=", 1, "ok")])
    bad = ConstraintSystem(["Y1"], [], [bound_row("Y1", ">=", 2, "bad")])
    assert verify(joint, p, tol=1e-9).passed
    assert verify(joint, conjoin(p, ok), tol=1e-9).passed
    assert not verify(joint, bad, tol=1e-9).passed
    assert not verify(joint, conjoin(p, bad), tol=1e-9).passed


def test_flatten_preserves_verification():
    from infotile.compiler import flatten

    joint, cs = unit_flip()
    assert verify(joint, cs, tol=1e-9).passed
    assert verify(joint, flatten(cs), tol=1e-9).passed
    # and a corrupted witness fails both forms
    from infotile.joint import FactoredJoint, Variable

    swapped = []
    for v in joint.variables.values():
        if v.name == "G2":
            src = joint.var("G1")
            swapped.append(Variable("G2", src.seeds, src.table))
        else:
            swapped.append(v)
    bad = FactoredJoint(list(joint.seeds.values()), swapped)
    assert not verify(bad, cs, tol=1e-9).passed
    assert not verify(bad, flatten(cs), tol=1e-9).passed


def test_uniform_partner_triples_verify_tightly():
    # partner blocks are exact modular sums: equalities hold to 1e-12
    joint, cs = unit_flip()
    report = verify(joint, cs, tol=1e-12)
    assert report.passed and report.max_violation <= 1e-12


def test_three_color_full_witness():
    # exercises the widest supported switch block (k = 13)
    ts = TileSet(3, ((2, 1, 1, 1), (3, 2, 2, 2), (1, 3, 3, 3)))
    til = find_periodic_tiling(ts, 3)
    assert til is not None and (til.a, til.b) == (1, 3)
    joint = build_witness(ts, til)
    report = verify(joint, compile_ttori(ts), tol=1e-6)
    assert report.passed, [(r.tag, r.residual) for r in report.failures[:3]]
    assert report.max_atoms <= 10**7


def test_sat_auxiliary_exactly_independent():
    # exact rational check: the auxiliary's joint law with the conditioning
    # tuple factorizes, and its marginal is exactly uniform
    k = 9
    sbar = tuple(i for i in range(1, k + 1) if i not in (1, 2))
    joint, cs = unit_sat("le_half", k, [[1, 3], [5, 6]], (), sbar)
    uvar = "sat.U"
    ctx = ["E"] + [f"Vb{i}" for i in sbar]
    pmf_joint = exact_marginal(joint, [uvar] + ctx)
    pmf_u = exact_marginal(joint, [uvar])
    pmf_ctx = exact_marginal(joint, ctx)
    assert set(pmf_u.values()) == {Fraction(1, 3)}
    names = sorted(set([uvar] + ctx))
    upos = names.index(uvar)
    ctx_positions = [names.index(n) for n in sorted(set(ctx))]
    for key, p in pmf_joint.items():
        pu = pmf_u[(key[upos],)]
        pc = pmf_ctx[tuple(key[i] for i in ctx_positions)]
        assert p == pu * pc, key


def test_witness_construction_deterministic():
    joint1, _ = unit_sat("le_half", 9, [[1, 3], [5, 6]],
                         (), tuple(i for i in range(1, 10) if i not in (1, 2)))
    joint2, _ = unit_sat("le_half", 9, [[1, 3], [5, 6]],
                         (), tuple(i for i in range(1, 10) if i not in (1, 2)))
    assert joint_dumps(joint1) == joint_dumps(joint2)
    til = find_periodic_tiling(MONO, 2)
    a = build_witness(MONO, til)
    b = build_witness(MONO, til)
    assert list(a.seeds) == list(b.seeds)
    assert list(a.variables) == list(b.variables)
    import numpy as np

    for name in a.variables:
        assert np.array_equal(a.var(name).table, b.var(name).table), name


def test_each_subset_entropy_computed_once_per_witness(monkeypatch):
    # verify, the slack extension and the slack verify share one memo
    from collections import Counter

    from infotile import joint as joint_mod
    from infotile.compiler import flatten, slackify
    from infotile.witness import extend_witness_for_slack

    calls = Counter()
    original = joint_mod.subset_entropy

    def counted(joint, names):
        calls[frozenset(names)] += 1
        return original(joint, names)

    monkeypatch.setattr(joint_mod, "subset_entropy", counted)
    joint, cs = unit_flip()
    assert verify(joint, cs, tol=1e-9).passed
    sas = flatten(cs)
    extended = extend_witness_for_slack(joint, sas)
    assert verify(extended, slackify(sas), tol=1e-9).passed
    assert calls and set(calls.values()) == {1}
    assert any(n.startswith("_slack") for vs in calls for n in vs)


# --- the evaluation plan ---


def _wide_joint() -> FactoredJoint:
    """A and D over a skewed seed s and a uniform t, B over t and u, and C
    derived from A and B: every set holding C, or A and B, reads 80,000
    atoms, above `FLAT_ATOM_LIMIT`."""
    rng = random.Random(7)
    s, t, u = Seed("s", 50, random_probs(rng, 50)), uniform_seed("t", 40), uniform_seed("u", 40)
    table = lambda n, m: [rng.randrange(m) for _ in range(n)]
    return FactoredJoint([s, t, u], [
        Variable("A", ("s", "t"), table(2000, 4)),
        Variable("D", ("t", "s"), table(2000, 3)),
        Variable("B", ("t", "u"), table(1600, 4)),
        Variable("C", ("u",), table(4 * 4 * 40, 5), ("A", "B")),
    ])


def _random_rows(rng: random.Random, names: list[str], count: int) -> list[AffineConstraint]:
    rows = []
    for i in range(count):
        terms = {frozenset(rng.sample(names, rng.randint(1, min(3, len(names))))):
                 Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))}
        rel = rng.choice((REL_EQ, REL_GE, REL_LE))
        rows.append(AffineConstraint(InfoExpr(terms), rel, Fraction(rng.randint(-8, 8), 4), f"r{i}"))
    return rows


@pytest.mark.parametrize("case", range(12))
def test_plan_matches_row_by_row_evaluation(case, monkeypatch):
    """Plan-based `verify` against `eval_expression` on a fresh copy of the joint."""
    make = _wide_joint if case == 0 else lambda: random_derived_joint(random.Random(case))
    joint, fresh = make(), make()
    names = joint.var_names()
    rows = _random_rows(random.Random(100 + case), names, 40)
    if case == 0:  # keys on both sides of the limit, and one seed product of several keys
        sizes = [joint.atoms_for(vs) for row in rows for vs in row.lhs.terms]
        assert min(sizes) <= FLAT_ATOM_LIMIT < max(sizes)
        rows.append(AffineConstraint(InfoExpr.entropy(["A", "D"]), REL_GE, 0, "ad"))
    tol = 1e-3
    report = verify(joint, rows, tol=tol)
    for row, got in zip(rows, report.rows, strict=True):
        value = eval_expression(fresh, row.lhs)
        residual = value - float(row.rhs)
        violation = {REL_EQ: abs(residual), REL_GE: max(0.0, -residual),
                     REL_LE: max(0.0, residual)}[row.rel]
        assert got.value == pytest.approx(value, abs=1e-12)
        assert got.residual == pytest.approx(residual, abs=1e-12)
        assert got.passed == (violation <= tol)
        assert got.atoms == max((fresh.atoms_for(vs) for vs in row.lhs.terms), default=0)

    def computed(*args):
        raise AssertionError("an entropy was computed again")

    monkeypatch.setattr(joint_mod, "subset_entropy", computed)
    monkeypatch.setattr(joint_mod, "_flat_entropies", computed)
    assert report_dumps(verify(joint, rows, tol=tol)) == report_dumps(report)
