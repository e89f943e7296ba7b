import json
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from infotile.ci import (
    CIError,
    CISystem,
    binary_implication_instance,
    canonical_disjoint_extension,
    ci_dumps,
    ci_loads,
    disjointify,
    to_cardinality_implication,
    to_ci_only,
)
from infotile.expressions import REL_GE, AffineConstraint, InfoExpr, bound_row, ci_row
from infotile.gadgets import GadgetRef, SystemBuilder, instantiate_gadget
from infotile.joint import FactoredJoint, Variable, uniform_seed
from infotile.logbounds import pick_log_bounds
from infotile.systems import ConstraintSystem
from infotile.witness import verify


def test_unif2_becomes_anchor_block():
    cs = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["Y"])
    ci = to_ci_only(cs)
    assert ci.binary_var == "BIT"
    assert ci.vars[0] == "BIT"
    # original triple (6 relations) + two triples against the anchor (12)
    assert len(ci.relations) == 18
    assert len(ci.vars) == 1 + 3 + 3  # anchor, Y + 2 partners, 3 new auxiliaries


def test_unif105_uses_log_bound_constants():
    b = SystemBuilder(["U"])
    b.unif("U", "u105", card=105)
    ci = to_ci_only(b.system())
    assert any("power chain" in a[3] for a in ci.audit)
    (entry,) = [a for a in ci.audit if a[1] == "U"]
    assert str(pick_log_bounds(105)) in entry[3]
    assert str(pick_log_bounds(106)) in entry[3]
    # no affine rows survive: the output type only carries relations
    assert all(len(rel) == 3 for rel in ci.relations)


def test_compiled_mono_bound_pairs():
    # 742 bound rows, 708 distinct: F carries one identical pair per flip gadget
    from infotile.ci import _collect_bound_pairs
    from infotile.compiler import compile_ttori
    from infotile.tiling import TileSet

    cs = compile_ttori(TileSet(1, ((1, 1, 1, 1),)))
    bounds = [r for r in cs.rows if r.ci is None]
    assert len(bounds) == 742 and len({(r.lhs, r.rel, r.rhs) for r in bounds}) == 708
    assert len(_collect_bound_pairs(cs)) == 354


def _unif2_with(extra):
    cs = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["Y"])
    return ConstraintSystem(cs.free_vars, cs.existential_vars, cs.rows + extra(cs))


def test_repeated_identical_bound_counts_once():
    single = _unif2_with(lambda cs: [])
    doubled = _unif2_with(lambda cs: [r for r in cs.rows if r.ci is None])
    assert len(doubled.rows) == len(single.rows) + 2
    assert ci_dumps(to_ci_only(doubled)) == ci_dumps(to_ci_only(single))


@pytest.mark.parametrize("rel", [">=", "<="])
def test_conflicting_bounds_raise(rel):
    conflicting = _unif2_with(lambda cs: [bound_row("Y", rel, 3, "other")])
    with pytest.raises(CIError, match=f"two {rel} bounds"):
        to_ci_only(conflicting)


def test_rejects_non_lint_clean_input():
    bad = ConstraintSystem(
        ["A", "B"],
        [],
        [AffineConstraint(InfoExpr.entropy(["A"]) - InfoExpr.entropy(["B"]), REL_GE, Fraction(0), "diff")],
    )
    with pytest.raises(Exception):
        to_ci_only(bad)


def test_flip_system_rewrites_completely():
    b = SystemBuilder(["F", "G1", "G2"])
    b.flip("F", "G1", "G2", "flip")
    cs = b.system()
    ci = to_ci_only(cs)
    base_ci_rows = sum(1 for r in cs.rows if r.ci is not None)
    assert len(ci.relations) > base_ci_rows
    assert ci.binary_var == "BIT" and ci.card_bound is None


@pytest.mark.parametrize("r,expected_pow", [(2, 1), (3, 1), (8, 3)])
def test_cardinality_implication(r, expected_pow):
    cs = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["Y"])
    ci = to_ci_only(cs)
    out = to_cardinality_implication(ci, r)
    assert out.binary_var == "CARD" and out.vars[0] == "CARD"
    assert out.card_bound == r
    assert out.target == (frozenset({"CARD"}), frozenset({"CARD"}), frozenset())
    steps = [a[0] for a in out.audit]
    assert steps[-3:] == ["a", "b", "c"]
    if r == 8:
        assert "4**3" in out.audit[-1][1]
    # the power copy has the right exponent: floor(log2 r)
    assert r.bit_length() - 1 == expected_pow


def test_cardinality_implication_rejects_small_r():
    cs = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["Y"])
    ci = to_ci_only(cs)
    with pytest.raises(CIError):
        to_cardinality_implication(ci, 1)


FUNC_DEP = CISystem(
    ["A", "B"],
    [(frozenset({"A"}), frozenset({"A"}), frozenset({"B"}))],
    target=(frozenset({"A"}), frozenset({"B"}), frozenset()),
)


def test_disjointify_counts():
    out = disjointify(FUNC_DEP)
    named = [v for v in out.vars if v[0] in "YZ" and v[1:].isdigit()]
    aux = [v for v in out.vars if v not in named]
    assert len(named) == 12
    assert len(aux) == 8  # two per equality block, four blocks
    # 4 blocks * 12 + saturation 2*6 + translated relation
    assert len(out.relations) == 4 * 12 + 12 + 1
    assert out.all_disjoint()


def test_disjointify_translates_target():
    out = disjointify(FUNC_DEP)
    a, b, c = out.target
    assert (sorted(a), sorted(b), sorted(c)) == (["Y1"], ["Y4"], [])


def test_disjointify_requires_target_and_size():
    with pytest.raises(CIError):
        disjointify(CISystem(["A", "B"], []))
    degenerate = CISystem(
        ["A"], [], target=(frozenset({"A"}), frozenset({"A"}), frozenset())
    )
    with pytest.raises(CIError):
        disjointify(degenerate)


def test_disjointify_polynomial_size():
    for n in (2, 3, 5):
        names = [f"X{i}" for i in range(n)]
        rels = [
            (frozenset({names[i]}), frozenset({names[(i + 1) % n]}), frozenset())
            for i in range(n)
        ]
        ci = CISystem(names, rels, target=rels[0])
        out = disjointify(ci)
        assert len(out.relations) <= 40 * (n + len(rels))
        assert len(out.vars) <= 12 * n


def test_forward_model_check():
    # concrete joint satisfying H(A|B) = 0: A = B = fair bit
    base = FactoredJoint(
        [uniform_seed("s", 2)],
        [Variable("A", ("s",), np.array([0, 1])), Variable("B", ("s",), np.array([0, 1]))],
    )
    out = disjointify(FUNC_DEP)
    ext = canonical_disjoint_extension(base, ["A", "B"], out)
    rows = [ci_row(a, b, c, f"rel{i}") for i, (a, b, c) in enumerate(out.relations)]
    report = verify(ext, rows, tol=1e-9)
    assert report.passed and report.max_violation <= 1e-9


def test_binary_implication_instance():
    cs = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["Y"])
    impl = to_cardinality_implication(to_ci_only(cs), 3)
    out = binary_implication_instance(impl, 3)
    assert out.all_disjoint()
    assert out.binary_var == "Y1" and out.card_bound == 3
    a, b, c = out.target
    assert (sorted(a), sorted(b), sorted(c)) == (["Y1"], ["Z1"], [])
    kinds = [a[0] for a in out.audit]
    assert "consequent" in kinds and "card" in kinds


def test_binary_implication_requires_matching_bound():
    cs = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["Y"])
    impl = to_cardinality_implication(to_ci_only(cs), 3)
    with pytest.raises(CIError):
        binary_implication_instance(impl, 5)


def test_ci_json_round_trip():
    cs = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["Y"])
    ci = to_ci_only(cs)
    text = ci_dumps(ci)
    back = ci_loads(text)
    assert ci_dumps(back) == text
    obj = json.loads(text)
    assert obj["n"] == len(obj["vars"])
    assert obj["extras"]["binary_var"] == "BIT"


def test_end_to_end_on_compiled_subsystem():
    """The full rewrite chain on a compiled torus block stays disjoint.

    The complete compiled instance rewrites to millions of relations with
    quadratic saturation rows, so the pipeline is exercised end to end on
    the torus sub-block, which carries the same row shapes (uniformity
    triples plus two-point cardinality windows).
    """
    b = SystemBuilder(["X1", "X2", "Y1", "Y2"])
    b.tori("X1", "X2", "Y1", "Y2", "tori")
    ci = to_ci_only(b.system())
    impl = to_cardinality_implication(ci, 2)
    out = binary_implication_instance(impl, 2)
    assert out.all_disjoint()
    assert out.binary_var == "Y1" and out.card_bound == 2
    assert out.target == (frozenset({"Y1"}), frozenset({"Z1"}), frozenset())


def test_canonical_extension_keeps_derived_variables():
    # B = A + P mod 3 is derived; every copy must keep its inputs and its entropies
    base = FactoredJoint(
        [uniform_seed("s", 3), uniform_seed("p", 3)],
        [Variable("A", ("s",), np.array([0, 1, 2])), Variable("P", ("p",), np.array([0, 1, 2])),
         Variable("B", ("p",), np.array([(a + b) % 3 for a in range(3) for b in range(3)]), ("A",))],
    )
    out = disjointify(FUNC_DEP)
    ext = canonical_disjoint_extension(base, ["A", "B"], out)
    source = {f"{side}{i}": ["A", "B"][(i - 1) % 2] for i in range(1, 7) for side in "YZ"}
    source.update({u: ["A", "B"][(i - 1) % 2] for u1, u2, i in out.meta["eqres_aux"] for u in (u1, u2)})
    assert set(source) == set(ext.variables) - set(base.variables)
    assert all(ext.var(dst).inputs == base.var(src).inputs for dst, src in source.items())
    names = sorted(source)
    for r in (1, 2, 3):
        for sub in combinations(names, r):
            want = base.entropy({source[n] for n in sub} | {"P"})
            assert ext.entropy([*sub, "P"]) == pytest.approx(want, abs=1e-12)
