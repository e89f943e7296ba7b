from fractions import Fraction
from itertools import combinations, product

import pytest

from infotile.compiler import (
    CompileError,
    compile_ttori,
    emit_statement,
    face_sets,
    flatten,
    k_for,
    sas_dumps,
    sas_loads,
    slackify,
)
from infotile.expressions import REL_EQ, REL_GE
from infotile.gadgets import GadgetRef, instantiate_gadget, residue
from infotile.systems import is_lint_clean, system_dumps
from infotile.tiling import TileSet, find_periodic_tiling

MONO = TileSet(1, ((1, 1, 1, 1),))


def derive_expected_manifest_mono():
    """Re-derive the monochrome gadget counts from the index-set formulas."""
    k = 9
    pairs = 0
    for j1 in range(1, k):
        for j2 in range(j1, k):
            if {residue(j1), residue(j2)} not in ({1, 4}, {2, 3}):
                pairs += 1
    pairs_h = 0
    for j1 in range(1, k):
        for j2 in range(j1, k):
            if {residue(j1), residue(j2)} not in ({1, 2}, {3, 4}):
                pairs_h += 1
    quads = set()
    classes = [[j for j in range(1, k) if residue(j) == r] for r in (1, 2, 3, 4)]
    for combo in product(*classes):
        quads.add(frozenset(combo))
    c11, c22 = face_sets(MONO)
    sat_le_half = (pairs + pairs_h) * 4
    sat_le_34 = (len(quads) - len(c11)) * 2 + (len(quads) - len(c22)) * 2
    sat_ne = 4
    flips = 2 * k
    sats = sat_ne + sat_le_half + sat_le_34
    unif_2 = 2 + k + flips + sat_ne  # cycle colorings, switches, flip coins, sign gadgets
    unif_3 = 2 * flips + sat_le_half
    unif_4 = flips
    unif_105 = sat_le_34
    unifs = 4 + 2 + k + 4 * flips + sats  # core supports + cycle colorings + nested blocks
    return {
        "SAT_NEQ_HALF": sat_ne,
        "SAT_LE_HALF": sat_le_half,
        "SAT_LE_3_4": sat_le_34,
        "FLIP": flips,
        "UNIF": unifs,
        "TRIPLE": unifs,
        "UNIF_2": unif_2,
        "UNIF_3": unif_3,
        "UNIF_4": unif_4,
        "UNIF_105": unif_105,
        "CYCS": 2,
        "TORI": 1,
        "SW": 1,
        "COL": 1,
        "COLD": 1,
        "CTORI": 1,
        "OTORI": 1,
        "TTORI": 1,
    }


def test_k_selection_and_cap():
    assert k_for(MONO) == 9
    assert k_for(TileSet(2, ((1, 2, 1, 2),))) == 9
    assert k_for(TileSet(3, ((1, 2, 3, 1),))) == 13
    with pytest.raises(CompileError):
        k_for(TileSet(4, ((1, 2, 3, 4),)))


def test_face_sets_monochrome():
    c11, c22 = face_sets(MONO)
    assert c11 == frozenset({frozenset({1, 2, 3, 4})})
    assert c22 == frozenset({frozenset({1, 2, 3, 4})})


def test_face_sets_distinct_tiles_distinct_faces():
    ts = TileSet(2, ((1, 1, 2, 2), (2, 2, 1, 1)))
    c11, c22 = face_sets(ts)
    assert len(c11) == 2 and len(c22) == 2


def test_compile_monochrome_manifest():
    cs = compile_ttori(MONO)
    expected = derive_expected_manifest_mono()
    for key, count in expected.items():
        assert cs.manifest[key] == count, key
    assert cs.manifest["rows"] == len(cs.rows)
    assert cs.manifest["vars"] == len(cs.all_vars())
    assert cs.free_vars == []


def test_compile_deterministic_bytes():
    assert system_dumps(compile_ttori(MONO)) == system_dumps(compile_ttori(MONO))


def test_compile_is_lint_clean():
    assert is_lint_clean(compile_ttori(MONO))


def test_compile_t3_ok_t4_errors():
    ts3 = TileSet(3, ((1, 2, 3, 1),))
    cs = compile_ttori(ts3)
    assert cs.manifest["UNIF_105"] > 0
    with pytest.raises(CompileError):
        compile_ttori(TileSet(4, ((1, 2, 3, 4),)))


def test_flatten_splits_equalities():
    triple = instantiate_gadget(GadgetRef("TRIPLE"), ["A", "B", "C"])
    sas = flatten(triple)
    assert len(sas.rows) == 12
    assert all(r.rel == REL_GE for r in sas.rows)
    vars_seen = set().union(*(vs for r in sas.rows for vs, _ in r.entries))
    assert vars_seen <= {"A", "B", "C"}


def test_flatten_single_rows():
    unif2 = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["X"])
    sas = flatten(unif2)
    # 6 equalities split + 2 bounds
    assert len(sas.rows) == 14
    le_rows = [r for r in sas.rows if r.tag.endswith(":neg")]
    assert len(le_rows) == 1 and le_rows[0].rhs == Fraction(-3, 2)


def test_flatten_round_trip():
    sas = flatten(instantiate_gadget(GadgetRef("CYCS"), ["X1", "X2"]))
    text = sas_dumps(sas)
    assert sas_dumps(sas_loads(text)) == text


def test_slackify_shape():
    # "_slack..." sorts after "C" but before "c": the slack set goes last or in between
    for names in (["A", "B", "C"], ["A", "B", "c"]):
        triple = instantiate_gadget(GadgetRef("TRIPLE"), names)
        sas = flatten(triple)
        slk = slackify(sas)
        assert len(slk.rows) == len(sas.rows)
        assert len(slk.var_names) == len(sas.var_names) + len(sas.rows)
        assert all(r.rel == REL_EQ for r in slk.rows)
        for j, row in enumerate(slk.rows, start=1):
            coeffs = dict(row.entries)
            assert coeffs[frozenset({f"_slack{j}"})] == -1
            assert row.entries == row.expr().sorted_terms()


def test_slackify_single_bound_example():
    from infotile.compiler import SparseAffineSystem, SparseRow

    row = SparseRow(((frozenset({"X"}), Fraction(1)),), REL_GE, Fraction(1), "b")
    slk = slackify(SparseAffineSystem(["X"], [row]))
    coeffs = dict(slk.rows[0].entries)
    assert coeffs == {frozenset({"X"}): 1, frozenset({"_slack1"}): -1}
    assert slk.rows[0].rel == REL_EQ and slk.rows[0].rhs == 1


def test_slackify_requires_ge_form():
    triple = instantiate_gadget(GadgetRef("TRIPLE"), ["A", "B", "C"])
    with pytest.raises(Exception):
        slackify(slackify(flatten(triple)))


# --- forward soundness at desk scale ---


def _canonical_two_color(tiles):
    swapped = tuple(sorted(tuple(3 - c for c in t) for t in tiles))
    return min(tuple(sorted(tiles)), swapped)


def test_forward_soundness_exhaustive_two_color():
    """Witnesses satisfy compiled systems for every tileable set at desk scale.

    Exhausts all tile sets with at most 2 tiles over 2 colors and periods up
    to 2, deduplicated by the color swap (both the search result's existence
    and the compiled system are equivariant under color relabeling, so one
    representative per orbit covers the orbit).
    """
    from infotile.witness import build_witness, verify

    universe = list(product((1, 2), repeat=4))
    sets = [(t,) for t in universe] + list(combinations(universe, 2))
    reps = sorted({_canonical_two_color(s) for s in sets})
    verified = 0
    for tiles in reps:
        ts = TileSet(2, tiles)
        til = find_periodic_tiling(ts, 2)
        if til is None:
            continue
        joint = build_witness(ts, til)
        report = verify(joint, compile_ttori(ts), tol=1e-6)
        assert report.passed, (tiles, [(r.tag, r.residual) for r in report.failures[:3]])
        verified += 1
    assert verified >= 30  # a healthy fraction of the 72 orbits tile


# --- statement emission ---


def test_emit_boolean_negates_rows():
    unif2 = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["X"])
    sas = flatten(unif2)
    doc = emit_statement(sas, "boolean")
    assert len(doc["disjuncts"]) == len(sas.rows)
    by_tag = {r.tag: r for r in sas.rows}
    for d in doc["disjuncts"]:
        src = by_tag[d["source"]]
        assert d["rel"] == ">"
        assert Fraction(d["rhs"]) == -src.rhs
        negated = {frozenset(t["set"]): Fraction(t["coef"]) for t in d["a"]}
        assert negated == {vs: -c for vs, c in src.entries}


def test_emit_single_ci_row_cond_affine():
    from infotile.ci import CISystem

    ci = CISystem(["X1", "X", "Y"], [(frozenset({"X"}), frozenset({"Y"}), frozenset())],
                  binary_var="X1")
    doc = emit_statement(ci, "cond-affine")
    assert doc["role_var"] == "X1"
    coeffs = {frozenset(t["set"]): Fraction(t["coef"]) for t in doc["a"]}
    # the mutual-information part of the aggregate
    assert coeffs[frozenset({"X"})] == 1
    assert coeffs[frozenset({"Y"})] == 1
    assert coeffs[frozenset({"X", "Y"})] == -1
    # audit: every coefficient is the sum of its source contributions
    for t in doc["a"]:
        assert sum(Fraction(s["coef"]) for s in t["sources"]) == Fraction(t["coef"])


def test_emit_affine_subspace_form():
    from infotile.ci import CISystem

    ci = CISystem(["X1", "A"], [(frozenset({"A"}), frozenset({"A"}), frozenset())],
                  binary_var="X1")
    doc = emit_statement(ci, "affine-subspace")
    kinds = [c["kind"] for c in doc["condition"]]
    assert kinds == ["linear", "entry"]
    assert doc["condition"][1]["rhs"] == "1"


def test_emit_requires_role():
    from infotile.ci import CISystem

    ci = CISystem(["A", "B"], [(frozenset({"A"}), frozenset({"B"}), frozenset())])
    with pytest.raises(Exception):
        emit_statement(ci, "cond-affine")


def test_emit_cond_affine_from_ci_only_constraint_system():
    triple = instantiate_gadget(GadgetRef("TRIPLE"), ["X1", "B", "C"])
    doc = emit_statement(triple, "cond-affine", role_var="X1")
    assert doc["role_var"] == "X1"
    for entry in doc["a"]:
        assert sum(Fraction(s["coef"]) for s in entry["sources"]) == Fraction(entry["coef"])
