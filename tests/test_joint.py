import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infotile.expressions import ci_expr
from infotile import joint as joint_mod
from infotile.joint import (
    FactoredJoint,
    Seed,
    UnknownVariable,
    Variable,
    _broadcast_values,
    _on_seeds,
    binary_entropy,
    entropic_vector,
    eval_expression,
    exact_marginal,
    exact_uniform_over,
    joint_dumps,
    joint_loads,
    subset_entropy,
    uniform_seed,
)

from conftest import atom_value, brute_entropy, brute_pmf, random_derived_joint, random_joint


def two_fair_bits() -> FactoredJoint:
    return FactoredJoint(
        [uniform_seed("a", 2), uniform_seed("b", 2)],
        [
            Variable("X", ("a",), np.array([0, 1])),
            Variable("Y", ("b",), np.array([0, 1])),
        ],
    )


def flip_triple_pmf() -> FactoredJoint:
    """(F, G1, G2) uniform over {000, 010, 100, 101} from one 4-point seed."""
    atoms = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
    return FactoredJoint(
        [uniform_seed("u", 4)],
        [
            Variable("F", ("u",), np.array([a[0] for a in atoms])),
            Variable("G1", ("u",), np.array([a[1] for a in atoms])),
            Variable("G2", ("u",), np.array([a[2] for a in atoms])),
        ],
    )


def test_two_independent_bits():
    assert subset_entropy(two_fair_bits(), ["X", "Y"]) == pytest.approx(2.0, abs=1e-12)


def test_four_atom_pmf_entropy():
    joint = flip_triple_pmf()
    assert subset_entropy(joint, ["F", "G1", "G2"]) == pytest.approx(2.0, abs=1e-12)


def test_bernoulli_quarter_entropy():
    joint = FactoredJoint(
        [Seed("s", 2, (Fraction(3, 4), Fraction(1, 4)))],
        [Variable("X", ("s",), np.array([0, 1]))],
    )
    # oracle: direct evaluation of -1/4 log 1/4 - 3/4 log 3/4
    oracle = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
    assert oracle == pytest.approx(0.8112781244591328, abs=1e-15)
    assert subset_entropy(joint, ["X"]) == pytest.approx(oracle, abs=1e-12)


def test_unknown_variable():
    with pytest.raises(KeyError):
        subset_entropy(two_fair_bits(), ["Z"])


def test_eval_ci_on_independent_bits():
    assert eval_expression(two_fair_bits(), ci_expr({"X"}, {"Y"})) == pytest.approx(0.0, abs=1e-12)


def test_eval_flip_conditional_independence():
    # brute-force oracle over the 4-atom pmf
    joint = flip_triple_pmf()
    expr = ci_expr({"G1"}, {"G2"}, {"F"})
    oracle = (
        brute_entropy(joint, ["G1", "F"])
        + brute_entropy(joint, ["G2", "F"])
        - brute_entropy(joint, ["G1", "G2", "F"])
        - brute_entropy(joint, ["F"])
    )
    assert oracle == pytest.approx(0.0, abs=1e-12)
    assert eval_expression(joint, expr) == pytest.approx(0.0, abs=1e-12)


def test_entropic_vector_two_bits():
    vec = entropic_vector(two_fair_bits(), ["X", "Y"])
    assert vec["X"] == pytest.approx(1.0, abs=1e-12)
    assert vec["Y"] == pytest.approx(1.0, abs=1e-12)
    assert vec[["X", "Y"]] == pytest.approx(2.0, abs=1e-12)


def test_entropic_vector_functional_copy():
    joint = FactoredJoint(
        [Seed("s", 3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))],
        [
            Variable("X", ("s",), np.array([0, 1, 2])),
            Variable("Y", ("s",), np.array([0, 1, 2])),
        ],
    )
    vec = entropic_vector(joint, ["X", "Y"])
    assert vec["X"] == pytest.approx(vec["Y"], abs=1e-12)
    assert vec[["X", "Y"]] == pytest.approx(vec["X"], abs=1e-12)


def test_entropic_vector_mod3_sum():
    # oracle: enumerate the 9-atom pmf directly
    joint = FactoredJoint(
        [uniform_seed("a", 3), uniform_seed("b", 3)],
        [
            Variable("Y1", ("a",), np.array([0, 1, 2])),
            Variable("Y2", ("b",), np.array([0, 1, 2])),
            Variable("Y3", ("a", "b"), np.array([(i + j) % 3 for i in range(3) for j in range(3)])),
        ],
    )
    vec = entropic_vector(joint, ["Y1", "Y2", "Y3"])
    log3 = math.log2(3)
    for single in ("Y1", "Y2", "Y3"):
        assert vec[single] == pytest.approx(log3, abs=1e-12)
    for pair in combinations(("Y1", "Y2", "Y3"), 2):
        assert vec[pair] == pytest.approx(2 * log3, abs=1e-12)
    assert vec[["Y1", "Y2", "Y3"]] == pytest.approx(2 * log3, abs=1e-12)
    for sub, oracle_val in ((["Y1"], log3), (["Y1", "Y3"], 2 * log3)):
        assert brute_entropy(joint, sub) == pytest.approx(oracle_val, abs=1e-12)


def test_entropic_vector_limit():
    with pytest.raises(ValueError):
        entropic_vector(two_fair_bits(), ["X"] * 17)


@given(st.integers(0, 2_000))
@settings(max_examples=120, deadline=None)
def test_lazy_equals_full_enumeration(seed):
    rng = random.Random(seed)
    joint = random_joint(rng)
    names = joint.var_names()
    sub = [n for n in names if rng.random() < 0.7] or [names[0]]
    assert subset_entropy(joint, sub) == pytest.approx(brute_entropy(joint, sub), abs=1e-12)


@given(st.integers(0, 2_000))
@settings(max_examples=80, deadline=None)
def test_shannon_axioms_on_random_joints(seed):
    rng = random.Random(seed)
    joint = random_joint(rng, max_vars=3)
    names = joint.var_names()
    vec = entropic_vector(joint, names)
    subsets = [frozenset(c) for r in range(1, len(names) + 1) for c in combinations(names, r)]
    for s in subsets:
        for t in subsets:
            if s <= t:
                assert vec.entries[t] >= vec.entries[s] - 1e-9  # monotonicity
            if s | t in vec.entries and (s & t or True):
                hu = vec.entries[s | t]
                hi = vec.entries[s & t] if s & t else 0.0
                assert vec.entries[s] + vec.entries[t] >= hu + hi - 1e-9  # submodularity


def test_conditional_mi_nonnegative_on_random_joints():
    rng = random.Random(7)
    for _ in range(60):
        joint = random_joint(rng, max_vars=4)
        names = joint.var_names()
        a = {rng.choice(names)}
        b = {rng.choice(names)}
        c = {rng.choice(names)} if rng.random() < 0.5 else set()
        assert eval_expression(joint, ci_expr(a, b, c)) >= -1e-9


def test_exact_marginal_and_uniformity():
    joint = flip_triple_pmf()
    pmf = exact_marginal(joint, ["F"])
    assert pmf == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    assert exact_uniform_over(joint, "F", 2)
    assert not exact_uniform_over(joint, "G1", 2)


def test_seed_probability_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Seed("s", 2, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError, match="negative"):
        Seed("s", 2, (Fraction(3, 2), Fraction(-1, 2)))  # sums to 1
    with pytest.raises(ValueError, match="sum to 1"):
        Seed("s", 3, (Fraction(1, 2),) * 3)  # one repeated object
    with pytest.raises(ValueError, match="negative"):
        Seed("s", 2, (Fraction(-1, 2),) * 2)
    with pytest.raises(ValueError, match="length"):
        Seed("s", 3, (Fraction(1, 2),) * 2)


def test_seed_uniform_flag_and_exact_values():
    assert uniform_seed("u", 5).uniform
    assert uniform_seed("u", 5).probs == (Fraction(1, 5),) * 5
    equal = Seed("s", 3, tuple(Fraction(1, 3) for _ in range(3)))  # equal, distinct objects
    assert equal.uniform
    mixed = Seed("s", 4, ("1/4", Fraction(1, 4), "1/4", 1 - Fraction(3, 4)))
    assert mixed.uniform and mixed.probs == (Fraction(1, 4),) * 4
    skewed = Seed("s", 3, ("1/2", "1/4", "1/4"))
    assert not skewed.uniform
    assert skewed.probs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def test_table_length_validation():
    with pytest.raises(ValueError):
        FactoredJoint([uniform_seed("a", 2)], [Variable("X", ("a",), np.array([0, 1, 0]))])


def test_json_round_trip():
    from infotile.witness import unit_flip, unit_sat

    rng = random.Random(7)
    joints = [flip_triple_pmf(), unit_flip()[0],
              unit_sat("ne_half", 9, [[1, 2], [-3, -4]], (9,), ())[0],
              *(relabel_wide(rng, random_joint(rng))[0] for _ in range(5))]
    for joint in joints:
        text = joint_dumps(joint)
        back = joint_loads(text)
        assert joint_dumps(back) == text
        assert [v.table.dtype for v in back.variables.values()] == \
            [v.table.dtype for v in joint.variables.values()]
        names = joint.var_names()[:2]
        assert subset_entropy(back, names) == subset_entropy(joint, names)


def test_binary_entropy():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0) == 0.0
    assert binary_entropy(Fraction(1, 4)) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_duplicate_seed_reference_rejected():
    with pytest.raises(ValueError):
        Variable("X", ("a", "a"), np.array([0, 1, 1, 0]))


def _variants(joint: FactoredJoint):
    """The joint as drawn, with every seed made uniform, and with one seed
    value made impossible (its mass moved to the next value)."""
    seeds = list(joint.seeds.values())
    variables = list(joint.variables.values())
    yield joint
    yield FactoredJoint([uniform_seed(s.name, s.size) for s in seeds], variables)
    s0 = seeds[0]
    probs = (Fraction(0), s0.probs[0] + s0.probs[1], *s0.probs[2:])
    yield FactoredJoint([Seed(s0.name, s0.size, probs), *seeds[1:]], variables)


@given(st.integers(0, 2_000))
@settings(max_examples=60, deadline=None)
def test_exact_marginal_matches_brute_pmf(seed):
    rng = random.Random(seed)
    for joint in _variants(random_joint(rng, max_seed_size=8)):
        names = joint.var_names()
        sub = [n for n in names if rng.random() < 0.7] or [names[0]]
        assert exact_marginal(joint, sub) == brute_pmf(joint, sub)


def test_exact_marginal_seedless_and_empty():
    joint = FactoredJoint(
        [Seed("s", 2, (Fraction(1, 3), Fraction(2, 3)))],
        [Variable("C", (), np.array([4])), Variable("X", ("s",), np.array([0, 1]))],
    )
    assert exact_marginal(joint, ["C"]) == {(4,): Fraction(1)} == brute_pmf(joint, ["C"])
    assert exact_marginal(joint, ["C", "X"]) == {(4, 0): Fraction(1, 3), (4, 1): Fraction(2, 3)}
    assert exact_marginal(joint, []) == {(): Fraction(1)} == brute_pmf(joint, [])


@given(st.integers(0, 2_000))
@settings(max_examples=60, deadline=None)
def test_layout_matches_per_atom_lookup(seed):
    rng = random.Random(seed)
    joint = random_joint(rng, max_seed_size=8)
    order = list(joint.seeds)
    rng.shuffle(order)
    shape = [joint.seeds[sn].size for sn in order]
    for v in joint.variables.values():
        laid = np.broadcast_to(_broadcast_values(joint.seeds, v, order), shape)
        for atom in product(*map(range, shape)):
            coord = dict(zip(order, atom))
            idx = 0
            for sn in v.seeds:
                idx = idx * joint.seeds[sn].size + coord[sn]
            assert laid[atom] == v.table[idx]


def test_exact_uniform_over_non_uniform_seeds():
    # X = s mod 2 over a seed with weights 1/6, 1/3, 1/3, 1/6 is exactly fair
    probs = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6))
    joint = FactoredJoint([Seed("s", 4, probs)], [Variable("X", ("s",), np.array([0, 1, 0, 1])),
                                                  Variable("Y", ("s",), np.array([0, 0, 1, 1]))])
    assert exact_uniform_over(joint, "X", 2)
    assert exact_uniform_over(joint, "Y", 2)
    assert not exact_uniform_over(joint, "X", 3)


def test_table_is_read_only():
    source = np.array([0, 1])
    v = Variable("X", ("s",), source)
    with pytest.raises(ValueError):
        v.table[0] = 1
    source[0] = 1  # the caller's array is not the table
    assert v.table.tolist() == [0, 1]
    view = source[:]
    view.flags.writeable = False  # read-only, but writable through `source`
    v = Variable("X", ("s",), view)
    source[0] = 0
    assert v.table.tolist() == [1, 1]


@pytest.mark.parametrize("table", [
    [-1, 0, 1],
    [0.5, 0, 1],
    [2**70, 0, 1],
    np.array([2**32, 0, 1]),
    np.array([2**40, 0, 1], dtype=np.uint64),
    [True, False, True],
    ["0", "1", "2"],
    np.array([0, 1, 2], dtype=object),
    [[0, 1], [1, 0]],
    [[0, 1], [1]],
], ids=["negative", "float", "huge", "2**32", "uint64", "bool", "str", "object", "2-d", "ragged"])
def test_table_contract_rejects(table):
    with pytest.raises(ValueError, match="variable Q:"):
        Variable("Q", ("s",), table)


@pytest.mark.parametrize("hi, dtype", [
    (0, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16),
    (65536, np.uint32), (2**32 - 1, np.uint32),
])
def test_table_stored_narrowest(hi, dtype):
    for table in ([hi, 0], np.array([hi, 0], dtype=np.uint64), np.array([hi, 0], dtype=np.int64)):
        v = Variable("X", ("s",), table)
        assert v.table.dtype == dtype and v.table.tolist() == [hi, 0] and v.vmax == hi


def test_add_checks_each_item_and_keeps_memo():
    joint = two_fair_bits()
    assert joint.entropy(["X", "Y"]) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="duplicate seed a"):
        joint.add([uniform_seed("a", 2)])
    with pytest.raises(ValueError, match="duplicate variable X"):
        joint.add([], [Variable("X", ("a",), np.arange(2))])
    with pytest.raises(ValueError, match="unknown seed c"):
        joint.add([], [Variable("Z", ("c",), np.arange(3))])
    with pytest.raises(ValueError, match="Z: table length 2 != product 3"):
        joint.add([uniform_seed("c", 3)], [Variable("Z", ("c",), np.arange(2))])
    assert joint.var_names() == ["X", "Y"]
    joint.add([], [Variable("Z", ("c",), np.arange(3))])
    assert joint.entropy(["Z", "X"]) == pytest.approx(1 + math.log2(3), abs=1e-12)
    assert joint.entropy(["Y", "X"]) == pytest.approx(2.0, abs=1e-12)


def relabel_wide(rng: random.Random, joint: FactoredJoint):
    """`joint` with each variable's values sent through a random injective map
    into [0, 2**w), w drawn from 8, 16 and 32; returns the joint and the maps."""
    maps, variables = {}, []
    for v in joint.variables.values():
        width = rng.choice([8, 16, 32])
        values = sorted(set(v.table.tolist()))
        maps[v.name] = dict(zip(values, rng.sample(range(2**width), len(values))))
        table = np.array([maps[v.name][x] for x in v.table.tolist()], dtype=np.int64)
        variables.append(Variable(v.name, v.seeds, table))
    return FactoredJoint(list(joint.seeds.values()), variables), maps


def test_wide_relabelling_keeps_entropies_and_marginals():
    rng = random.Random(20261018)
    dtypes = set()
    for _ in range(40):
        joint = random_joint(rng, max_seed_size=8)
        wide, maps = relabel_wide(rng, joint)
        dtypes |= {v.table.dtype for v in wide.variables.values()}
        names = joint.var_names()
        for r in range(1, len(names) + 1):
            for sub in combinations(names, r):
                assert wide.entropy(sub) == pytest.approx(joint.entropy(sub), abs=1e-12)
                relabelled = {tuple(maps[n][x] for n, x in zip(sorted(sub), key)): p
                              for key, p in brute_pmf(joint, sub).items()}
                assert exact_marginal(wide, sub) == relabelled == brute_pmf(wide, sub)
    assert dtypes == {np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32)}


def test_extend_rejects_taken_names_and_keeps_memo(monkeypatch):
    joint = two_fair_bits()
    assert joint.entropy(["X", "Y"]) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        joint.extend([], [Variable("X", ("a",), np.array([1, 0]))])
    with pytest.raises(ValueError):
        joint.extend([uniform_seed("a", 2)], [])
    bigger = joint.extend([uniform_seed("c", 3)], [Variable("Z", ("c",), np.arange(3))])
    assert bigger.entropy(["Z"]) == pytest.approx(math.log2(3), abs=1e-12)
    with pytest.raises(UnknownVariable):
        joint.entropy(["Z"])  # the parent's memo does not learn the child's entropies

    def no_recompute(j, names):
        raise AssertionError(f"recomputed {sorted(names)}")

    monkeypatch.setattr(joint_mod, "subset_entropy", no_recompute)
    assert bigger.entropy(["Y", "X"]) == joint.entropy(["X", "Y"])


# --- derived variables ---


def partner_joint() -> FactoredJoint:
    """X exactly uniform over 0..2 from a non-uniform seed, U1 over a skewed
    fresh seed, and the derived partner U2 = X + U1 mod 3."""
    s = Seed("s", 6, tuple(Fraction(n, 12) for n in (3, 1, 2, 2, 1, 3)))
    p = Seed("p", 3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    return FactoredJoint([s, p], [
        Variable("X", ("s",), [0, 0, 1, 1, 2, 2]),
        Variable("U1", ("p",), [0, 1, 2]),
        Variable("U2", ("p",), [(x + u) % 3 for x in range(3) for u in range(3)], ("X",)),
    ])


@given(st.integers(0, 2_000))
@settings(max_examples=60, deadline=None)
def test_derived_entropies_match_oracle(seed):
    rng = random.Random(seed)
    for joint in _variants(random_derived_joint(rng)):
        names = joint.var_names()
        for _ in range(3):
            sub = rng.sample(names, rng.randint(1, len(names)))
            assert subset_entropy(joint, sub) == pytest.approx(brute_entropy(joint, sub), abs=1e-12)


@given(st.integers(0, 2_000))
@settings(max_examples=40, deadline=None)
def test_derived_exact_marginal_matches_brute_pmf(seed):
    rng = random.Random(seed)
    for joint in _variants(random_derived_joint(rng)):
        names = joint.var_names()
        sub = rng.sample(names, rng.randint(1, len(names)))
        assert exact_marginal(joint, sub) == brute_pmf(joint, sub)


def test_derived_layout_matches_per_atom_lookup():
    rng = random.Random(5)
    for _ in range(10):
        joint = random_derived_joint(rng)
        order = list(joint.seeds)
        shape = [joint.seeds[sn].size for sn in order]
        for v in joint.variables.values():
            laid = np.broadcast_to(_on_seeds(joint, v, order), shape)
            for atom in product(*map(range, shape)):
                assert laid[atom] == atom_value(joint, v.name, dict(zip(order, atom)), {})


def test_exact_uniform_over_derived_partner():
    from infotile.witness import WitnessAssigner

    joint = partner_joint()
    assert exact_uniform_over(joint, "X", 3)
    assert not exact_uniform_over(joint, "U1", 3)
    assert exact_uniform_over(joint, "U2", 3)  # uniform X plus anything independent of it
    h = math.log2(3) + joint.entropy(["U1"])  # any two of X, U1, U2 fix the third
    for pair in (["X", "U1"], ["X", "U2"], ["U1", "U2"], ["X", "U1", "U2"]):
        assert joint.entropy(pair) == pytest.approx(h, abs=1e-12)
    asg = WitnessAssigner()
    asg.joint.add(list(joint.seeds.values()), [joint.var("X"), joint.var("U1")])
    asg.derive_mod_sum("U2", "X", "p", 3)
    built = asg.joint.var("U2")
    assert built.inputs == ("X",) and built.seeds == ("p",)
    assert built.table.tolist() == joint.var("U2").table.tolist()
    assert exact_uniform_over(asg.joint, "U2", 3)


def test_add_rejects_bad_derived_variables():
    joint = two_fair_bits()
    with pytest.raises(ValueError, match="Z reads unknown variable Q"):
        joint.add([], [Variable("Z", ("a",), np.arange(4), ("Q",))])
    with pytest.raises(ValueError, match="Z reads unknown variable Z"):
        joint.add([], [Variable("Z", ("a",), np.arange(4), ("Z",))])
    with pytest.raises(ValueError, match="Z: table length 2 != product 4"):
        joint.add([], [Variable("Z", ("a",), np.arange(2), ("X",))])
    with pytest.raises(ValueError, match="Z: duplicate input"):
        Variable("Z", (), np.arange(4), ("X", "X"))
    assert joint.var_names() == ["X", "Y"]
    joint.add([], [Variable("Z", ("a",), [0, 1, 1, 0], ("X",))])  # X xor a, and X is a
    assert joint.entropy(["Z"]) == 0.0
    assert joint.atoms_for(["Z"]) == 2 and joint.referenced_seeds(["Z", "Y"]) == ["a", "b"]


def materialized(joint: FactoredJoint) -> FactoredJoint:
    """`joint` with every derived variable tabulated over its closure's seeds,
    the only form a joint file held before derived variables existed."""
    out = FactoredJoint(list(joint.seeds.values()))
    for v in joint.variables.values():
        if v.inputs:
            order = joint.referenced_seeds([v.name])
            shape = [joint.seeds[sn].size for sn in order]
            v = Variable(v.name, tuple(order), np.broadcast_to(_on_seeds(joint, v, order), shape).ravel())
        out.add([], [v])
    return out


def test_json_round_trip_with_derived_variables():
    from infotile.witness import unit_flip

    rng = random.Random(11)
    joints = [partner_joint(), unit_flip()[0], *(random_derived_joint(rng) for _ in range(6))]
    for joint in joints:
        text = joint_dumps(joint)
        back = joint_loads(text)
        assert joint_dumps(back) == text
        for entry in json.loads(text)["vars"]:
            v = joint.var(entry["name"])
            assert entry.get("inputs", []) == list(v.inputs) and ("inputs" in entry) == bool(v.inputs)
            assert back.var(v.name).inputs == v.inputs
        names = joint.var_names()
        for sub in (names, names[-2:], names[:1]):
            assert back.entropy(sub) == joint.entropy(sub)


def test_joint_without_derived_variables_serializes_as_before():
    assert joint_dumps(two_fair_bits()) == (
        '{"seeds":[{"name":"a","size":2,"probs":["1/2","1/2"]},'
        '{"name":"b","size":2,"probs":["1/2","1/2"]}],'
        '"vars":[{"name":"X","seeds":["a"],"table":[0,1]},{"name":"Y","seeds":["b"],"table":[0,1]}]}\n')


def test_joint_file_without_inputs_loads():
    from infotile.witness import unit_flip

    joint = unit_flip()[0]
    assert any(v.inputs for v in joint.variables.values())
    text = joint_dumps(materialized(joint))
    assert '"inputs"' not in text
    old = joint_loads(text)
    assert not any(v.inputs for v in old.variables.values())
    names = joint.var_names()
    for r in (1, 2, 3):
        for sub in combinations(names, r):
            assert old.entropy(sub) == pytest.approx(joint.entropy(sub), abs=1e-12)


def test_exact_marginal_refuses_counts_floats_cannot_hold():
    # four independent 2**14-valued variables: 2**56 atoms, counted exactly only below 2**53
    size = 2**14
    joint = FactoredJoint([uniform_seed(f"s{i}", size) for i in range(4)],
                          [Variable(f"X{i}", (f"s{i}",), np.arange(size)) for i in range(4)])
    assert exact_marginal(joint, ["X0"])[(7,)] == Fraction(1, size)
    with pytest.raises(ValueError, match="too many atoms"):
        exact_marginal(joint, ["X0", "X1", "X2", "X3"])
