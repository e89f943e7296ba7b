"""Shared test helpers: random joints and the brute-force entropy oracle."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np

from infotile.joint import FactoredJoint, Seed, Variable


def atom_value(joint: FactoredJoint, name: str, coord: dict, memo: dict) -> int:
    """Oracle: the value of `name` at one atom (`coord` maps every seed to its value).

    Reads the table cell by its row-major index: input values first (each
    input's `vmax + 1` values), then the variable's own seeds.
    """
    if name not in memo:
        v = joint.var(name)
        idx = 0
        for n in v.inputs:
            idx = idx * (joint.var(n).vmax + 1) + atom_value(joint, n, coord, memo)
        for sn in v.seeds:
            idx = idx * joint.seeds[sn].size + coord[sn]
        memo[name] = int(v.table[idx])
    return memo[name]


def brute_pmf(joint: FactoredJoint, names) -> dict[tuple, Fraction]:
    """Oracle: full enumeration over ALL seeds with exact probabilities.

    Independent of the engine (no seed-union pruning, no blocks, no numpy):
    accumulates the marginal pmf of the sorted names in a dict of
    Fractions, evaluating each variable atom by atom with `atom_value`.
    Zero-probability atoms are left out.
    """
    names = sorted(set(names))
    seeds = list(joint.seeds.values())
    pmf: dict = {}
    for atom in product(*[range(s.size) for s in seeds]):
        p = Fraction(1)
        for s, val in zip(seeds, atom):
            p *= s.probs[val]
        if p == 0:
            continue
        coord = {s.name: val for s, val in zip(seeds, atom)}
        memo: dict = {}
        key = tuple(atom_value(joint, n, coord, memo) for n in names)
        pmf[key] = pmf.get(key, Fraction(0)) + p
    return pmf


def brute_entropy(joint: FactoredJoint, names) -> float:
    """Oracle entropy in bits: logs taken only at the end of `brute_pmf`."""
    return -sum(float(p) * math.log2(float(p)) for p in brute_pmf(joint, names).values() if p > 0)


def random_probs(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    """A random exact probability vector with small denominators."""
    denom = rng.randint(size, 2 * size + 16)
    cuts = sorted(rng.sample(range(1, denom), size - 1)) if size > 1 else []
    weights = []
    prev = 0
    for c in cuts + [denom]:
        weights.append(c - prev)
        prev = c
    return tuple(Fraction(w, denom) for w in weights)


def random_joint(rng: random.Random, max_vars: int = 4, max_seed_size: int = 16) -> FactoredJoint:
    """A random small factored joint with exact rational seed probabilities."""
    n_seeds = rng.randint(1, 3)
    seeds = []
    for i in range(n_seeds):
        size = rng.randint(2, max_seed_size)
        probs = random_probs(rng, size)
        seeds.append(Seed(f"s{i}", size, probs))
    n_vars = rng.randint(1, max_vars)
    variables = []
    for j in range(n_vars):
        refs = tuple(s.name for s in seeds if rng.random() < 0.6)
        total = 1
        for r in refs:
            total *= next(s.size for s in seeds if s.name == r)
        rng_range = rng.randint(1, 4)
        table = np.array([rng.randrange(rng_range) for _ in range(total)])
        variables.append(Variable(f"v{j}", refs, table))
    return FactoredJoint(seeds, variables)


def random_derived_joint(rng: random.Random, max_derived: int = 3) -> FactoredJoint:
    """`random_joint` plus derived variables, each reading one or two earlier
    variables and up to two seeds (perhaps one fresh seed `d`), after a
    modular-sum partner U2 = X + U1 mod m whose fresh seed `p` U1 reads."""
    joint = random_joint(rng, max_vars=3, max_seed_size=4)
    x = rng.choice(joint.var_names())
    m = joint.var(x).vmax + 1
    joint.add([Seed("p", m, random_probs(rng, m))], [Variable("U1", ("p",), list(range(m)))])
    partner = [(a + b) % m for a in range(m) for b in range(m)]
    joint.add([], [Variable("U2", ("p",), partner, (x,))])
    if rng.random() < 0.7:
        size = rng.randint(2, 3)
        joint.add([Seed("d", size, random_probs(rng, size))])
    for j in range(rng.randint(1, max_derived)):
        inputs = tuple(rng.sample(joint.var_names(), rng.randint(1, 2)))
        refs = tuple(rng.sample(list(joint.seeds), rng.randint(0, 2)))
        total = math.prod(joint.var(n).vmax + 1 for n in inputs)
        total *= math.prod(joint.seeds[sn].size for sn in refs)
        table = [rng.randrange(rng.randint(1, 5)) for _ in range(total)]
        joint.add([], [Variable(f"w{j}", refs, table, inputs)])
    return joint
