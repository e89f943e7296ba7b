"""Shared test helpers: random joints and the brute-force entropy oracle."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np

from infotile.joint import FactoredJoint, Seed, Variable


def brute_pmf(joint: FactoredJoint, names) -> dict[tuple, Fraction]:
    """Oracle: full enumeration over ALL seeds with exact probabilities.

    Independent of the engine (no seed-union pruning, no numpy): accumulates
    the marginal pmf of the sorted names in a dict of Fractions, reading
    each table cell by its row-major index.  Zero-probability atoms are
    left out.
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
        key = []
        for n in names:
            v = joint.var(n)
            idx = 0
            for sn in v.seeds:
                idx = idx * joint.seeds[sn].size + coord[sn]
            key.append(int(v.table[idx]))
        key = tuple(key)
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
