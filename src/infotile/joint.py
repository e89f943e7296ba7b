"""Factored joint distributions and entropy evaluation.

A FactoredJoint is a list of independent finite seed components (each with an
exact rational probability vector) plus, per variable, a deterministic lookup
table over the product of the seed components it references.  Marginal
entropies are computed lazily: only the union of the seeds referenced by the
queried variables is enumerated, and each subset's entropy once per joint.
Every enumeration (entropies, exact marginals, witness tables) lays tables
out over a seed product through `_broadcast_values`.

Probabilities stay exact rationals; only logarithms are floating point.
Entropies are in bits.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .expressions import InfoExpr, frac, frac_str

DEFAULT_VECTOR_LIMIT = 16


class UnknownVariable(KeyError):
    pass


@dataclass(frozen=True)
class Seed:
    """An independent finite component with an exact probability vector."""

    name: str
    size: int
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.size < 1 or len(self.probs) != self.size:
            raise ValueError(f"seed {self.name}: bad size/probs length")
        # Check each distinct value once.  A uniform seed repeats one value,
        # which `count` matches in C (by identity when the repeats are one
        # object, as `uniform_seed` makes them), so it is converted once.
        first = self.probs[0]
        if self.probs.count(first) == self.size:
            probs = (frac(first),) * self.size
            counts = {probs[0]: self.size}
        else:
            probs = tuple(map(frac, self.probs))
            counts = Counter(probs)
        if any(p < 0 for p in counts):
            raise ValueError(f"seed {self.name}: negative probability")
        if sum(p * n for p, n in counts.items()) != 1:
            raise ValueError(f"seed {self.name}: probabilities must sum to 1 exactly")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_uniform", len(counts) == 1)

    @property
    def uniform(self) -> bool:
        return self._uniform


def uniform_seed(name: str, size: int) -> Seed:
    return Seed(name, size, (Fraction(1, size),) * size)


@dataclass(frozen=True)
class Variable:
    """A deterministic map from a tuple of seed values to a finite value.

    `table` is row-major over the product of the referenced seeds, with the
    last referenced seed varying fastest.  Its values are integers in
    [0, 2**32), stored as the narrowest of uint8/uint16/uint32 in a fresh
    read-only array, so entropies memoized by a joint never go stale.
    """

    name: str
    seeds: tuple[str, ...]
    table: np.ndarray  # 1-d integer array

    def __post_init__(self):
        try:
            arr = np.asarray(self.table)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise ValueError(f"variable {self.name}: table must be a flat sequence of integers")
        lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
        if lo < 0 or hi >= 2**32:
            raise ValueError(f"variable {self.name}: table values must lie in [0, 2**32)")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"variable {self.name}: duplicate seed reference")
        arr = arr.astype(np.min_scalar_type(hi))  # a copy: never the caller's memory
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "vmax", hi)


class FactoredJoint:
    """A joint distribution in seed/table form, with its subset entropies memoized."""

    def __init__(self, seeds: list[Seed] = (), variables: list[Variable] = ()):
        self.seeds: dict[str, Seed] = {}
        self.variables: dict[str, Variable] = {}
        self._entropies: dict[frozenset, float] = {}
        self.add(seeds, variables)

    def add(self, seeds: list[Seed] = (), variables: list[Variable] = ()) -> None:
        """Admit new seeds, then new variables; every name must be new.

        The one admission path of a joint: each item is checked before it is
        admitted.  No memoized entropy goes stale, because the old variables
        keep their names and read-only tables.
        """
        for s in seeds:
            if s.name in self.seeds:
                raise ValueError(f"duplicate seed {s.name}")
            self.seeds[s.name] = s
        for v in variables:
            if v.name in self.variables:
                raise ValueError(f"duplicate variable {v.name}")
            expected = 1
            for sn in v.seeds:
                if sn not in self.seeds:
                    raise ValueError(f"variable {v.name} references unknown seed {sn}")
                expected *= self.seeds[sn].size
            if len(v.table) != expected:
                raise ValueError(
                    f"variable {v.name}: table length {len(v.table)} != product {expected}"
                )
            self.variables[v.name] = v

    def extend(self, seeds: list[Seed], variables: list[Variable]) -> FactoredJoint:
        """A new joint: this one plus new seeds and variables, whose names must be new.

        This joint is unchanged; the extension starts from copies of its
        dicts and entropy memo.
        """
        out = FactoredJoint()
        out.seeds, out.variables = dict(self.seeds), dict(self.variables)
        out._entropies = dict(self._entropies)
        out.add(seeds, variables)
        return out

    def entropy(self, names) -> float:
        """H of the named variables, computed once per subset and joint."""
        key = frozenset(names)
        if key not in self._entropies:
            self._entropies[key] = subset_entropy(self, key)
        return self._entropies[key]

    def var(self, name: str) -> Variable:
        try:
            return self.variables[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def var_names(self) -> list[str]:
        return list(self.variables)

    def referenced_seeds(self, names) -> list[str]:
        """Union of the seeds referenced by `names`, in canonical (sorted) order."""
        out = set()
        for n in names:
            out.update(self.var(n).seeds)
        return sorted(out)

    def atoms_for(self, names) -> int:
        total = 1
        for sn in self.referenced_seeds(names):
            total *= self.seeds[sn].size
        return total


# --- evaluation engine ---


def _broadcast_values(seeds: dict[str, Seed], v: Variable, order) -> np.ndarray:
    """Values of `v` shaped for broadcasting over the seeds in `order`.

    The one place a table is laid out over a seed product.  The table is
    reshaped to the variable's own seed axes, transposed into `order`
    positions, and given singleton axes for unreferenced seeds, so
    arithmetic against other variables' arrays enumerates the product
    without materializing coordinate grids.
    """
    if not v.seeds:
        return np.asarray(v.table, dtype=np.int64).reshape((1,) * max(len(order), 1))
    own_sizes = [seeds[sn].size for sn in v.seeds]
    arr = np.asarray(v.table, dtype=np.int64).reshape(own_sizes)
    pos = {sn: i for i, sn in enumerate(order)}
    axes = sorted(range(len(v.seeds)), key=lambda i: pos[v.seeds[i]])
    arr = np.transpose(arr, axes)
    shape = [1] * len(order)
    for i in axes:
        shape[pos[v.seeds[i]]] = seeds[v.seeds[i]].size
    return arr.reshape(shape)


def _product_shape(seeds: dict[str, Seed], order) -> list[int]:
    return [seeds[sn].size for sn in order] or [1]


def _codes(seeds: dict[str, Seed], variables: list[Variable], order) -> np.ndarray:
    """One integer per atom of the product over `order`, row-major.

    Atoms get equal codes iff every variable agrees on them.  Codes are
    compressed stepwise so they never overflow.
    """
    codes, span = np.zeros((1,) * max(len(order), 1), dtype=np.int64), 1
    for v in variables:
        if span * (v.vmax + 1) > 2**62:
            codes = np.unique(codes, return_inverse=True)[1].reshape(codes.shape)
            span = int(codes.max()) + 1
        vals = _broadcast_values(seeds, v, order)
        codes = vals if span == 1 else codes * (v.vmax + 1) + vals  # span 1: all codes are 0
        span *= v.vmax + 1
    return np.broadcast_to(codes, _product_shape(seeds, order)).ravel()


def subset_entropy(joint: FactoredJoint, names) -> float:
    """Joint entropy H of the named variables, in bits.

    Enumerates only the product of the union of referenced seed components.
    This is the uncached computation; `FactoredJoint.entropy` memoizes it.
    """
    names = sorted(set(names))
    if not names:
        return 0.0
    order = joint.referenced_seeds(names)
    codes = _codes(joint.seeds, [joint.var(n) for n in names], order)
    total = codes.size
    if all(joint.seeds[sn].uniform for sn in order):
        _, counts = np.unique(codes, return_counts=True)
        counts = counts.astype(np.float64)
        return math.log2(total) - float(np.dot(counts, np.log2(counts))) / total
    weights = np.ones((1,) * len(order), dtype=np.float64)
    for i, sn in enumerate(order):
        pvec = np.array([float(p) for p in joint.seeds[sn].probs])
        shape = [1] * len(order)
        shape[i] = joint.seeds[sn].size
        weights = weights * pvec.reshape(shape)
    weights = weights.ravel()
    _, inv = np.unique(codes, return_inverse=True)
    pm = np.bincount(inv, weights=weights)
    pm = pm[pm > 0]
    return float(-np.dot(pm, np.log2(pm)))


def eval_expression(joint: FactoredJoint, expr: InfoExpr) -> float:
    """Evaluate a linear entropy expression against a joint's entropy memo."""
    out = 0.0
    for vs, coef in expr.sorted_terms():
        out += float(coef) * joint.entropy(vs)
    return out


@dataclass
class EntropyVector:
    """All nonempty-subset entropies of an ordered variable list."""

    names: list[str]
    entries: dict[frozenset, float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.names)

    def __getitem__(self, names) -> float:
        if isinstance(names, str):
            names = [names]
        return self.entries[frozenset(names)]


def entropic_vector(joint: FactoredJoint, names: list[str],
                    limit: int = DEFAULT_VECTOR_LIMIT) -> EntropyVector:
    """Materialize all 2^n - 1 subset entropies (n capped by `limit`)."""
    names = list(names)
    if len(names) > limit:
        raise ValueError(f"{len(names)} variables exceeds materialization limit {limit}")
    vec = EntropyVector(names)
    for mask in range(1, 2 ** len(names)):
        sub = frozenset(n for i, n in enumerate(names) if mask >> i & 1)
        vec.entries[sub] = subset_entropy(joint, sub)
    return vec


# --- exact (rational) marginals, for uniformity and balance checks ---


def _pmf(seeds: dict[str, Seed], variables: list[Variable]) -> dict[tuple, Fraction]:
    """Exact law of a variable tuple: integer atom counts times exact seed weights.

    A uniform seed weighs every atom alike.  Each other seed joins the code
    as the index of its probability value, so the atoms counted under one
    code share one exact weight.  Zero-probability atoms are left out.
    """
    order = sorted({sn for v in variables for sn in v.seeds})
    base, levels, classes = Fraction(1), [], []
    for sn in order:
        seed = seeds[sn]
        if seed.uniform:
            base /= seed.size
            continue
        levels.append(sorted(set(seed.probs)))
        index = {p: i for i, p in enumerate(levels[-1])}
        classes.append(Variable(sn, (sn,), np.array([index[p] for p in seed.probs])))
    codes = _codes(seeds, [*variables, *classes], order)
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    shape = _product_shape(seeds, order)
    at = np.unravel_index(first, shape)
    columns = [np.broadcast_to(_broadcast_values(seeds, v, order), shape)[at].tolist()
               for v in (*variables, *classes)]
    out: dict[tuple, Fraction] = {}
    for count, *row in zip(counts.tolist(), *columns):
        key, cls = tuple(row[:len(variables)]), row[len(variables):]
        p = math.prod((lv[c] for lv, c in zip(levels, cls)), start=count * base)
        if p:
            out[key] = out.get(key, Fraction(0)) + p
    return out


def exact_marginal(joint: FactoredJoint, names) -> dict[tuple, Fraction]:
    """Exact marginal pmf of the named variable tuple (sorted name order)."""
    return _pmf(joint.seeds, [joint.var(n) for n in sorted(set(names))])


def _uniform_size(seeds: dict[str, Seed], v: Variable) -> int:
    """n when `v` is exactly uniform over the values 0..n-1, else 0."""
    pmf = _pmf(seeds, [v])
    n = len(pmf)
    uniform = set(pmf) == {(i,) for i in range(n)} and set(pmf.values()) == {Fraction(1, n)}
    return n if uniform else 0


def exact_uniform_over(joint: FactoredJoint, name: str, size: int) -> bool:
    """True iff `name` is exactly uniform over the values 0..size-1."""
    return _uniform_size(joint.seeds, joint.var(name)) == size


def binary_entropy(t) -> float:
    """Entropy in bits of a Bernoulli(t) variable."""
    t = float(t)
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -t * math.log2(t) - (1 - t) * math.log2(1 - t)


# --- serialization ---


def joint_to_obj(joint: FactoredJoint) -> dict:
    return {
        "seeds": [
            {"name": s.name, "size": s.size, "probs": [frac_str(p) for p in s.probs]}
            for s in joint.seeds.values()
        ],
        "vars": [
            {"name": v.name, "seeds": list(v.seeds), "table": v.table.tolist()}
            for v in joint.variables.values()
        ],
    }


def joint_from_obj(obj: dict) -> FactoredJoint:
    if not (isinstance(obj, dict) and isinstance(obj.get("seeds"), list)
            and isinstance(obj.get("vars"), list)):
        raise ValueError('not a factored joint: expected {"seeds": [...], "vars": [...]}')
    try:
        seeds = [
            Seed(s["name"], int(s["size"]), tuple(Fraction(p) for p in s["probs"]))
            for s in obj["seeds"]
        ]
        variables = [Variable(v["name"], tuple(v["seeds"]), v["table"]) for v in obj["vars"]]
        return FactoredJoint(seeds, variables)
    except ValueError as exc:
        raise ValueError(f"malformed factored joint: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed factored joint: {type(exc).__name__} {exc}") from None


def joint_dumps(joint: FactoredJoint) -> str:
    return json.dumps(joint_to_obj(joint), separators=(",", ":")) + "\n"


def joint_loads(text: str) -> FactoredJoint:
    return joint_from_obj(json.loads(text))
