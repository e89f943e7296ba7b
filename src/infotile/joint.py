"""Factored joint distributions and entropy evaluation.

A FactoredJoint is a list of independent finite seed components (each with an
exact rational probability vector) plus, per variable, a deterministic lookup
table.  A base variable's table is over the product of the seeds it
references; a derived variable's table is over the values of other
variables (its inputs) and then its own seeds.  Marginal entropies are
computed lazily, each subset's once per joint, and only over the seeds of
the queried variables' input closure.  Each variable's closure seeds are
worked out once per joint too.  A subset whose seed product has at most
`FLAT_ATOM_LIMIT` atoms is counted over that whole product; `_entropies`
computes many subsets at once, and lays out each variable once for all the
subsets that share one seed product.  A larger subset is enumerated block
by block where its closure falls into groups that share no seed.  Every
enumeration (entropies, exact marginals, witness tables) lays tables out
over a seed product through `_broadcast_values`.

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
# Subsets whose seed product has at most this many atoms are counted over
# the whole product, with their variables laid out once per product.
FLAT_ATOM_LIMIT = 2**16


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
    """A deterministic map from input values and seed values to a finite value.

    `table` is row-major over the values of the `inputs` (other variables,
    `vmax + 1` values each), then over the product of the referenced seeds,
    with the last seed varying fastest.  A variable with inputs is derived;
    one without is a base variable.  Table values are integers in
    [0, 2**32), stored as the narrowest of uint8/uint16/uint32 in a fresh
    read-only array, so entropies memoized by a joint never go stale.
    """

    name: str
    seeds: tuple[str, ...]
    table: np.ndarray  # 1-d integer array
    inputs: tuple[str, ...] = ()

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
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError(f"variable {self.name}: duplicate input")
        arr = arr.astype(np.min_scalar_type(hi))  # a copy: never the caller's memory
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "vmax", hi)


class FactoredJoint:
    """A joint distribution in seed/table form, with its subset entropies memoized."""

    def __init__(self, seeds: list[Seed] = (), variables: list[Variable] = ()):
        self.seeds: dict[str, Seed] = {}
        self.variables: dict[str, Variable] = {}
        self._entropies: dict[frozenset, float] = {}
        self._closure_seeds: dict[str, frozenset] = {}
        self.add(seeds, variables)

    def add(self, seeds: list[Seed] = (), variables: list[Variable] = ()) -> None:
        """Admit new seeds, then new variables; every name must be new.

        The one admission path of a joint: each item is checked before it is
        admitted.  A derived variable's inputs must be admitted before it, so
        variables never read each other in a cycle.  No memoized entropy goes
        stale, because the old variables keep their names and read-only
        tables, and their closure seeds stay what they were.
        """
        for s in seeds:
            if s.name in self.seeds:
                raise ValueError(f"duplicate seed {s.name}")
            self.seeds[s.name] = s
        for v in variables:
            if v.name in self.variables:
                raise ValueError(f"duplicate variable {v.name}")
            expected = 1
            for name in v.inputs:
                if name not in self.variables:
                    raise ValueError(f"variable {v.name} reads unknown variable {name}")
                expected *= self.variables[name].vmax + 1
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
        dicts, entropy memo and closure-seed memo.
        """
        out = FactoredJoint()
        out.seeds, out.variables = dict(self.seeds), dict(self.variables)
        out._entropies = dict(self._entropies)
        out._closure_seeds = dict(self._closure_seeds)
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

    def _seeds_of(self, name: str):
        """The seeds read by `name` and its input closure.

        A base variable's are its own seeds; a derived variable's are
        worked out once per joint.
        """
        seeds = self._closure_seeds.get(name)
        if seeds is None:
            v = self.var(name)
            if not v.inputs:
                return v.seeds
            seeds = frozenset(v.seeds).union(*map(self._seeds_of, v.inputs))
            self._closure_seeds[name] = seeds
        return seeds

    def referenced_seeds(self, names) -> list[str]:
        """The seeds read by `names` and their input closure, in canonical (sorted) order."""
        return sorted(frozenset().union(*map(self._seeds_of, names)))

    def atoms_for(self, names) -> int:
        return _atoms(self.seeds, self.referenced_seeds(names))


# --- evaluation engine ---


def _closure(joint: FactoredJoint, names) -> list[Variable]:
    """The named variables and every variable they read, each after its inputs."""
    out: dict[str, Variable] = {}

    def visit(name):
        if name not in out:
            v = joint.var(name)
            for n in v.inputs:
                visit(n)
            out[name] = v

    for name in names:
        visit(name)
    return list(out.values())


def _broadcast_values(seeds: dict[str, Seed], v: Variable, order) -> np.ndarray:
    """Values of the base variable `v` shaped for broadcasting over the seeds in `order`.

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


def _coordinate(seed: Seed) -> Variable:
    """The seed's own value, as a base variable."""
    return Variable(seed.name, (seed.name,), np.arange(seed.size))


def _lookup(joint: FactoredJoint, v: Variable, args) -> np.ndarray:
    """Values of the derived `v` from arrays of its inputs' values, then its seeds' values."""
    radices = [joint.variables[n].vmax + 1 for n in v.inputs]
    radices += [joint.seeds[sn].size for sn in v.seeds]
    index = 0
    for values, radix in zip(args, radices):
        index = index * radix + values
    return np.asarray(v.table[index], dtype=np.int64)


def _on_seeds(joint: FactoredJoint, v: Variable, order) -> np.ndarray:
    """Values of any variable over the seeds in `order`, which must hold its closure's seeds."""
    if not v.inputs:
        return _broadcast_values(joint.seeds, v, order)
    args = [*map(joint.var, v.inputs), *(_coordinate(joint.seeds[sn]) for sn in v.seeds)]
    return _lookup(joint, v, [_on_seeds(joint, a, order) for a in args])


def _product_shape(seeds: dict[str, Seed], order) -> list[int]:
    return [seeds[sn].size for sn in order] or [1]


def _atoms(seeds: dict[str, Seed], order) -> int:
    """The number of atoms of the product over the seeds in `order`."""
    return math.prod(seeds[sn].size for sn in order)


def _atom_probs(seeds: dict[str, Seed], order) -> np.ndarray:
    """The float probability of each atom of the product over `order`, for broadcasting."""
    weights = np.ones((1,) * len(order), dtype=np.float64)
    for i, sn in enumerate(order):
        pvec = np.array([float(p) for p in seeds[sn].probs])
        shape = [1] * len(order)
        shape[i] = seeds[sn].size
        weights = weights * pvec.reshape(shape)
    return weights


def _codes(columns, radices, shape) -> tuple[np.ndarray, int]:
    """One integer per cell of a frame, row-major, and a bound on the codes.

    `columns` are value arrays broadcastable to `shape`, each below its
    radix.  Cells get equal codes iff every column agrees on them, and codes
    follow the lexicographic order of the column values.  Codes are
    compressed stepwise so they never overflow.
    """
    codes, span = np.zeros((1,) * len(shape), dtype=np.int64), 1
    for values, radix in zip(columns, radices):
        if span * radix > 2**62:
            codes = np.unique(codes, return_inverse=True)[1].reshape(codes.shape)
            span = int(codes.max()) + 1
        codes = values if span == 1 else codes * radix + values  # span 1: all codes are 0
        span *= radix
    return np.broadcast_to(codes, shape).ravel(), span


def _totals(codes: np.ndarray, span: int, weights=None) -> np.ndarray:
    """The total weight of each code that occurs, in code order.

    Weights are per cell (None: each cell counts 1); codes of total 0 are
    left out.  Counting is a `bincount` when the code span is at most the
    number of cells, else a sort.
    """
    if span > codes.size:
        if weights is None:
            return np.unique(codes, return_counts=True)[1]
        codes = np.unique(codes, return_inverse=True)[1]
    total = np.bincount(codes, weights)
    return total[total > 0]


def _law(columns, radices, shape, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct value tuples of `columns` over a frame, in code order.

    Returns the total weight of each tuple (as `_totals`) and the flat
    index of one frame cell holding it.
    """
    codes, span = _codes(columns, radices, shape)
    if span > codes.size:
        codes = np.unique(codes, return_inverse=True)[1]
        span = int(codes.max()) + 1
    if weights is not None:
        weights = np.broadcast_to(weights, shape).ravel()
    total = np.bincount(codes, weights)
    at = np.empty(span, dtype=np.intp)
    at[codes] = np.arange(codes.size)  # any cell of a code will do: all agree on every column
    keep = np.flatnonzero(total)
    return total[keep], at[keep]


def _pick(columns, shape, at) -> list[np.ndarray]:
    """Each column's values at the flat frame cells `at`."""
    index = np.unravel_index(at, shape)
    return [np.broadcast_to(c, shape)[index] for c in columns]


def _blocks(items: list[Variable]) -> list[tuple[list[str], list[int]]]:
    """Group item indices into blocks that share no seed: (sorted seeds, indices) each."""
    blocks: list[tuple[set, list]] = []
    for i, v in enumerate(items):
        seeds, members, rest = set(v.seeds), [i], []
        for block in blocks:
            if block[0] & seeds:
                seeds |= block[0]
                members += block[1]
            else:
                rest.append(block)
        blocks = rest + [(seeds, members)]
    return [(sorted(s), sorted(m)) for s, m in blocks]


def _layout(joint: FactoredJoint, names, extra=(), probs=False):
    """Values of `names`, then of the base variables `extra`, on one enumeration frame.

    The items are the base variables of the names' input closure, one
    coordinate per seed a derived variable reads, and `extra`; they fall
    into blocks that share no seed.  With one block and no derived variable
    the frame is that block's seed product.  Otherwise each block is
    reduced to the law of its distinct value tuples, the frame is the
    product of those laws, and derived values are read from their tables.

    Returns the value arrays and the frame shape, plus the weight of each
    frame cell, broadcastable to the shape: None when every cell is one
    atom, else its atom count or, with `probs`, its probability.
    """
    closure = _closure(joint, names)
    derived = [v for v in closure if v.inputs]
    read = sorted({sn for v in derived for sn in v.seeds})
    base = [v for v in closure if not v.inputs]
    items = [*base, *(_coordinate(joint.seeds[sn]) for sn in read), *extra]
    blocks = _blocks(items)
    if len(blocks) <= 1 and not derived:
        order = blocks[0][0] if blocks else []
        cols = [_broadcast_values(joint.seeds, v, order) for v in items]
        shape = _product_shape(joint.seeds, order)
        weights = _atom_probs(joint.seeds, order) if probs else None
    else:
        cols, shape, weights = [None] * len(items), [], 1
        for axis, (order, members) in enumerate(blocks):
            block = [_broadcast_values(joint.seeds, items[i], order) for i in members]
            block_shape = _product_shape(joint.seeds, order)
            w, at = _law(block, [items[i].vmax + 1 for i in members], block_shape,
                         _atom_probs(joint.seeds, order) if probs else None)
            axes = [1] * len(blocks)
            axes[axis] = len(w)
            for i, values in zip(members, _pick(block, block_shape, at)):
                cols[i] = values.reshape(axes)
            shape.append(len(w))
            weights = weights * w.reshape(axes)
    values = {v.name: c for v, c in zip(base, cols)}
    coords = dict(zip(read, cols[len(base):]))
    for v in derived:
        args = [*(values[n] for n in v.inputs), *(coords[sn] for sn in v.seeds)]
        values[v.name] = _lookup(joint, v, args)
    return [values[n] for n in names] + cols[len(items) - len(extra):], shape, weights


def _entropy(pm: np.ndarray, atoms: int | None) -> float:
    """H in bits of a law given by its nonzero masses `pm`.

    With `atoms`, the masses are atom counts out of that many equally
    likely atoms; otherwise they are probabilities.
    """
    if atoms is None:
        return float(-np.dot(pm, np.log2(pm)))
    counts = pm.astype(np.float64)
    return math.log2(atoms) - float(np.dot(counts, np.log2(counts))) / atoms


def _flat_entropies(joint: FactoredJoint, order, keys) -> list[float]:
    """H of each name set in `keys`, whose closure seeds are exactly `order`.

    Every variable the keys read, derived ones included, is laid out once
    over the seed product (through `_on_seeds`); each named one is then
    stored flat, and each key is counted over every atom of the product.
    The arrays are dropped on return.
    """
    named = set().union(*keys)
    values: dict[str, np.ndarray] = {}
    for v in _closure(joint, named):
        if v.inputs:
            args = [*(values[n] for n in v.inputs),
                    *(_on_seeds(joint, _coordinate(joint.seeds[sn]), order) for sn in v.seeds)]
            values[v.name] = _lookup(joint, v, args)
        else:
            values[v.name] = _on_seeds(joint, v, order)
    shape = _product_shape(joint.seeds, order)
    atoms = math.prod(shape)
    flat = {n: np.broadcast_to(values[n], shape).ravel() for n in named}
    del values
    weights = None
    if not all(joint.seeds[sn].uniform for sn in order):
        weights = np.broadcast_to(_atom_probs(joint.seeds, order), shape).ravel()
    out = []
    for key in keys:
        names = sorted(key)
        codes, span = _codes([flat[n] for n in names],
                             [joint.variables[n].vmax + 1 for n in names], [atoms])
        out.append(_entropy(_totals(codes, span, weights), atoms if weights is None else None))
    return out


def _entropies(joint: FactoredJoint, orders: dict) -> list[float]:
    """H of each name set in `orders` (which maps it to its referenced seeds), memoized.

    Keys the joint's memo lacks are computed and written into it.  Those
    with at most `FLAT_ATOM_LIMIT` atoms are grouped by seed product, and
    each group of two or more is counted by `_flat_entropies` with one
    layout; every other key is one `subset_entropy` call.
    """
    memo = joint._entropies
    groups: dict[tuple, list] = {}
    for key, order in orders.items():
        if key not in memo:
            if _atoms(joint.seeds, order) <= FLAT_ATOM_LIMIT:
                groups.setdefault(tuple(order), []).append(key)
            else:
                memo[key] = subset_entropy(joint, key)
    for order, keys in groups.items():
        if len(keys) == 1:
            memo[keys[0]] = subset_entropy(joint, keys[0])
        else:
            memo.update(zip(keys, _flat_entropies(joint, order, keys)))
    return [memo[key] for key in orders]


def subset_entropy(joint: FactoredJoint, names) -> float:
    """Joint entropy H of the named variables, in bits.

    Enumerates only the seeds of the names' input closure: over their whole
    product when it has at most `FLAT_ATOM_LIMIT` atoms, else block-wise
    (see `_layout`).  This is the uncached computation;
    `FactoredJoint.entropy` and `_entropies` memoize it.
    """
    names = sorted(set(names))
    if not names:
        return 0.0
    order = joint.referenced_seeds(names)
    if _atoms(joint.seeds, order) <= FLAT_ATOM_LIMIT:
        return _flat_entropies(joint, order, [names])[0]
    uniform = all(joint.seeds[sn].uniform for sn in order)
    cols, shape, weights = _layout(joint, names, probs=not uniform)
    codes, span = _codes(cols, [joint.var(n).vmax + 1 for n in names], shape)
    pm = _totals(codes, span, None if weights is None else np.broadcast_to(weights, shape).ravel())
    return _entropy(pm, _atoms(joint.seeds, order) if uniform else None)


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


def _pmf(joint: FactoredJoint, names) -> dict[tuple, Fraction]:
    """Exact law of the named variables: integer atom counts times exact seed weights.

    A uniform seed weighs every atom alike.  Each other seed joins the code
    as the index of its probability value, so the atoms counted under one
    code share one exact weight.  Zero-probability atoms are left out.
    """
    order = joint.referenced_seeds(names)
    if _atoms(joint.seeds, order) >= 2**53:
        raise ValueError("too many atoms to count exactly in floating point")
    base, levels, classes = Fraction(1), [], []
    for sn in order:
        seed = joint.seeds[sn]
        if seed.uniform:
            base /= seed.size
            continue
        levels.append(sorted(set(seed.probs)))
        index = {p: i for i, p in enumerate(levels[-1])}
        classes.append(Variable(sn, (sn,), np.array([index[p] for p in seed.probs])))
    cols, shape, weights = _layout(joint, names, classes)
    radices = [v.vmax + 1 for v in (*map(joint.var, names), *classes)]
    counts, at = _law(cols, radices, shape, weights)
    out: dict[tuple, Fraction] = {}
    for count, *row in zip(counts.tolist(), *(c.tolist() for c in _pick(cols, shape, at))):
        key, cls = tuple(row[:len(names)]), row[len(names):]
        p = math.prod((lv[c] for lv, c in zip(levels, cls)), start=int(count) * base)
        if p:
            out[key] = out.get(key, Fraction(0)) + p
    return out


def exact_marginal(joint: FactoredJoint, names) -> dict[tuple, Fraction]:
    """Exact marginal pmf of the named variable tuple (sorted name order)."""
    return _pmf(joint, sorted(set(names)))


def _uniform_size(joint: FactoredJoint, name: str) -> int:
    """n when `name` is exactly uniform over the values 0..n-1, else 0."""
    pmf = _pmf(joint, [name])
    n = len(pmf)
    uniform = set(pmf) == {(i,) for i in range(n)} and set(pmf.values()) == {Fraction(1, n)}
    return n if uniform else 0


def exact_uniform_over(joint: FactoredJoint, name: str, size: int) -> bool:
    """True iff `name` is exactly uniform over the values 0..size-1."""
    return _uniform_size(joint, name) == size


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
            {"name": v.name, **({"inputs": list(v.inputs)} if v.inputs else {}),
             "seeds": list(v.seeds), "table": v.table.tolist()}
            for v in joint.variables.values()
        ],
    }


def _names(v: dict, key: str, default=None) -> tuple[str, ...]:
    """The list of names under `key` of a variable's object, checked."""
    names = v[key] if default is None else v.get(key, default)
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValueError(f"variable {v['name']}: {key} must be a list of names")
    return tuple(names)


def joint_from_obj(obj: dict) -> FactoredJoint:
    if not (isinstance(obj, dict) and isinstance(obj.get("seeds"), list)
            and isinstance(obj.get("vars"), list)):
        raise ValueError('not a factored joint: expected {"seeds": [...], "vars": [...]}')
    try:
        seeds = []
        for s in obj["seeds"]:
            if isinstance(s["size"], bool) or not isinstance(s["size"], int):
                raise ValueError(f"seed {s['name']}: size must be an integer")
            seeds.append(Seed(s["name"], s["size"], tuple(Fraction(p) for p in s["probs"])))
        variables = [
            Variable(v["name"], _names(v, "seeds"), v["table"], _names(v, "inputs", []))
            for v in obj["vars"]
        ]
        return FactoredJoint(seeds, variables)
    except ValueError as exc:
        raise ValueError(f"malformed factored joint: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed factored joint: {type(exc).__name__} {exc}") from None


def joint_dumps(joint: FactoredJoint) -> str:
    return json.dumps(joint_to_obj(joint), separators=(",", ":")) + "\n"


def joint_loads(text: str) -> FactoredJoint:
    return joint_from_obj(json.loads(text))
