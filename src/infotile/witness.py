"""Construct explicit factored-joint witnesses and verify systems against them.

The full pipeline turns a valid periodic tiling into two mirrored colored
tori (positive and negative signed colors), takes a uniform random vertex of
their union as the core seed, and then assigns every auxiliary variable of
the compiled system a deterministic table over the seeds, driven by the
compiler's build index:

  * uniform partners realize each three-way sum block by a fresh uniform
    seed and a modular sum, derived from the base variable's value;
  * cycle-coloring auxiliaries two-color the edges of the characteristic
    bipartite graph;
  * flip auxiliaries index the four support atoms and split the residual
    three-atom uncertainty with fresh three-point seeds;
  * group-counting auxiliaries are built from the exact conditional law of
    the coin given the selected observables, splitting each event class
    uniformly onto a block of seed values.  When the law is not realizable
    as a function of the gadget's seed size the builder refuses with an
    exact rational report.

All seed probabilities are exact rationals; verification evaluates the rows
in floating point against explicit tolerances.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .compiler import compile_ttori_indexed, slack_name
from .expressions import REL_EQ, REL_GE
from .gadgets import BuildIndex, CycsIx, FlipIx, SatIx, SwIx, UnifIx, w_of_color
from .joint import (FactoredJoint, Seed, Variable, _atoms, _coordinate, _entropies, _on_seeds, _pmf,
                    _product_shape, _uniform_size, binary_entropy, eval_expression, uniform_seed)
from .systems import ConstraintSystem
from .tiling import PeriodicTiling, TileSet, validate_tiling

FLIP_ATOMS = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1))

UNIT_TOL = 1e-9


class WitnessError(ValueError):
    pass


class WitnessRefusal(WitnessError):
    """Raised when a group-counting auxiliary cannot exist.

    Carries the exact rational conditional law of the coin on the offending
    group and the fractional split the seed would have to realize.
    """

    def __init__(self, path: str, seed_size: int, event, group_size: int, sat_count: int):
        self.path = path
        self.seed_size = seed_size
        self.event = event
        self.group_size = group_size
        self.sat_count = sat_count
        self.law = Fraction(sat_count, group_size + sat_count)
        self.required_split = Fraction(seed_size * sat_count, group_size + sat_count)
        super().__init__(
            f"{path}: group {event} has {sat_count} selected of {group_size} vertices; "
            f"the coin is Bernoulli({self.law}) there, which needs {self.required_split} "
            f"of {seed_size} seed values: not an integer, no such auxiliary exists"
        )


# --- colored tori ---


@dataclass(frozen=True)
class ColoredTorus:
    side: int
    sign: int
    colors: dict  # (p, q) -> signed color

    def color(self, p: int, q: int) -> int:
        return self.colors[(p % self.side, q % self.side)]


GROUP_BY_PARITY = {(0, 0): 4, (1, 0): 3, (0, 1): 1, (1, 1): 2}


def vertex_group(p: int, q: int) -> int:
    return GROUP_BY_PARITY[(p % 2, q % 2)]


def tiling_to_colored_tori(ts: TileSet, til: PeriodicTiling, k: int) -> tuple[ColoredTorus, ColoredTorus]:
    """Two mirrored colored tori of side 2l from a valid tiling.

    l is lcm(a, b) inflated to at least 2, so every support cycle is
    nondegenerate.  Vertex (p, q) takes its color from the even face it
    belongs to: the west edge of the face at (p, q) when p + q is even,
    otherwise the south edge of the face at (p - 1, q).  The color group
    (1..4) is determined by the parities of (p, q).
    """
    if not validate_tiling(ts, til):
        raise WitnessError("tiling is not valid; refusing to build a coloring")
    t_eff = (k - 1) // 4
    if ts.num_colors > t_eff:
        raise WitnessError(f"tile set has {ts.num_colors} colors but k={k} supports {t_eff}")
    l = max(2, lcm(til.a, til.b))
    side = 2 * l

    def base_color(p: int, q: int) -> int:
        if (p + q) % 2 == 0:
            i, j = p, q
            edge = 3  # west
        else:
            i, j = p - 1, q
            edge = 2  # south
        u = ((i + j) // 2) % til.a
        v = ((j - i) // 2) % til.b
        c = ts.tiles[til.tile_at(u, v)][edge]
        return 4 * (c - 1) + vertex_group(p, q)

    colors = {(p, q): base_color(p, q) for p in range(side) for q in range(side)}
    pos = ColoredTorus(side, +1, colors)
    neg = ColoredTorus(side, -1, {pq: -c for pq, c in colors.items()})
    check_colored_tori(ts, k, pos, neg)
    return pos, neg


def check_colored_tori(ts: TileSet, k: int, pos: ColoredTorus, neg: ColoredTorus) -> None:
    """Structural invariants of a mirrored pair of colored tori."""
    from .compiler import face_sets

    side = pos.side
    if side % 2 or side < 4 or neg.side != side:
        raise WitnessError("colored tori must share an even side of at least 4")
    c11, c22 = face_sets(ts)
    for p in range(side):
        for q in range(side):
            c = pos.color(p, q)
            if c <= 0 or neg.color(p, q) != -c:
                raise WitnessError("copies must mirror with opposite signs")
            g = (c - 1) % 4 + 1
            if g != vertex_group(p, q):
                raise WitnessError(f"vertex ({p},{q}) has group {g}, expected {vertex_group(p, q)}")
            gv = (pos.color(p, q + 1) - 1) % 4 + 1
            if {g, gv} not in ({1, 4}, {2, 3}):
                raise WitnessError(f"vertical edge at ({p},{q}) joins groups {g},{gv}")
            gh = (pos.color(p + 1, q) - 1) % 4 + 1
            if {g, gh} not in ({1, 2}, {3, 4}):
                raise WitnessError(f"horizontal edge at ({p},{q}) joins groups {g},{gh}")
    for i in range(side):
        for j in range(side):
            if (i + j) % 2:
                continue
            face = frozenset(
                abs(pos.color(p, q)) for p, q in ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))
            )
            allowed = c11 if i % 2 == 0 else c22
            if face not in allowed:
                raise WitnessError(f"even face at ({i},{j}) has colors {sorted(face)} not admitted")
    for i in range(1, k + 1):
        ones = zeros = 0
        for torus in (pos, neg):
            for c in torus.colors.values():
                w = w_of_color(c, k)[i - 1]
                ones += w
                zeros += 1 - w
        if ones != zeros:
            raise WitnessError(f"switch index {i} unbalanced: {ones} ones vs {zeros} zeros")


# --- witness assembly ---


class WitnessAssigner:
    """Builds one FactoredJoint seed by seed, table by table.

    Every seed and variable goes through `FactoredJoint.add`, which holds
    the checks; the methods here only make seeds and tables.
    """

    def __init__(self):
        self.joint = FactoredJoint()

    def add_seed(self, name: str, size: int, probs=None) -> str:
        seed = uniform_seed(name, size) if probs is None else Seed(name, size, tuple(probs))
        self.joint.add([seed])
        return name

    def assign(self, name: str, refs, table) -> None:
        self.joint.add(variables=[Variable(name, tuple(refs), table)])

    def derive(self, name: str, inputs: list[str], fn, extra_seeds=()) -> None:
        """Assign `name` = fn(input values..., extra seed values...) as a base variable.

        `fn` receives numpy arrays.  The table is row-major over the sorted
        seeds of the inputs' closure with any extra seeds appended last
        (fastest)."""
        joint = self.joint
        order = joint.referenced_seeds(inputs) + list(extra_seeds)
        args = [*map(joint.var, inputs), *(_coordinate(joint.seeds[sn]) for sn in extra_seeds)]
        values = fn(*(_on_seeds(joint, v, order) for v in args))
        values = np.broadcast_to(values, _product_shape(joint.seeds, order))
        self.assign(name, order, values.ravel())

    def derive_mod_sum(self, name: str, base_var: str, seed_name: str, size: int) -> None:
        """name = (base + seed) mod size, derived from the base's value and the seed."""
        x = np.arange(self.joint.var(base_var).vmax + 1)
        table = (x[:, None] + np.arange(size)) % size
        self.joint.add(variables=[Variable(name, (seed_name,), table.ravel(), (base_var,))])


# --- index-driven auxiliary assignment ---


def _assign_sw(asg: WitnessAssigner, sw: SwIx) -> None:
    seed = asg.add_seed(f"{sw.path}.seedG", 2)
    asg.derive(sw.g, [sw.f], lambda f, b: (1 - f) * b, extra_seeds=[seed])


def _assign_cycs(asg: WitnessAssigner, cx: CycsIx) -> None:
    """Two-color the edges of the characteristic bipartite graph of (x1, x2)."""
    x1, x2 = asg.joint.var(cx.x1), asg.joint.var(cx.x2)
    pmf = _pmf(asg.joint, [cx.x1, cx.x2])
    if len(set(pmf.values())) != 1:
        raise WitnessError(f"{cx.path}: support pairs are not equally likely")
    left: dict = {}
    right: dict = {}
    for a, b in pmf:
        left.setdefault(a, []).append((a, b))
        right.setdefault(b, []).append((a, b))
    if any(len(es) != 2 for es in left.values()) or any(len(es) != 2 for es in right.values()):
        raise WitnessError(f"{cx.path}: characteristic graph is not 2-regular")
    color = np.zeros((x1.vmax + 1, x2.vmax + 1), dtype=np.int64)
    seen: set = set()
    for start in sorted(pmf):
        if start in seen:
            continue
        edge, side, c = start, "right", 0
        while edge not in seen:
            seen.add(edge)
            color[edge] = c
            a, b = edge
            nxt = [e for e in (right[b] if side == "right" else left[a]) if e != edge][0]
            edge, side, c = nxt, ("left" if side == "right" else "right"), 1 - c
    asg.derive(cx.u, [cx.x1, cx.x2], lambda a, b: color[a, b])


def _assign_flip(asg: WitnessAssigner, fl: FlipIx) -> None:
    names = (fl.f, fl.g1, fl.g2)
    atom_index = np.full([max(asg.joint.var(n).vmax + 1, 2) for n in names], -1)
    for i, atom in enumerate(FLIP_ATOMS):
        atom_index[atom] = i

    def u_fn(f, g1, g2):
        u = atom_index[f, g1, g2]
        if (u < 0).any():
            bad = int(np.argmax(u < 0))
            key = tuple(int(np.broadcast_to(x, u.shape).flat[bad]) for x in (f, g1, g2))
            raise WitnessError(f"{fl.path}: combination {key} outside the flip support")
        return u

    asg.derive(fl.u, list(names), u_fn)
    z1_seed = asg.add_seed(f"{fl.path}.seedZ1", 3)
    z2_seed = asg.add_seed(f"{fl.path}.seedZ2", 3)
    rank_g1_zero = np.array([0, 0, 1, 2])  # ranks of the atoms 0, 2, 3, which have g1 = 0
    asg.derive(fl.z1, [fl.u], lambda u, r: np.where(u == 1, r, rank_g1_zero[u]),
               extra_seeds=[z1_seed])
    asg.derive(fl.z2, [fl.u], lambda u, r: np.where(u == 3, r, u), extra_seeds=[z2_seed])


def _ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `keys`: its rank among the earlier rows equal to it, and their count."""
    _, inv, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    inv = inv.reshape(-1)
    rank = np.empty_like(inv)
    rank[np.argsort(inv, kind="stable")] = np.arange(len(inv)) - np.repeat(
        np.cumsum(counts) - counts, counts)
    return rank, counts[inv]


def _assign_sat(asg: WitnessAssigner, sat: SatIx) -> None:
    """Build the group-counting auxiliary from the exact conditional law.

    Within each group (a value of the conditioning tuple) the coin given
    all-zero observables is Bernoulli(a/(l+a)) where l is the group size
    and a the number of selected vertices; the auxiliary maps the selected
    coin=1 mass onto a block of seed values of exactly matching size.
    """
    u = sat.u_size
    joint = asg.joint
    fvar = joint.var(sat.f)
    if fvar.inputs or len(fvar.seeds) != 1 or sorted(fvar.table.tolist()) != [0, 1]:
        raise WitnessError(f"{sat.path}: the coin must be a fair single-seed bit")
    fseed = fvar.seeds[0]
    if not joint.seeds[fseed].uniform:
        raise WitnessError(f"{sat.path}: the coin seed must be fair")
    sel = [sat.v[i - 1] for i in sat.s] + [sat.vb[i - 1] for i in sat.sbar]
    ctx = set(sat.evars) | set(sel)
    vseeds = [sn for sn in joint.referenced_seeds(ctx) if sn != fseed]
    for ev in sat.evars:
        if fseed in joint.referenced_seeds([ev]):
            raise WitnessError(f"{sat.path}: group variable {ev} depends on the coin seed")
    if not all(joint.seeds[sn].uniform for sn in vseeds):
        raise WitnessError(f"{sat.path}: group analysis requires uniform seeds")

    # classify vertex atoms (row-major over vseeds) by group and selection pattern
    order = vseeds + [fseed]
    shape = [joint.seeds[sn].size for sn in order]
    nv = math.prod(shape[:-1])

    def at_coin(names, coin: int) -> np.ndarray:  # (vertex, name) values with the coin at `coin`
        c = fvar.table.tolist().index(coin)
        cols = [np.broadcast_to(_on_seeds(joint, joint.var(n), order), shape)[..., c] for n in names]
        return np.array(cols, dtype=np.int64).reshape(len(names), nv).T

    if at_coin(sel, 0).any():
        raise WitnessError(f"{sat.path}: selected observable nonzero when the coin is 0")
    pattern = at_coin(sel, 1)
    satflag = ~pattern.any(axis=1)
    events, group = np.unique(at_coin(sat.evars, 0), axis=0, return_inverse=True)
    group = group.reshape(-1)
    lsize = np.bincount(group)
    acount = np.bincount(group[satflag], minlength=len(lsize))
    for event, lz, ac in zip(events.tolist(), lsize.tolist(), acount.tolist()):
        if (u * ac) % (lz + ac):
            raise WitnessRefusal(sat.path, u, tuple(event), lz, ac)
    m = (u * acount // (lsize + acount))[group]

    # coin 0 spreads each group over the values m..u-1; coin 1 puts the
    # selected vertices on 0..m-1 and each other pattern class on 0..u-1
    rank0, count0 = _ranks(group[:, None])
    rank1, count1 = _ranks(np.column_stack([group, pattern]))
    width0, width1 = u - m, np.where(satflag, m, u)
    step0, step1 = width0 // np.gcd(count0, width0), width1 // np.gcd(count1, width1)
    M = int(np.lcm.reduce(np.concatenate([step0, step1])))
    r = np.arange(M)

    def block(rank, count, width, step, offset):  # (vertex, r) values
        return offset + ((rank * step)[:, None] + r % step[:, None]) * width[:, None] // (
            count * step)[:, None]

    by_coin = {0: block(rank0, count0, width0, step0, m[:, None]),
               1: block(rank1, count1, width1, step1, 0)}
    table = np.stack([by_coin[x] for x in fvar.table.tolist()], axis=1)
    base_order = sorted(order)
    table = np.moveaxis(table.reshape(shape + [M]), len(vseeds), base_order.index(fseed))
    if M > 1:
        base_order.append(asg.add_seed(f"{sat.path}.seedU", M))
    asg.assign(sat.uvar, tuple(base_order), table.ravel())


def _assign_unif_partner(asg: WitnessAssigner, ux: UnifIx) -> None:
    size = _uniform_size(asg.joint, ux.var)
    if not size:
        raise WitnessError(f"{ux.path}: {ux.var} is not exactly uniform over 0..n-1")
    if ux.card is not None and size != ux.card:
        raise WitnessError(f"{ux.path}: {ux.var} is uniform over {size} values, expected {ux.card}")
    seed = asg.add_seed(f"{ux.path}.seedP", size)
    asg.assign(ux.p1, (seed,), np.arange(size))
    asg.derive_mod_sum(ux.p2, ux.var, seed, size)


def assign_from_index(asg: WitnessAssigner, index: BuildIndex) -> None:
    """Assign every auxiliary variable recorded in a build index.

    Base variables (the gadget actuals) must already be assigned."""
    for sw in index.sws:
        _assign_sw(asg, sw)
    for cx in index.cycs:
        _assign_cycs(asg, cx)
    for fl in index.flips:
        _assign_flip(asg, fl)
    for sat in index.sats:
        _assign_sat(asg, sat)
    for ux in index.unifs:
        _assign_unif_partner(asg, ux)


# --- the full tiling witness ---


def build_witness(ts: TileSet, til: PeriodicTiling) -> FactoredJoint:
    """An explicit joint distribution satisfying the compiled system.

    The core seed is a uniform vertex of the two mirrored colored tori,
    realized as two sign-indexed cycles crossed with one cycle; the coin and
    every gadget amount to deterministic maps and fresh uniform seeds.
    """
    if not validate_tiling(ts, til):
        raise WitnessError("tiling is not valid")
    cs, index, lay = compile_ttori_indexed(ts)
    k = lay.k
    pos, neg = tiling_to_colored_tori(ts, til, k)
    side = pos.side
    l = side // 2
    asg = WitnessAssigner()
    core = asg.add_seed("core", 2 * side * side)
    coin = asg.add_seed("coinF", 2)

    def split(idx):
        s, rem = divmod(idx, side * side)
        p, q = divmod(rem, side)
        return s, p, q

    atoms = [split(i) for i in range(2 * side * side)]
    tori = (pos, neg)
    asg.assign(lay.x[0], (core,), [s * l + p // 2 for s, p, q in atoms])
    asg.assign(lay.x[1], (core,), [s * l + ((p + 1) // 2) % l for s, p, q in atoms])
    asg.assign(lay.y[0], (core,), [q // 2 for s, p, q in atoms])
    asg.assign(lay.y[1], (core,), [((q + 1) // 2) % l for s, p, q in atoms])
    wvecs = [w_of_color(tori[s].color(p, q), k) for s, p, q in atoms]
    for i in range(k):
        asg.assign(lay.w[i], (core,), [wv[i] for wv in wvecs])
    asg.assign(lay.f, (coin,), [0, 1])
    for i in range(k):
        asg.derive(lay.v[i], [lay.w[i], lay.f], lambda w, f: (1 - w) * f)
        asg.derive(lay.vb[i], [lay.w[i], lay.f], lambda w, f: w * f)
    assign_from_index(asg, index)
    joint = asg.joint
    missing = set(cs.all_vars()) - set(joint.variables)
    if missing:
        raise WitnessError(f"roster mismatch: unassigned variables {sorted(missing)[:5]}")
    return joint


# --- verification ---


@dataclass
class RowResult:
    tag: str
    rel: str
    value: float
    rhs: float
    residual: float
    violation: float
    passed: bool
    atoms: int


@dataclass
class VerificationReport:
    tolerance: float
    rows: list[RowResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def failures(self) -> list[RowResult]:
        return [r for r in self.rows if not r.passed]

    @property
    def max_violation(self) -> float:
        return max((r.violation for r in self.rows), default=0.0)

    @property
    def max_atoms(self) -> int:
        return max((r.atoms for r in self.rows), default=0)

    def to_obj(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "rows": [
                {
                    "tag": r.tag,
                    "rel": r.rel,
                    "lhs": r.value,
                    "rhs": r.rhs,
                    "residual": r.residual,
                    "pass": r.passed,
                    "atoms": r.atoms,
                }
                for r in self.rows
            ],
            "summary": {
                "rows": len(self.rows),
                "failures": len(self.failures),
                "max_violation": self.max_violation,
                "max_atoms": self.max_atoms,
                "pass": self.passed,
            },
        }


def verify(joint: FactoredJoint, system, tol: float = UNIT_TOL) -> VerificationReport:
    """Evaluate every row of a constraint system (or of a list of rows).

    Equality rows pass when |lhs - rhs| <= tol; inequality rows may violate
    their direction by at most tol.  Row order and results are deterministic;
    `atoms` records the largest single marginal enumeration the row needs:
    the size of the seed product of its largest term.

    The rows are first turned into one evaluation plan: each distinct term
    subset is one column, holding its entropy and the atom count of its
    sorted closure seeds (read from the joint's closure-seed memo).  The
    entropies the joint's memo lacks are computed in one batch
    (`joint._entropies`).  Each row then reads its columns in its kept
    canonical term order, and its value is summed in the order
    `eval_expression` sums it.
    """
    rows = system.rows if isinstance(system, ConstraintSystem) else list(system)
    orders = {vs: joint.referenced_seeds(vs)
              for vs in dict.fromkeys(vs for row in rows for vs in row.lhs.terms)}
    atoms = (_atoms(joint.seeds, order) for order in orders.values())
    plan = dict(zip(orders, zip(_entropies(joint, orders), atoms)))
    report = VerificationReport(tolerance=tol)
    for row in rows:
        value, row_atoms = 0.0, 0
        for vs, coef in row.lhs.sorted_terms():
            entropy, column_atoms = plan[vs]
            value += float(coef) * entropy
            row_atoms = max(row_atoms, column_atoms)
        rhs = float(row.rhs)
        residual = value - rhs
        if row.rel == REL_EQ:
            violation = abs(residual)
        elif row.rel == REL_GE:
            violation = max(0.0, -residual)
        else:
            violation = max(0.0, residual)
        report.rows.append(
            RowResult(row.tag, row.rel, value, rhs, residual, violation, violation <= tol, row_atoms)
        )
    return report


def report_dumps(report: VerificationReport) -> str:
    return json.dumps(report.to_obj(), separators=(",", ":")) + "\n"


# --- per-gadget unit witnesses ---


def unit_triple(m: int = 3):
    """Modular-sum block: two independent uniforms and their sum mod m."""
    from .gadgets import GadgetRef, instantiate_gadget

    cs = instantiate_gadget(GadgetRef("TRIPLE"), ["Y1", "Y2", "Y3"])
    asg = WitnessAssigner()
    a = asg.add_seed("seedA", m)
    b = asg.add_seed("seedB", m)
    asg.assign("Y1", (a,), np.arange(m))
    asg.assign("Y2", (b,), np.arange(m))
    asg.assign("Y3", (a, b), [(i + j) % m for i in range(m) for j in range(m)])
    return asg.joint, cs


def unit_flip():
    """The four-atom coin/flip table with its three-point auxiliaries."""
    from .gadgets import SystemBuilder

    b = SystemBuilder(["F", "G1", "G2"])
    b.flip("F", "G1", "G2", "flip")
    asg = WitnessAssigner()
    coin = asg.add_seed("coinF", 2)
    bg = asg.add_seed("coinB", 2)
    cg = asg.add_seed("coinC", 2)
    asg.assign("F", (coin,), [0, 1])
    asg.derive("G1", ["F"], lambda f, x: (1 - f) * x, extra_seeds=[bg])
    asg.derive("G2", ["F"], lambda f, x: f * x, extra_seeds=[cg])
    assign_from_index(asg, b.index)
    return asg.joint, b.system()


def unit_sw(k: int = 4):
    """Switch block with independent fair switches."""
    from .gadgets import SystemBuilder

    w = [f"W{i}" for i in range(1, k + 1)]
    v = [f"V{i}" for i in range(1, k + 1)]
    vb = [f"Vb{i}" for i in range(1, k + 1)]
    b = SystemBuilder(w + v + vb + ["F"])
    b.sw(w, v, vb, "F", "sw")
    asg = WitnessAssigner()
    coin = asg.add_seed("coinF", 2)
    asg.assign("F", (coin,), [0, 1])
    for i in range(k):
        ws = asg.add_seed(f"seedW{i + 1}", 2)
        asg.assign(w[i], (ws,), [0, 1])
        asg.derive(v[i], [w[i], "F"], lambda wv, f: (1 - wv) * f)
        asg.derive(vb[i], [w[i], "F"], lambda wv, f: wv * f)
    assign_from_index(asg, b.index)
    return asg.joint, b.system()


def unit_sat(kind: str, k: int, groups: list[list[int]], s, sbar):
    """Group-counting gadget over explicit vertex groups.

    Each group is a list of signed colors; a uniform vertex seed ranges
    over all listed vertices, the group variable is the group id, and the
    switch vector of each vertex is its color's indicator pattern.
    """
    from .gadgets import SystemBuilder

    w = [f"W{i}" for i in range(1, k + 1)]
    v = [f"V{i}" for i in range(1, k + 1)]
    vb = [f"Vb{i}" for i in range(1, k + 1)]
    b = SystemBuilder(["E"] + w + v + vb + ["F"])
    b.sat(kind, ("E",), s, sbar, w, v, vb, "F", "sat")
    vertices = [(gi, color) for gi, grp in enumerate(groups) for color in grp]
    asg = WitnessAssigner()
    core = asg.add_seed("vertex", len(vertices))
    coin = asg.add_seed("coinF", 2)
    asg.assign("E", (core,), [gi for gi, _ in vertices])
    for i in range(k):
        asg.assign(w[i], (core,), [w_of_color(c, k)[i] for _, c in vertices])
    asg.assign("F", (coin,), [0, 1])
    for i in range(k):
        asg.derive(v[i], [w[i], "F"], lambda wv, f: (1 - wv) * f)
        asg.derive(vb[i], [w[i], "F"], lambda wv, f: wv * f)
    assign_from_index(asg, b.index)
    return asg.joint, b.system()


# --- slack realization ---


def _solve_binary_entropy(target: float) -> Fraction:
    """p in (0, 1/2] with binary entropy close to target, as a rational."""
    lo, hi = 0.0, 0.5
    for _ in range(80):
        mid = (lo + hi) / 2
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return Fraction((lo + hi) / 2).limit_denominator(10**12)


def extend_witness_for_slack(joint: FactoredJoint, ge_system: ConstraintSystem) -> FactoredJoint:
    """Add one fresh variable per row whose entropy matches the row's surplus.

    The surplus of row j is lhs - rhs evaluated on the witness (>= 0 if the
    witness verifies).  Exact uniform seeds realize the integer part and a
    rationalized two-point seed the fractional part, so the slackified
    equality system verifies to well below usual tolerances.
    """
    seeds, variables = [], []
    for j, row in enumerate(ge_system.rows, start=1):
        if row.rel != REL_GE:
            raise WitnessError("slack extension expects a >=-form system")
        surplus = eval_expression(joint, row.lhs) - float(row.rhs)
        surplus = max(0.0, surplus)
        name = slack_name(j)
        whole = int(surplus)
        fracpart = surplus - whole
        if whole > 24:
            raise WitnessError(f"row {row.tag}: surplus {surplus} too large to realize")
        own = []
        if whole:
            own.append(uniform_seed(f"{name}.dyadic", 2**whole))
        if fracpart > 1e-12:
            p = _solve_binary_entropy(fracpart)
            own.append(Seed(f"{name}.bern", 2, (1 - p, p)))
        seeds += own
        total = math.prod(s.size for s in own)
        variables.append(Variable(name, tuple(s.name for s in own), np.arange(total)))
    return joint.extend(seeds, variables)
