"""The gadget catalog: parametric constructors for entropy constraint systems.

Every gadget is built through a SystemBuilder, which accumulates rows,
existential names (dotted instance paths, so instantiation is deterministic
and auditable), a manifest of instance counts, and a build index describing
the auxiliary structure.  The build index is what lets the witness builder
assign a concrete value map to every auxiliary variable without re-deriving
the construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .expressions import REL_GE, REL_LE, bound_row, ci_row, hcond_row, indep_row
from .logbounds import LE23_CONSTANTS, pick_alpha, pick_log_bounds
from .systems import ConstraintSystem, SystemError

SAT_SEED_SIZES = {"ne_half": 2, "le_half": 3, "le_3_4": 105}
SAT_NAMES = {"ne_half": "SAT_NEQ_HALF", "le_half": "SAT_LE_HALF", "le_3_4": "SAT_LE_3_4"}
COL_WIDTH_CAP = 13


# --- vertex-color conventions shared with the witness builder ---


def tk_colors(k: int) -> list[int]:
    """Color order: +1..+(k-1) then -1..-(k-1)."""
    return list(range(1, k)) + [-j for j in range(1, k)]


def w_of_color(color: int, k: int) -> tuple[int, ...]:
    """The switch vector of a signed color.

    Color +j is the indicator of {j}; color -j is the indicator of [k]\\{j}.
    Positive colors therefore have w_k = 0 and negative colors w_k = 1.
    """
    j = abs(color)
    if not 1 <= j <= k - 1:
        raise ValueError(f"color {color} out of range for k={k}")
    if color > 0:
        return tuple(1 if i == j else 0 for i in range(1, k + 1))
    return tuple(0 if i == j else 1 for i in range(1, k + 1))


def tk_vectors(k: int) -> dict[tuple[int, ...], int]:
    """Map admissible switch vectors to their colors (2(k-1) entries)."""
    return {w_of_color(c, k): c for c in tk_colors(k)}


def residue(j: int) -> int:
    """Color group: |j| mod 4 with values in 1..4."""
    return (abs(j) - 1) % 4 + 1


# --- build index records (consumed by the witness builder) ---


@dataclass(frozen=True)
class UnifIx:
    path: str
    var: str
    card: int | None
    p1: str
    p2: str


@dataclass(frozen=True)
class CycsIx:
    path: str
    x1: str
    x2: str
    u: str


@dataclass(frozen=True)
class FlipIx:
    path: str
    f: str
    g1: str
    g2: str
    u: str
    z1: str
    z2: str


@dataclass(frozen=True)
class SwIx:
    path: str
    w: tuple[str, ...]
    v: tuple[str, ...]
    vb: tuple[str, ...]
    f: str
    g: str


@dataclass(frozen=True)
class SatIx:
    path: str
    kind: str
    u_size: int
    evars: tuple[str, ...]
    s: tuple[int, ...]
    sbar: tuple[int, ...]
    w: tuple[str, ...]
    v: tuple[str, ...]
    vb: tuple[str, ...]
    f: str
    uvar: str


@dataclass
class BuildIndex:
    unifs: list[UnifIx] = field(default_factory=list)
    cycs: list[CycsIx] = field(default_factory=list)
    flips: list[FlipIx] = field(default_factory=list)
    sws: list[SwIx] = field(default_factory=list)
    sats: list[SatIx] = field(default_factory=list)


class SystemBuilder:
    """Accumulates a constraint system gadget by gadget."""

    def __init__(self, free_vars=()):
        self.free = list(free_vars)
        self.exist: list[str] = []
        self.rows = []
        self.index = BuildIndex()
        self.counts: dict[str, int] = {}
        self._used = set(self.free)
        if len(self._used) != len(self.free):
            raise SystemError("duplicate free variable")

    def _count(self, name: str):
        self.counts[name] = self.counts.get(name, 0) + 1

    def declare(self, name: str) -> str:
        """Declare an existential variable with an explicit name."""
        if name in self._used:
            raise SystemError(f"name collision: {name}")
        self._used.add(name)
        self.exist.append(name)
        return name

    def fresh(self, path: str, local: str) -> str:
        return self.declare(f"{path}.{local}")

    def row(self, r):
        self.rows.append(r)

    # -- primitive gadgets --

    def triple(self, y1: str, y2: str, y3: str, path: str):
        """Three variables, each a function of the other two, pairwise independent."""
        self._count("TRIPLE")
        self.row(hcond_row([y1], [y2, y3], f"{path}:h1|23"))
        self.row(hcond_row([y2], [y1, y3], f"{path}:h2|13"))
        self.row(hcond_row([y3], [y1, y2], f"{path}:h3|12"))
        self.row(indep_row([y1], [y2], f"{path}:i12"))
        self.row(indep_row([y1], [y3], f"{path}:i13"))
        self.row(indep_row([y2], [y3], f"{path}:i23"))

    def unif(self, x: str, path: str, card: int | None = None):
        """x is uniform over its support; optionally with cardinality `card`."""
        self._count("UNIF")
        if card is not None:
            self._count(f"UNIF_{card}")
        p1 = self.fresh(path, "U1")
        p2 = self.fresh(path, "U2")
        self.triple(x, p1, p2, path)
        if card is not None:
            self.row(bound_row(x, REL_GE, pick_alpha(card), f"{path}:card_lo"))
            self.row(bound_row(x, REL_LE, pick_alpha(card + 1), f"{path}:card_hi"))
        self.index.unifs.append(UnifIx(path, x, card, p1, p2))

    def cycs(self, x1: str, x2: str, path: str):
        """The characteristic bipartite graph of (x1, x2) is a union of cycles."""
        self._count("CYCS")
        u = self.fresh(path, "U")
        self.unif(x1, f"{path}.unif1")
        self.unif(x2, f"{path}.unif2")
        self.unif(u, f"{path}.unifu", card=2)
        self.row(indep_row([x1], [u], f"{path}:i_x1u"))
        self.row(indep_row([x2], [u], f"{path}:i_x2u"))
        self.row(hcond_row([x1], [x2, u], f"{path}:h_x1|x2u"))
        self.row(hcond_row([x2], [x1, u], f"{path}:h_x2|x1u"))
        self.row(hcond_row([u], [x1, x2], f"{path}:h_u|x1x2"))
        self.index.cycs.append(CycsIx(path, x1, x2, u))

    def tori(self, x1, x2, y1, y2, path: str):
        self._count("TORI")
        self.cycs(x1, x2, f"{path}.cycsx")
        self.cycs(y1, y2, f"{path}.cycsy")
        self.row(indep_row([x1, x2], [y1, y2], f"{path}:i_xy"))

    def flip(self, f: str, g1: str, g2: str, path: str):
        """(f, g1, g2) is uniform over {000, 010, 100, 101} up to relabeling."""
        self._count("FLIP")
        u = self.fresh(path, "U")
        z1 = self.fresh(path, "Z1")
        z2 = self.fresh(path, "Z2")
        self.unif(u, f"{path}.unifu", card=4)
        self.unif(f, f"{path}.uniff", card=2)
        self.row(hcond_row([f, g1, g2], [u], f"{path}:h_fgg|u"))
        self.row(ci_row([g1], [g2], [f], f"{path}:i_g1g2|f"))
        self.unif(z1, f"{path}.unifz1", card=3)
        self.row(indep_row([z1], [g1], f"{path}:i_z1g1"))
        self.row(hcond_row([u], [g1, z1], f"{path}:h_u|g1z1"))
        self.unif(z2, f"{path}.unifz2", card=3)
        self.row(indep_row([z2], [g2], f"{path}:i_z2g2"))
        self.row(hcond_row([u], [g2, z2], f"{path}:h_u|g2z2"))
        self.index.flips.append(FlipIx(path, f, g1, g2, u, z1, z2))

    def sw(self, w, v, vb, f: str, path: str):
        """Switch block: binds boolean switches w to observable events via v, vb."""
        self._count("SW")
        k = len(w)
        if not (len(v) == len(vb) == k):
            raise SystemError("switch blocks need equal-length w, v, vb")
        g = self.fresh(path, "G")
        self.row(indep_row(list(w), [f, g], f"{path}:i_w_fg"))
        for i in range(k):
            ip = f"{path}.i{i + 1}"
            self.unif(w[i], f"{ip}.unifw", card=2)
            self.row(hcond_row([v[i], vb[i]], [w[i], f], f"{ip}:h_vvb|wf"))
            self.row(ci_row([v[i]], [vb[i]], [w[i]], f"{ip}:i_vvb|w"))
            self.flip(f, g, v[i], f"{ip}.flipv")
            self.flip(f, g, vb[i], f"{ip}.flipvb")
        self.index.sws.append(SwIx(path, tuple(w), tuple(v), tuple(vb), f, g))

    def col(self, w, v, vb, f: str, path: str):
        """Switch block restricted to the admissible color vectors.

        The exclusion conjunction has 2^k - 2(k-1) rows, exponential in the
        switch width, so widths beyond 13 are rejected outright."""
        self._count("COL")
        k = len(w)
        if k > COL_WIDTH_CAP:
            raise SystemError(
                f"instance too large: switch width {k} exceeds the cap {COL_WIDTH_CAP} "
                f"(the exclusion list would have {2**k - 2 * (k - 1)} rows)"
            )
        self.sw(w, v, vb, f, f"{path}.sw")
        admissible = set(tk_vectors(k))
        for mask in range(1 << k):
            bits = tuple((mask >> i) & 1 for i in range(k))
            if bits in admissible:
                continue
            cond = [w_i for w_i in w]
            cond += [v[i] for i in range(k) if bits[i] == 1]
            cond += [vb[i] for i in range(k) if bits[i] == 0]
            label = "".join(map(str, bits))
            self.row(hcond_row([f], cond, f"{path}:excl_{label}"))

    def cold(self, xgroup, w, v, vb, f: str, path: str):
        """Coloring applied to vertices: the color vector is a function of x."""
        self._count("COLD")
        self.col(w, v, vb, f, f"{path}.col")
        self.row(hcond_row(list(w), list(xgroup), f"{path}:h_w|x"))
        self.row(ci_row(list(v) + list(vb) + [f], list(xgroup), list(w), f"{path}:i_vvbf_x|w"))

    def sat(self, kind: str, evars, s, sbar, w, v, vb, f: str, path: str):
        """Group-counting gadget keyed by the auxiliary seed cardinality.

        kind 'ne_half' forbids the fraction of selected vertices per group
        being exactly 1/2; 'le_half' bounds it by 1/2; 'le_3_4' by 3/4.
        """
        u_size = SAT_SEED_SIZES[kind]
        self._count(SAT_NAMES[kind])
        k = len(w)
        s = tuple(sorted(s))
        sbar = tuple(sorted(sbar))
        if set(s) & set(sbar):
            raise SystemError("selection sets must be disjoint")
        if not (set(s) <= set(range(1, k + 1)) and set(sbar) <= set(range(1, k + 1))):
            raise SystemError("selection sets must be subsets of [k]")
        u = self.fresh(path, "U")
        self.unif(u, f"{path}.unifu", card=u_size)
        sel = [v[i - 1] for i in s] + [vb[i - 1] for i in sbar]
        self.row(indep_row([u], list(evars) + sel, f"{path}:i_u_evs"))
        self.row(hcond_row([f], sel + list(evars) + [u], f"{path}:h_f|vse_u"))
        self.index.sats.append(
            SatIx(path, kind, u_size, tuple(evars), s, sbar, tuple(w), tuple(v), tuple(vb), f, u)
        )

    def ctori(self, x, y, w, v, vb, f: str, path: str):
        self._count("CTORI")
        self.tori(x[0], x[1], y[0], y[1], f"{path}.tori")
        self.cold(list(x) + list(y), w, v, vb, f, f"{path}.cold")

    def otori(self, x, y, w, v, vb, f: str, path: str):
        """Colored tori with edge orientation constraints."""
        self._count("OTORI")
        k = len(w)
        self.ctori(x, y, w, v, vb, f, f"{path}.ctori")
        vertical = [(x[0], x[1], y[0]), (x[0], x[1], y[1])]
        horizontal = [(x[0], y[0], y[1]), (x[1], y[0], y[1])]
        for n, e in enumerate(vertical + horizontal):
            self.sat("ne_half", e, (k,), (), w, v, vb, f, f"{path}.sign{n + 1}")
        full = set(range(1, k + 1))
        for kindname, edges, forbidden in (
            ("pv", vertical, ({1, 4}, {2, 3})),
            ("ph", horizontal, ({1, 2}, {3, 4})),
        ):
            for j1, j2 in pair_indices(k, forbidden):
                rest = tuple(sorted(full - {j1, j2}))
                pp = f"{path}.{kindname}_{j1}_{j2}"
                for en, e in enumerate(edges):
                    self.sat("le_half", e, (), rest, w, v, vb, f, f"{pp}.pos{en + 1}")
                for en, e in enumerate(edges):
                    self.sat("le_half", e, rest, (), w, v, vb, f, f"{pp}.neg{en + 1}")

    def ttori(self, x, y, w, v, vb, f: str, c11, c22, path: str):
        """Oriented tori whose even faces are confined to the given tile faces."""
        self._count("TTORI")
        k = len(w)
        self.otori(x, y, w, v, vb, f, f"{path}.otori")
        full = set(range(1, k + 1))
        for fname, e, allowed in (("f11", (x[0], y[0]), c11), ("f22", (x[1], y[1]), c22)):
            for quad in quad_indices(k):
                if frozenset(quad) in allowed:
                    continue
                rest = tuple(sorted(full - set(quad)))
                qp = f"{path}.{fname}_" + "_".join(map(str, quad))
                self.sat("le_3_4", e, (), rest, w, v, vb, f, f"{qp}.pos")
                self.sat("le_3_4", e, rest, (), w, v, vb, f, f"{qp}.neg")

    # -- conditional-independence-only gadget family --

    def unif_eq(self, y: str, z: str, path: str):
        """y and z are both uniform with the same cardinality."""
        self._count("UNIF_EQ")
        u1 = self.fresh(path, "U1")
        u2 = self.fresh(path, "U2")
        u3 = self.fresh(path, "U3")
        self.triple(y, u1, u2, f"{path}.t1")
        self.triple(z, u1, u3, f"{path}.t2")

    def prod(self, ys, g: str, path: str):
        """All uniform, and the support sizes of ys multiply to that of g."""
        self._count("PROD")
        zs = [self.fresh(path, f"Z{i + 1}") for i in range(len(ys))]
        u = self.fresh(path, "U")
        for i, y in enumerate(ys):
            self.unif_eq(y, zs[i], f"{path}.eq{i + 1}")
            if i >= 1:
                self.row(indep_row([zs[i]], zs[:i], f"{path}:i_z{i + 1}"))
        self.unif_eq(g, u, f"{path}.eqg")
        self.row(hcond_row([u], zs, f"{path}:h_u|z"))
        self.row(hcond_row(zs, [u], f"{path}:h_z|u"))

    def pow(self, y: str, g: str, n: int, path: str):
        self._count("POW")
        self.prod([y] * n, g, path)

    def gesqrt(self, y: str, g: str, path: str):
        """card(y) divides card(g) and card(y) >= sqrt(card(g))."""
        self._count("GESQRT")
        z = self.fresh(path, "Z")
        w = self.fresh(path, "W")
        u = self.fresh(path, "U")
        vv = self.fresh(path, "V")
        self.unif_eq(y, z, f"{path}.eqyz")
        self.unif(w, f"{path}.unifw")
        self.row(indep_row([w], [z], f"{path}:i_wz"))
        self.unif_eq(g, u, f"{path}.eqgu")
        self.row(hcond_row([u], [z, w], f"{path}:h_u|zw"))
        self.row(hcond_row([z, w], [u], f"{path}:h_zw|u"))
        self.unif_eq(z, vv, f"{path}.eqzv")
        self.row(hcond_row([u], [z, vv], f"{path}:h_u|zv"))

    def le(self, y: str, z: str, path: str):
        """card(y) <= card(z), both uniform."""
        self._count("LE")
        u = self.fresh(path, "U")
        self.prod([y, z], u, f"{path}.prod")
        self.gesqrt(z, u, f"{path}.ge")

    def unif_k_ci(self, y: str, k: int, path: str):
        """Uniform with cardinality exactly k, stated through power comparisons.

        Only the internal two-point uniform carries a cardinality window;
        everything else is a conditional-independence row.
        """
        self._count("UNIF_K_CI")
        u = self.fresh(path, "U")
        v1 = self.fresh(path, "V1")
        v2 = self.fresh(path, "V2")
        w1 = self.fresh(path, "W1")
        w2 = self.fresh(path, "W2")
        self.unif(u, f"{path}.unifu", card=2)
        self.unif(y, f"{path}.unify")
        pk, qk = pick_log_bounds(k)
        pk1, qk1 = pick_log_bounds(k + 1)
        self.pow(u, v1, pk, f"{path}.pow_pv")
        self.pow(y, w1, qk, f"{path}.pow_qw")
        self.le(v1, w1, f"{path}.le1")
        self.pow(u, v2, pk1, f"{path}.pow_pv2")
        self.pow(y, w2, qk1, f"{path}.pow_qw2")
        self.le(w2, v2, f"{path}.le2")

    def unif_le2_le3(self, y: str, path: str):
        """Uniform with cardinality at most 2, given it is at most 3."""
        self._count("UNIF_LE2_LE3")
        p3, q3, p4, q4 = LE23_CONSTANTS
        u = self.fresh(path, "U")
        v1 = self.fresh(path, "V1")
        v2 = self.fresh(path, "V2")
        w1 = self.fresh(path, "W1")
        w2 = self.fresh(path, "W2")
        self.unif(y, f"{path}.unify")
        self.unif(u, f"{path}.unifu")
        self.pow(y, v1, p3, f"{path}.pow_yv1")
        self.pow(u, w1, q3, f"{path}.pow_uw1")
        self.le(v1, w1, f"{path}.le1")
        self.pow(y, v2, p4, f"{path}.pow_yv2")
        self.pow(u, w2, q4, f"{path}.pow_uw2")
        self.le(w2, v2, f"{path}.le2")

    def res3(self, y1: str, y2: str, y3: str, path: str):
        """Cyclic conditional independences forcing a common resolving part."""
        self._count("RES3")
        self.row(ci_row([y1], [y2], [y3], f"{path}:i_12|3"))
        self.row(ci_row([y2], [y3], [y1], f"{path}:i_23|1"))
        self.row(ci_row([y3], [y1], [y2], f"{path}:i_31|2"))

    def eq(self, a: str, b: str, path: str):
        """a and b are informationally equivalent."""
        self._count("EQ")
        self.row(hcond_row([a], [b], f"{path}:h_a|b"))
        self.row(hcond_row([b], [a], f"{path}:h_b|a"))

    def eqres(self, y1: str, z1: str, y2: str, z2: str, path: str):
        """The common parts of (y1,z1) and (y2,z2) agree."""
        self._count("EQRES")
        u1 = self.fresh(path, "U1")
        u2 = self.fresh(path, "U2")
        self.res3(y1, z1, u1, f"{path}.r1")
        self.res3(z1, u1, u2, f"{path}.r2")
        self.res3(u1, u2, y2, f"{path}.r3")
        self.res3(u2, y2, z2, f"{path}.r4")

    # -- finalize --

    def system(self, with_manifest: bool = False) -> ConstraintSystem:
        manifest = None
        if with_manifest:
            manifest = dict(sorted(self.counts.items()))
            manifest["rows"] = len(self.rows)
            manifest["vars"] = len(self.free) + len(self.exist)
        return ConstraintSystem(list(self.free), list(self.exist), list(self.rows), manifest)


def pair_indices(k: int, forbidden: tuple[set, set]) -> list[tuple[int, int]]:
    """Unordered index pairs (j1 <= j2) whose residue set is not forbidden.

    The constraint attached to a pair depends only on the set {j1, j2}, so
    each set appears once; pairs with equal residues pass the filter.
    """
    out = []
    for j1 in range(1, k):
        for j2 in range(j1, k):
            if {residue(j1), residue(j2)} in forbidden:
                continue
            out.append((j1, j2))
    return out


def quad_indices(k: int) -> list[tuple[int, int, int, int]]:
    """Sorted quadruples from [1..k-1] with pairwise distinct residues."""
    classes = [[j for j in range(1, k) if residue(j) == r] for r in (1, 2, 3, 4)]
    out = set()
    for combo in product(*classes):
        out.add(tuple(sorted(combo)))
    return sorted(out)


# --- public catalog ---


@dataclass(frozen=True)
class GadgetRef:
    name: str
    params: tuple = ()

    def params_dict(self) -> dict:
        return dict(self.params)


def _need(name: str, actuals, n: int):
    if len(actuals) != n:
        raise SystemError(f"{name} expects {n} actuals, got {len(actuals)}")


def _split_blocks(actuals, k: int, lead: int):
    """Split flat actuals into (lead-group, w, v, vb, f)."""
    need = lead + 3 * k + 1
    if len(actuals) != need:
        raise SystemError(f"expected {need} actuals, got {len(actuals)}")
    e = tuple(actuals[:lead])
    w = tuple(actuals[lead : lead + k])
    v = tuple(actuals[lead + k : lead + 2 * k])
    vb = tuple(actuals[lead + 2 * k : lead + 3 * k])
    return e, w, v, vb, actuals[-1]


# Every builder is called as build(builder, name, actuals, params, path).  It
# may return a finished system; otherwise the builder's system is the result.


def _fixed(n: int, method: str, *int_params: str):
    """n actuals, then the named integer parameters, passed in order to `method`."""

    def build(b, name, actuals, params, path):
        _need(name, actuals, n)
        getattr(b, method)(*actuals, *(int(params[p]) for p in int_params), path)

    return build


def _switched(lead, call):
    """(E^lead, W^k, V^k, Vbar^k, F); `lead` is a count or the parameter holding it."""

    def build(b, name, actuals, params, path):
        k = int(params["k"])
        n = lead if isinstance(lead, int) else int(params[lead])
        e, *switches = _split_blocks(actuals, k, n)
        call(b, e, switches, params, path)

    return build


def _unif_k(b, name, actuals, params, path):
    _need(name, actuals, 1)
    k = int(params["k"])
    if k < 2:
        raise SystemError("UNIF_K needs k >= 2")
    b.unif(actuals[0], path, card=k)


def _sat(kind: str):
    def call(b, e, switches, params, path):
        b.sat(kind, e, tuple(params.get("S", ())), tuple(params.get("Sbar", ())), *switches, path)

    return call


def _prod(b, name, actuals, params, path):
    _need(name, actuals, int(params["l"]) + 1)
    b.prod(list(actuals[:-1]), actuals[-1], path)


def _ttori(b, name, actuals, params, path):
    from .compiler import compile_ttori  # late import: compiler drives this
    from .tiling import TileSet

    _need(name, actuals, 0)
    return compile_ttori(TileSet.from_obj(params["tiles"]))


_SWITCHES = "W^k, V^k, Vbar^k, F"

# gadget name -> (arity text, builder)
CATALOG = {
    "TRIPLE": ("(Y1, Y2, Y3)", _fixed(3, "triple")),
    "UNIF": ("(X)", _fixed(1, "unif")),
    "UNIF_K": ("(X); k", _unif_k),
    "CYCS": ("(X1, X2)", _fixed(2, "cycs")),
    "TORI": ("(X1, X2, Y1, Y2)", _fixed(4, "tori")),
    "FLIP": ("(F, G1, G2)", _fixed(3, "flip")),
    "SW": (f"({_SWITCHES}); k", _switched(0, lambda b, e, sw, p, path: b.sw(*sw, path))),
    "COL": (f"({_SWITCHES}); k", _switched(0, lambda b, e, sw, p, path: b.col(*sw, path))),
    "COLD": (
        f"(X^m, {_SWITCHES}); m, k",
        _switched("m", lambda b, x, sw, p, path: b.cold(x, *sw, path)),
    ),
    **{
        name: (f"(E^m, {_SWITCHES}); m, k, S, Sbar", _switched("m", _sat(kind)))
        for kind, name in SAT_NAMES.items()
    },
    "CTORI": (
        f"(X1, X2, Y1, Y2, {_SWITCHES}); k",
        _switched(4, lambda b, e, sw, p, path: b.ctori(e[:2], e[2:], *sw, path)),
    ),
    "OTORI": (
        f"(X1, X2, Y1, Y2, {_SWITCHES}); k",
        _switched(4, lambda b, e, sw, p, path: b.otori(e[:2], e[2:], *sw, path)),
    ),
    "TTORI": ("(); tiles", _ttori),
    "UNIF_EQ": ("(Y, Z)", _fixed(2, "unif_eq")),
    "PROD": ("(Y1..Yl, G); l", _prod),
    "POW": ("(Y, G); k", _fixed(2, "pow", "k")),
    "GESQRT": ("(Y, G)", _fixed(2, "gesqrt")),
    "LE": ("(Y, Z)", _fixed(2, "le")),
    "UNIF_K_CI": ("(Y); k", _fixed(1, "unif_k_ci", "k")),
    "UNIF_LE2_LE3": ("(Y)", _fixed(1, "unif_le2_le3")),
    "RES3": ("(Y1, Y2, Y3)", _fixed(3, "res3")),
    "EQ": ("(F, G)", _fixed(2, "eq")),
    "EQRES": ("(Y1, Z1, Y2, Z2)", _fixed(4, "eqres")),
}

ARITY = {name: arity for name, (arity, _) in CATALOG.items()}


def instantiate_gadget(ref: GadgetRef, actuals: list[str]) -> ConstraintSystem:
    """Instantiate a catalog gadget over the given actual variable names.

    Internal existential variables get deterministic dotted names, so the
    same reference and actuals always produce byte-identical systems.
    """
    if ref.name not in CATALOG:
        raise SystemError(f"unknown gadget {ref.name!r}")
    b = SystemBuilder(actuals)
    built = CATALOG[ref.name][1](b, ref.name, actuals, ref.params_dict(), ref.name.lower())
    return b.system() if built is None else built
