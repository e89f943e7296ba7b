"""Conditional-independence system transformations.

Three rewrites: (1) replace every uniform-cardinality bound pair in a
lint-clean system with power/comparison chains anchored to one designated
fair bit, leaving pure CI relations; (2) turn the result into a cardinality
implication instance; (3) disjointify, expressing possibly-overlapping
relations over a tripled variable family where every emitted (A, B, C) is
pairwise disjoint.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .expressions import REL_GE, parse_names
from .gadgets import SystemBuilder
from .logbounds import pick_alpha, pick_log_bounds
from .systems import ConstraintSystem, lint_system

MAX_CARD_SCAN = 2000


class CIError(ValueError):
    pass


@dataclass
class CISystem:
    """Named variables, CI relations, one optional designated-variable extra."""

    vars: list[str]
    relations: list[tuple]  # (A, B, C) frozensets
    binary_var: str | None = None
    card_bound: int | None = None
    target: tuple | None = None
    audit: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        names = set(self.vars)
        if len(names) != len(self.vars):
            raise CIError("duplicate variable names")
        rels = []
        for a, b, c in self.relations:
            a, b, c = frozenset(a), frozenset(b), frozenset(c)
            if not (a | b | c) <= names:
                raise CIError(f"relation ({sorted(a)},{sorted(b)},{sorted(c)}) uses unknown names")
            rels.append((a, b, c))
        self.relations = rels
        if self.target is not None:
            a, b, c = self.target
            self.target = (frozenset(a), frozenset(b), frozenset(c))

    @property
    def n(self) -> int:
        return len(self.vars)

    def var_names(self) -> list[str]:
        return list(self.vars)

    def all_disjoint(self) -> bool:
        rels = list(self.relations) + ([self.target] if self.target else [])
        return all(not (a & b or a & c or b & c) for a, b, c in rels)


def _rel_obj(rel) -> dict:
    a, b, c = rel
    return {"A": sorted(a), "B": sorted(b), "C": sorted(c)}


def ci_to_obj(ci: CISystem) -> dict:
    obj = {
        "n": ci.n,
        "vars": list(ci.vars),
        "relations": [_rel_obj(r) for r in ci.relations],
    }
    extras = {}
    if ci.binary_var is not None:
        extras["binary_var"] = ci.binary_var
    if ci.card_bound is not None:
        extras["card_bound"] = ci.card_bound
    obj["extras"] = extras
    if ci.target is not None:
        obj["target"] = _rel_obj(ci.target)
    return obj


def _rel_from_obj(obj, field: str) -> tuple:
    if not (isinstance(obj, dict) and all(k in obj for k in "ABC")):
        raise CIError(f'{field}: {obj!r:.80} is not a relation {{"A", "B", "C"}}')
    return tuple(frozenset(parse_names(obj[k], f"{field}.{k}")) for k in "ABC")


def ci_from_obj(obj: dict) -> CISystem:
    if not (isinstance(obj, dict) and isinstance(obj.get("vars"), list)
            and isinstance(obj.get("relations"), list)):
        raise CIError('not a CI system: expected {"vars": [...], "relations": [...]}')
    try:
        extras = obj.get("extras", {})
        if not isinstance(extras, dict):
            raise CIError(f"extras: {extras!r:.80} is not an object")
        binary_var, card_bound = extras.get("binary_var"), extras.get("card_bound")
        if not (binary_var is None or isinstance(binary_var, str)):
            raise CIError(f"extras.binary_var: {binary_var!r:.80} is not a variable name")
        if not (card_bound is None or type(card_bound) is int):
            raise CIError(f"extras.card_bound: {card_bound!r:.80} is not an integer")
        return CISystem(
            list(parse_names(obj["vars"], "vars")),
            [_rel_from_obj(r, f"relation {i}") for i, r in enumerate(obj["relations"])],
            binary_var=binary_var,
            card_bound=card_bound,
            target=_rel_from_obj(obj["target"], "target") if "target" in obj else None,
        )
    except ValueError as exc:
        raise CIError(f"CI system {exc}") from None


def ci_dumps(ci: CISystem) -> str:
    return json.dumps(ci_to_obj(ci), separators=(",", ":")) + "\n"


def ci_loads(text: str) -> CISystem:
    return ci_from_obj(json.loads(text))


# --- bound-pair recovery ---


def _card_from_bounds(lo: Fraction, hi: Fraction) -> int:
    for a in range(2, MAX_CARD_SCAN + 1):
        alpha = pick_alpha(a)
        if alpha == lo:
            if pick_alpha(a + 1) != hi:
                break
            return a
        if alpha > lo:
            break
    raise CIError(f"bounds [{lo}, {hi}] do not match any cardinality window")


def _collect_bound_pairs(cs: ConstraintSystem) -> dict[str, int]:
    """The cardinality of each bounded variable; an identical repeated bound is one bound."""
    lows: dict[str, Fraction] = {}
    highs: dict[str, Fraction] = {}
    for row in cs.rows:
        if row.ci is not None:
            continue
        (vs, _), = row.lhs.sorted_terms()
        (name,) = tuple(vs)
        side = lows if row.rel == REL_GE else highs
        if side.setdefault(name, row.rhs) != row.rhs:
            raise CIError(f"variable {name} carries two {row.rel} bounds: {side[name]} and {row.rhs}")
    if set(lows) != set(highs):
        raise CIError("unpaired cardinality bounds")
    return {name: _card_from_bounds(lows[name], highs[name]) for name in sorted(lows)}


ANCHOR = "BIT"


def to_ci_only(cs: ConstraintSystem) -> CISystem:
    """Rewrite a lint-clean system into pure CI relations plus one fair bit.

    Every uniform-cardinality bound pair becomes a chain of power and
    comparison gadgets against the designated anchor variable; cardinality 2
    reduces to a single same-cardinality block against the anchor.
    """
    lint_system(cs)
    bounds = _collect_bound_pairs(cs)
    if ANCHOR in cs.all_vars():
        raise CIError(f"anchor name {ANCHOR} already taken")
    b = SystemBuilder([ANCHOR] + cs.all_vars())
    audit = []
    for i, (name, card) in enumerate(sorted(bounds.items()), start=1):
        path = f"ci{i}"
        if card == 2:
            b.unif_eq(name, ANCHOR, path)
            audit.append(("bound", name, card, "same-cardinality block against the anchor"))
            continue
        u = b.fresh(path, "U")
        b.unif(u, f"{path}.unifu")
        b.unif_eq(u, ANCHOR, f"{path}.anchor")
        pk, qk = pick_log_bounds(card)
        pk1, qk1 = pick_log_bounds(card + 1)
        v1 = b.fresh(path, "V1")
        w1 = b.fresh(path, "W1")
        v2 = b.fresh(path, "V2")
        w2 = b.fresh(path, "W2")
        b.pow(u, v1, pk, f"{path}.pow_uv1")
        b.pow(name, w1, qk, f"{path}.pow_yw1")
        b.le(v1, w1, f"{path}.le1")
        b.pow(u, v2, pk1, f"{path}.pow_uv2")
        b.pow(name, w2, qk1, f"{path}.pow_yw2")
        b.le(w2, v2, f"{path}.le2")
        audit.append(("bound", name, card, f"power chain with exponents {(pk, qk)} and {(pk1, qk1)}"))
    relations = [row.ci for row in cs.rows if row.ci is not None]
    extra_rows = b.system().rows
    assert all(r.ci is not None for r in extra_rows), "rewrite must emit CI rows only"
    relations += [r.ci for r in extra_rows]
    out = CISystem(
        [ANCHOR] + cs.all_vars() + b.exist,
        relations,
        binary_var=ANCHOR,
        audit=audit,
    )
    return out


CARD_VAR = "CARD"


def to_cardinality_implication(ci: CISystem, r: int) -> CISystem:
    """The implication instance: relations and card <= r force zero entropy.

    Built from a fair-bit instance by the three-step equivalence: negate the
    existential, pad with a power copy plus the at-most-2-given-at-most-3
    block (both redundant under the fair-bit hypothesis), then drop the
    fair-bit hypothesis, which the padding makes removable.
    """
    if r < 2:
        raise CIError("cardinality bound must be at least 2")
    if ci.binary_var is None or ci.card_bound is not None:
        raise CIError("input must carry a designated fair bit and no cardinality bound")
    if CARD_VAR in ci.vars:
        raise CIError(f"name {CARD_VAR} already taken")
    llog = r.bit_length() - 1  # floor(log2 r)
    assert r < 4**llog, "sanity: r**(1/floor(log2 r)) < 4"
    b = SystemBuilder(ci.vars + [CARD_VAR])
    b.pow(ci.binary_var, CARD_VAR, llog, "card.pow")
    b.unif_le2_le3(ci.binary_var, "card.le23")
    extra_rows = b.system().rows
    assert all(row.ci is not None for row in extra_rows)
    audit = list(ci.audit)
    audit.append(("a", "negated existential: relations and fair bit imply zero entropy"))
    audit.append(
        ("b", f"padded with power copy (exponent {llog}) and the le2-given-le3 block, both "
              f"redundant under the fair-bit hypothesis")
    )
    if llog > 1:
        audit.append(
            ("c", f"dropped the fair-bit hypothesis; card <= {r} forces base cardinality below 4 "
                  f"(exact check: {r} < 4**{llog} = {4 ** llog})")
        )
    else:
        audit.append(("c", f"dropped the fair-bit hypothesis; card <= {r} < 4 directly"))
    return CISystem(
        [CARD_VAR] + ci.vars + b.exist,
        list(ci.relations) + [row.ci for row in extra_rows],
        binary_var=CARD_VAR,
        card_bound=r,
        target=(frozenset([CARD_VAR]), frozenset([CARD_VAR]), frozenset()),
        audit=audit,
    )


# --- disjointification ---


def _disjoint_core(ci: CISystem):
    """The tripled-family construction shared by the disjoint rewrites."""
    n = ci.n
    if n < 2:
        raise CIError("disjointification needs at least 2 variables")
    if ci.target is None:
        raise CIError("disjointification needs a target relation")
    pos = {name: i + 1 for i, name in enumerate(ci.vars)}
    ys = [f"Y{i}" for i in range(1, 3 * n + 1)]
    zs = [f"Z{i}" for i in range(1, 3 * n + 1)]
    b = SystemBuilder(ys + zs)
    eqres_aux = []
    for i in range(1, 2 * n + 1):
        b.eqres(f"Y{i}", f"Z{i}", f"Y{i + n}", f"Z{i + n}", f"dj.eq{i}")
        eqres_aux.append((f"dj.eq{i}.U1", f"dj.eq{i}.U2", i))
    relations = [row.ci for row in b.system().rows]
    for i in range(1, 3 * n + 1):
        rest = frozenset(v for j in range(1, 3 * n + 1) if j != i for v in (f"Y{j}", f"Z{j}"))
        relations.append((frozenset([f"Y{i}"]), rest, frozenset([f"Z{i}"])))
        relations.append((frozenset([f"Z{i}"]), rest, frozenset([f"Y{i}"])))

    def translate(rel):
        a, bb, c = rel
        return (
            frozenset(f"Y{pos[v]}" for v in a),
            frozenset(f"Y{pos[v] + n}" for v in bb),
            frozenset(f"Y{pos[v] + 2 * n}" for v in c),
        )

    for rel in ci.relations:
        relations.append(translate(rel))
    return ys, zs, b.exist, relations, translate, eqres_aux


def disjointify(ci: CISystem) -> CISystem:
    """Express a non-disjoint implication instance with disjoint relations only."""
    if ci.binary_var is not None or ci.card_bound is not None:
        raise CIError("disjointify takes a plain implication instance without extras")
    ys, zs, aux, relations, translate, eqres_aux = _disjoint_core(ci)
    out = CISystem(
        ys + zs + aux,
        relations,
        target=translate(ci.target),
        meta={"eqres_aux": eqres_aux, "n_base": ci.n, "base_vars": list(ci.vars)},
    )
    if not out.all_disjoint():
        raise CIError("internal error: emitted a non-disjoint relation")
    return out


def binary_implication_instance(ci: CISystem, r: int) -> CISystem:
    """Disjoint implication instance with a cardinality bound on the first copy.

    The consequent 'the designated variable has zero entropy' becomes the
    independence of its two resolving halves, and the cardinality bound
    carries over to the first half, of which the original is a function.
    """
    if r < 2:
        raise CIError("cardinality bound must be at least 2")
    if ci.binary_var is None or ci.card_bound != r:
        raise CIError("input must come from the cardinality-implication rewrite")
    if ci.vars[0] != ci.binary_var:
        raise CIError("designated variable must be first")
    ys, zs, aux, relations, translate, eqres_aux = _disjoint_core(ci)
    audit = list(ci.audit)
    audit.append(("consequent", "zero entropy of the designated variable becomes I(Y1;Z1)=0"))
    audit.append(("card", f"cardinality bound {r} carries to Y1 (the original is a function of it)"))
    out = CISystem(
        ys + zs + aux,
        relations,
        binary_var="Y1",
        card_bound=r,
        target=(frozenset(["Y1"]), frozenset(["Z1"]), frozenset()),
        audit=audit,
        meta={"eqres_aux": eqres_aux, "n_base": ci.n, "base_vars": list(ci.vars)},
    )
    if not out.all_disjoint():
        raise CIError("internal error: emitted a non-disjoint relation")
    return out


def canonical_disjoint_extension(base_joint, base_vars: list[str], out: CISystem):
    """Extend a joint over the base variables to the disjoint family.

    Sets Y_i = Z_i = X_((i-1) mod n)+1 and both resolving auxiliaries of each
    equality block to the shared base variable, which satisfies every emitted
    relation whenever the base joint satisfies the input relations.
    """
    from .joint import Variable

    n = out.meta["n_base"]
    pairs = [(i, f"{side}{i}") for i in range(1, 3 * n + 1) for side in "YZ"]
    pairs += [(i, u) for u1, u2, i in out.meta["eqres_aux"] for u in (u1, u2)]
    variables = []
    for i, dst in pairs:
        src = base_joint.var(base_vars[(i - 1) % n])
        variables.append(Variable(dst, src.seeds, src.table, src.inputs))
    return base_joint.extend([], variables)
