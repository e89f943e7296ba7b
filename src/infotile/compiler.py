"""Compile a Wang tile set into a flat entropy constraint system.

The compiled system existentially quantifies a torus support (two cycle
pairs), a per-vertex color vector of switches, the switch observables, and
one fair coin, then conjoins the orientation and face constraints that make
satisfiability equivalent to periodic tileability.  Also here: flattening to
>=-form, the slack-variable equality form (both systems whose names are all
free, written as the sparse system format), and the emission of the three
canonical statement documents.
"""
from __future__ import annotations

import json
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction

from .expressions import (
    REL_EQ,
    REL_GE,
    REL_LE,
    AffineConstraint,
    InfoExpr,
    ci_row,
    expr_to_obj,
    frac_str,
    hcond_row,
    indep_row,
    parse_names,
    row_fields_from_obj,
    varset_key,
)
from .gadgets import BuildIndex, SystemBuilder
from .systems import ConstraintSystem, SystemError, lint_system, row_to_obj
from .tiling import TileSet

K_CAP = 13
_MINUS_ONE = Fraction(-1)


class CompileError(ValueError):
    pass


@dataclass(frozen=True)
class TtoriLayout:
    """Variable roster and face sets of a compiled instance."""

    k: int
    t_eff: int
    x: tuple[str, str]
    y: tuple[str, str]
    w: tuple[str, ...]
    v: tuple[str, ...]
    vb: tuple[str, ...]
    f: str
    c11: frozenset
    c22: frozenset


def effective_colors(ts: TileSet) -> int:
    """Pad below two colors so the color group count stays a multiple of 4."""
    return max(ts.num_colors, 2)


def k_for(ts: TileSet) -> int:
    t_eff = effective_colors(ts)
    k = 4 * t_eff + 1
    if k > K_CAP:
        raise CompileError(
            f"instance too large: {ts.num_colors} tile colors needs k={k} > cap {K_CAP}"
        )
    return k


def face_sets(ts: TileSet) -> tuple[frozenset, frozenset]:
    """Admissible absolute-color sets for the two even-face types."""
    c11 = frozenset(
        frozenset({4 * c1 - 3, 4 * c2 - 2, 4 * c3 - 1, 4 * c4}) for c1, c2, c3, c4 in ts.tiles
    )
    c22 = frozenset(
        frozenset({4 * c1 - 1, 4 * c2, 4 * c3 - 3, 4 * c4 - 2}) for c1, c2, c3, c4 in ts.tiles
    )
    return c11, c22


def ttori_layout(ts: TileSet) -> TtoriLayout:
    k = k_for(ts)
    c11, c22 = face_sets(ts)
    return TtoriLayout(
        k=k,
        t_eff=effective_colors(ts),
        x=("X1", "X2"),
        y=("Y1", "Y2"),
        w=tuple(f"W{i}" for i in range(1, k + 1)),
        v=tuple(f"V{i}" for i in range(1, k + 1)),
        vb=tuple(f"Vb{i}" for i in range(1, k + 1)),
        f="F",
        c11=c11,
        c22=c22,
    )


def compile_ttori_indexed(ts: TileSet) -> tuple[ConstraintSystem, BuildIndex, TtoriLayout]:
    """Compile and also return the build index used by the witness builder."""
    lay = ttori_layout(ts)
    b = SystemBuilder()
    for name in lay.x + lay.y + lay.w + lay.v + lay.vb + (lay.f,):
        b.declare(name)
    b.ttori(lay.x, lay.y, lay.w, lay.v, lay.vb, lay.f, lay.c11, lay.c22, "ttori")
    cs = b.system(with_manifest=True)
    lint_system(cs)
    return cs, b.index, lay


def compile_ttori(ts: TileSet) -> ConstraintSystem:
    """The tileability predicate of a tile set, as a constraint system."""
    cs, _, _ = compile_ttori_indexed(ts)
    return cs


# --- sparse affine form ---


def flatten(cs: ConstraintSystem) -> ConstraintSystem:
    """All rows in >=-form over the same names, every one free: equalities
    split in two, <= rows negated, >= rows kept as they are."""
    rows = []
    for r in cs.rows:
        if r.rel == REL_GE:
            rows.append(r if r.ci is None else AffineConstraint(r.lhs, REL_GE, r.rhs, r.tag))
        elif r.rel == REL_LE:
            rows.append(AffineConstraint(-r.lhs, REL_GE, -r.rhs, r.tag + ":neg"))
        else:
            rows.append(AffineConstraint(r.lhs, REL_GE, r.rhs, r.tag + ":ge"))
            rows.append(AffineConstraint(-r.lhs, REL_GE, -r.rhs, r.tag + ":le"))
    return ConstraintSystem(cs.all_vars(), [], rows)


def slack_name(j: int) -> str:
    """The slack variable of the j-th row (1-based) of a >=-form system."""
    return f"_slack{j}"


def slackify(sas: ConstraintSystem) -> ConstraintSystem:
    """Equality form: row_j >= rhs becomes row_j - H(S_j) = rhs, S_j fresh.

    Satisfiable iff the input is: a slack variable absorbs exactly the row's
    surplus entropy.
    """
    names = sas.all_vars()
    taken = set(names)
    rows = []
    for j, r in enumerate(sas.rows, start=1):
        if r.rel != REL_GE:
            raise SystemError("slackify expects a >=-form system (run flatten first)")
        slack = slack_name(j)
        if slack in taken:
            raise SystemError(f"slack name {slack} already taken")
        names.append(slack)
        # the fresh one-name set sorts among the others by its name alone
        terms = r.lhs.sorted_terms()
        at = bisect(terms, (slack,), key=lambda t: varset_key(t[0]))
        terms = (*terms[:at], (frozenset((slack,)), _MINUS_ONE), *terms[at:])
        rows.append(AffineConstraint(InfoExpr._of(dict(terms), terms), REL_EQ, r.rhs,
                                     r.tag + ":slack"))
    return ConstraintSystem(names, [], rows)


def sas_to_obj(sas: ConstraintSystem) -> dict:
    return {"vars": sas.all_vars(), "rows": [row_to_obj(r) for r in sas.rows]}


def sas_from_obj(obj: dict) -> ConstraintSystem:
    """A sparse system file, as a system whose names are all free."""
    if not (isinstance(obj, dict) and isinstance(obj.get("vars"), list)
            and isinstance(obj.get("rows"), list)):
        raise ValueError('not a sparse system: expected {"vars": [...], "rows": [...]}')
    rows = []
    for i, r in enumerate(obj["rows"]):
        try:
            rows.append(AffineConstraint(*row_fields_from_obj(r)))
        except ValueError as exc:
            raise SystemError(f"sparse system row {i}: {exc}") from None
    try:
        return ConstraintSystem(list(parse_names(obj["vars"], "vars")), [], rows)
    except ValueError as exc:
        raise SystemError(f"sparse system {exc}") from None


def sas_dumps(sas: ConstraintSystem) -> str:
    return json.dumps(sas_to_obj(sas), separators=(",", ":")) + "\n"


def sas_loads(text: str) -> ConstraintSystem:
    return sas_from_obj(json.loads(text))


# --- statement emission ---

EMIT_FORMS = ("cond-affine", "affine-subspace", "boolean")


class EmitError(ValueError):
    pass


def _set_name(vs) -> str:
    return "{" + ",".join(sorted(vs)) + "}"


def _aggregate_ci_rows(relations, role_var: str):
    """Sum the CI-row expressions (plus the uniformity rows of the role
    variable) into a single coefficient vector with a per-subset audit."""
    rows = []
    aux1, aux2 = f"{role_var}.unif.E1", f"{role_var}.unif.E2"
    rows.append(hcond_row([role_var], [aux1, aux2], "role.unif:h1|23"))
    rows.append(hcond_row([aux1], [role_var, aux2], "role.unif:h2|13"))
    rows.append(hcond_row([aux2], [role_var, aux1], "role.unif:h3|12"))
    rows.append(indep_row([role_var], [aux1], "role.unif:i12"))
    rows.append(indep_row([role_var], [aux2], "role.unif:i13"))
    rows.append(indep_row([aux1], [aux2], "role.unif:i23"))
    for i, (a, b, c) in enumerate(relations, start=1):
        rows.append(ci_row(a, b, c, f"rel{i}"))
    total = InfoExpr()
    audit = {}
    for row in rows:
        total = total + row.lhs
        for vs, coef in row.lhs.terms.items():
            audit.setdefault(vs, []).append({"row": row.tag, "coef": frac_str(coef)})
    extra_vars = [aux1, aux2]
    return total, audit, extra_vars


def _coeff_doc(total: InfoExpr, audit: dict) -> list[dict]:
    out = []
    for vs in sorted(set(total.terms) | set(audit), key=varset_key):
        entry = {
            "set": sorted(vs),
            "coef": frac_str(total.terms.get(vs, Fraction(0))),
            "sources": audit.get(vs, []),
        }
        if entry["coef"] != "0":
            out.append(entry)
        elif entry["sources"]:
            out.append(entry)  # cancelled coefficient, kept for the audit trail
    return out


def emit_statement(obj, form: str, role_var: str | None = None) -> dict:
    """Emit one of the three canonical statement documents.

    'cond-affine' and 'affine-subspace' take a CISystem (or anything with
    `.relations` and a designated binary variable); 'boolean' takes a
    ConstraintSystem, flattens it and negates each >= row into a strict
    reversed disjunct, so an equality row gives two.  Every emitted
    coefficient carries an audit trail back to its source rows.
    """
    if form not in EMIT_FORMS:
        raise EmitError(f"unknown form {form!r}")
    if form == "boolean":
        if not isinstance(obj, ConstraintSystem):
            raise EmitError("boolean form needs a constraint system")
        sas = flatten(obj)
        disjuncts = [
            {"a": expr_to_obj(-r.lhs), "rel": ">", "rhs": frac_str(-r.rhs), "source": r.tag}
            for r in sas.rows
        ]
        text = " OR ".join(
            f"[negation of {r.tag}: strict reverse]" for r in sas.rows
        )
        return {
            "form": "boolean",
            "vars": sas.all_vars(),
            "disjuncts": disjuncts,
            "text": "for all v in the entropic region: " + (text or "FALSE"),
        }

    if isinstance(obj, ConstraintSystem):
        if any(r.ci is None for r in obj.rows):
            raise EmitError(f"{form} form needs pure conditional-independence rows")
        relations = [r.ci for r in obj.rows]
        base_vars = obj.all_vars()
    else:
        relations = getattr(obj, "relations", None)
        if relations is None:
            raise EmitError(f"{form} form needs a conditional-independence system")
        base_vars = list(obj.var_names())
    role = role_var or getattr(obj, "binary_var", None)
    if role is None:
        raise EmitError("missing designated first-variable role")
    total, audit, extra = _aggregate_ci_rows(relations, role)
    doc = {
        "form": form,
        "vars": base_vars + extra,
        "role_var": role,
        "a": _coeff_doc(total, audit),
    }
    if form == "cond-affine":
        doc["condition"] = [
            {"kind": "linear", "rel": "<=", "rhs": "0"},
            {"kind": "entry", "set": [role], "rel": "<=", "rhs": "1"},
        ]
        doc["conclusion"] = {"kind": "entry", "set": [role], "rel": "=", "rhs": "0"}
        doc["text"] = (
            f"v entropic and a.v <= 0 and v_{_set_name([role])} <= 1 "
            f"implies v_{_set_name([role])} = 0"
        )
    else:
        doc["condition"] = [
            {"kind": "linear", "rel": "=", "rhs": "0"},
            {"kind": "entry", "set": [role], "rel": "=", "rhs": "1"},
        ]
        doc["text"] = (
            f"exists v entropic with a.v = 0 and v_{_set_name([role])} = 1"
        )
    return doc


def emit_dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"
