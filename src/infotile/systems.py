"""Constraint systems: named variables plus affine rows over their entropies.

A system is the machine form of an existential predicate: free variables,
existentially quantified variables, and a list of rows each of which is
either a conditional-independence identity (= 0) or an affine bound on a
single entropy.  The lint enforces that no other row shape occurs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .expressions import (
    REL_EQ,
    REL_GE,
    REL_LE,
    AffineConstraint,
    ci_expr,
    expr_to_obj,
    frac_str,
    parse_names,
    row_fields_from_obj,
)


class SystemError(ValueError):
    pass


class LintError(SystemError):
    pass


@dataclass
class ConstraintSystem:
    free_vars: list[str]
    existential_vars: list[str]
    rows: list[AffineConstraint]
    manifest: dict | None = None

    def __post_init__(self):
        names = set(self.free_vars) | set(self.existential_vars)
        if len(names) != len(self.free_vars) + len(self.existential_vars):
            raise SystemError("free and existential names must be disjoint and unique")
        for row in self.rows:
            missing = row.variables() - names
            if missing:
                raise SystemError(f"row {row.tag!r} uses undeclared variables {sorted(missing)}")

    def all_vars(self) -> list[str]:
        return list(self.free_vars) + list(self.existential_vars)

    def rename(self, mapping: dict[str, str]) -> "ConstraintSystem":
        return ConstraintSystem(
            [mapping.get(n, n) for n in self.free_vars],
            [mapping.get(n, n) for n in self.existential_vars],
            [r.rename(mapping) for r in self.rows],
            manifest=self.manifest,
        )


def conjoin(p: ConstraintSystem, q: ConstraintSystem) -> ConstraintSystem:
    """Conjunction of two systems over a shared free-variable namespace.

    Existential names of `q` colliding with names of `p` are freshened.
    """
    for name in q.free_vars:
        if name in p.existential_vars:
            raise SystemError(f"free/existential mismatch on {name!r}")
    for name in p.free_vars:
        if name in q.existential_vars:
            raise SystemError(f"free/existential mismatch on {name!r}")
    taken = set(p.all_vars())
    mapping = {}
    for name in q.existential_vars:
        if name in taken:
            i = 2
            while f"{name}~{i}" in taken:
                i += 1
            mapping[name] = f"{name}~{i}"
        taken.add(mapping.get(name, name))
    q2 = q.rename(mapping) if mapping else q
    free = list(p.free_vars) + [n for n in q2.free_vars if n not in p.free_vars]
    exist = list(p.existential_vars) + list(q2.existential_vars)
    return ConstraintSystem(free, exist, list(p.rows) + list(q2.rows))


def exists_extend(p: ConstraintSystem, new_vars, extra: list[AffineConstraint]) -> ConstraintSystem:
    """Quantify `new_vars` existentially and append `extra` rows.

    Names in `new_vars` may be free variables of `p` (they are moved into
    the existential set) or fresh names introduced by the extra rows.
    """
    new_vars = list(new_vars)
    for name in new_vars:
        if name in p.existential_vars:
            raise SystemError(f"{name!r} is already existentially bound")
    free = [n for n in p.free_vars if n not in new_vars]
    exist = list(p.existential_vars) + new_vars
    return ConstraintSystem(free, exist, list(p.rows) + list(extra))


def lint_system(cs: ConstraintSystem) -> None:
    """Reject any row that is not a CI identity or a single-entropy bound."""
    for row in cs.rows:
        if row.ci is not None:
            a, b, c = row.ci
            if row.rel != REL_EQ or row.rhs != 0:
                raise LintError(f"row {row.tag!r}: CI rows must be '= 0'")
            if ci_expr(a, b, c) != row.lhs:
                raise LintError(f"row {row.tag!r}: lhs does not match its CI triple")
            continue
        terms = row.lhs.sorted_terms()
        if (
            len(terms) == 1
            and len(terms[0][0]) == 1
            and terms[0][1] == 1
            and row.rel in (REL_GE, REL_LE)
        ):
            continue
        raise LintError(f"row {row.tag!r}: not a CI row or single-entropy bound")


def is_lint_clean(cs: ConstraintSystem) -> bool:
    try:
        lint_system(cs)
        return True
    except LintError:
        return False


def canonicalize_existentials(cs: ConstraintSystem) -> ConstraintSystem:
    """Alpha-rename existential variables to positional names (for equality tests)."""
    mapping = {n: f"_e{i}" for i, n in enumerate(cs.existential_vars)}
    return cs.rename(mapping)


# --- serialization ---


def row_to_obj(row: AffineConstraint) -> dict:
    obj = {
        "lhs": expr_to_obj(row.lhs),
        "rel": row.rel,
        "rhs": frac_str(row.rhs),
        "tag": row.tag,
    }
    if row.ci is not None:
        a, b, c = row.ci
        obj["ci"] = {"A": sorted(a), "B": sorted(b), "C": sorted(c)}
    return obj


def row_from_obj(obj: dict) -> AffineConstraint:
    lhs, rel, rhs, tag = row_fields_from_obj(obj)
    ci = None
    if "ci" in obj:
        triple = obj["ci"]
        if not (isinstance(triple, dict) and all(k in triple for k in "ABC")):
            raise ValueError(f'ci: {triple!r:.80} is not a triple {{"A", "B", "C"}}')
        ci = tuple(frozenset(parse_names(triple[k], f"ci.{k}")) for k in "ABC")
    return AffineConstraint(lhs, rel, rhs, tag, ci)


def system_to_obj(cs: ConstraintSystem) -> dict:
    obj = {
        "free": list(cs.free_vars),
        "exists": list(cs.existential_vars),
        "rows": [row_to_obj(r) for r in cs.rows],
    }
    if cs.manifest is not None:
        obj["manifest"] = cs.manifest
    return obj


def system_from_obj(obj: dict) -> ConstraintSystem:
    if not (isinstance(obj, dict)
            and all(isinstance(obj.get(k), list) for k in ("free", "exists", "rows"))):
        raise SystemError(
            'not a constraint system: expected {"free": [...], "exists": [...], "rows": [...]}')
    rows = []
    for i, r in enumerate(obj["rows"]):
        try:
            rows.append(row_from_obj(r))
        except ValueError as exc:
            raise SystemError(f"constraint system row {i}: {exc}") from None
    return ConstraintSystem(
        list(parse_names(obj["free"], "constraint system free")),
        list(parse_names(obj["exists"], "constraint system exists")),
        rows,
        manifest=obj.get("manifest"),
    )


def system_dumps(cs: ConstraintSystem) -> str:
    return json.dumps(system_to_obj(cs), separators=(",", ":")) + "\n"


def system_loads(text: str) -> ConstraintSystem:
    return system_from_obj(json.loads(text))
