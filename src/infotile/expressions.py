"""Rational-coefficient linear expressions over joint entropy terms.

A term is H(S) for a nonempty set S of variable names.  Coefficients are
exact `fractions.Fraction` values.  The empty set never appears in a stored
expression: H(emptyset) = 0 by convention, so such terms are dropped at
construction time.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

VarSet = frozenset  # frozenset[str]

REL_GE = ">="
REL_EQ = "="
REL_LE = "<="
RELATIONS = (REL_GE, REL_EQ, REL_LE)


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def varset_key(vs: VarSet) -> tuple:
    """Canonical sort key for a VarSet (lexicographic on sorted names)."""
    return tuple(sorted(vs))


class InfoExpr:
    """A finite rational linear combination of joint-entropy terms.

    Immutable by convention.  Zero-coefficient and empty-set terms are
    removed, so two expressions are equal iff they are the same function
    of the underlying entropies.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[VarSet, Fraction] | None = None):
        clean = {}
        if terms:
            for vs, c in terms.items():
                c = frac(c)
                if c != 0 and vs:
                    clean[frozenset(vs)] = c
        self.terms = clean

    @staticmethod
    def entropy(names: Iterable[str]) -> "InfoExpr":
        """H(S) as an expression."""
        vs = frozenset(names)
        if not vs:
            return InfoExpr()
        return InfoExpr({vs: Fraction(1)})

    def __add__(self, other: "InfoExpr") -> "InfoExpr":
        out = dict(self.terms)
        for vs, c in other.terms.items():
            out[vs] = out.get(vs, Fraction(0)) + c
        return InfoExpr(out)

    def __sub__(self, other: "InfoExpr") -> "InfoExpr":
        return self + (-other)

    def __neg__(self) -> "InfoExpr":
        return InfoExpr({vs: -c for vs, c in self.terms.items()})

    def __mul__(self, scalar) -> "InfoExpr":
        s = frac(scalar)
        return InfoExpr({vs: c * s for vs, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, InfoExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def variables(self) -> VarSet:
        out = set()
        for vs in self.terms:
            out |= vs
        return frozenset(out)

    def rename(self, mapping: Mapping[str, str]) -> "InfoExpr":
        out = {}
        for vs, c in self.terms.items():
            nvs = frozenset(mapping.get(n, n) for n in vs)
            out[nvs] = out.get(nvs, Fraction(0)) + c
        return InfoExpr(out)

    def sorted_terms(self) -> list[tuple[VarSet, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: varset_key(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "InfoExpr(0)"
        bits = []
        for vs, c in self.sorted_terms():
            bits.append(f"{c}*H({{{','.join(sorted(vs))}}})")
        return "InfoExpr(" + " + ".join(bits) + ")"


def ci_expr(a: Iterable[str], b: Iterable[str], c: Iterable[str] = ()) -> InfoExpr:
    """I(A;B|C) as an entropy expression: H(AC) + H(BC) - H(ABC) - H(C).

    The sets may overlap; the identity remains valid (for example
    I(X;X|Z) = H(X|Z)).  Evaluates to zero on a joint distribution exactly
    when the conditional independence holds.
    """
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    return (
        InfoExpr.entropy(a | c)
        + InfoExpr.entropy(b | c)
        - InfoExpr.entropy(a | b | c)
        - InfoExpr.entropy(c)
    )


@dataclass(frozen=True)
class AffineConstraint:
    """A row `lhs rel rhs` with exact rational lhs coefficients and rhs.

    `ci` carries the (A, B, C) triple when the row was built as a
    conditional-independence identity; it is redundant with lhs but kept so
    downstream rewriters can recover the relation without pattern matching.
    """

    lhs: InfoExpr
    rel: str
    rhs: Fraction
    tag: str = ""
    ci: tuple[VarSet, VarSet, VarSet] | None = None

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ValueError(f"bad relation {self.rel!r}")
        object.__setattr__(self, "rhs", frac(self.rhs))
        if self.ci is not None:
            a, b, c = self.ci
            object.__setattr__(
                self, "ci", (frozenset(a), frozenset(b), frozenset(c))
            )

    def rename(self, mapping: Mapping[str, str]) -> "AffineConstraint":
        ci = None
        if self.ci is not None:
            ci = tuple(frozenset(mapping.get(n, n) for n in s) for s in self.ci)
        return AffineConstraint(self.lhs.rename(mapping), self.rel, self.rhs, self.tag, ci)

    def variables(self) -> VarSet:
        return self.lhs.variables()


def ci_row(a, b, c, tag: str) -> AffineConstraint:
    """I(A;B|C) = 0 as a constraint row."""
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    return AffineConstraint(ci_expr(a, b, c), REL_EQ, Fraction(0), tag, ci=(a, b, c))


def hcond_row(a, c, tag: str) -> AffineConstraint:
    """H(A|C) = 0, encoded as I(A;A|C) = 0."""
    return ci_row(a, a, c, tag)


def indep_row(a, b, tag: str) -> AffineConstraint:
    """I(A;B) = 0."""
    return ci_row(a, b, (), tag)


def bound_row(name: str, rel: str, rhs, tag: str) -> AffineConstraint:
    """An affine cardinality-style bound on a single entropy: H({name}) rel rhs."""
    return AffineConstraint(InfoExpr.entropy([name]), rel, frac(rhs), tag)


# --- JSON helpers (shared by the system / sparse-system serializers) ---

def frac_str(x: Fraction) -> str:
    return str(frac(x))


def expr_to_obj(expr: InfoExpr) -> list[dict]:
    return [
        {"coef": frac_str(c), "set": sorted(vs)}
        for vs, c in expr.sorted_terms()
    ]


def expr_from_obj(obj) -> InfoExpr:
    terms = {}
    for item in obj:
        vs = frozenset(item["set"])
        terms[vs] = terms.get(vs, Fraction(0)) + Fraction(item["coef"])
    return InfoExpr(terms)
