"""Rational-coefficient linear expressions over joint entropy terms.

A term is H(S) for a nonempty set S of variable names.  Coefficients are
exact `fractions.Fraction` values.  The empty set never appears in a stored
expression: H(emptyset) = 0 by convention, so such terms are dropped at
construction time.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

VarSet = frozenset  # frozenset[str]

REL_GE = ">="
REL_EQ = "="
REL_LE = "<="
RELATIONS = (REL_GE, REL_EQ, REL_LE)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@lru_cache(maxsize=256)
def _parse(x) -> Fraction:
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None


def parse_rational(x, field: str = "value") -> Fraction:
    """An exact rational read from JSON: a string such as "3/2" or "-4", or an integer.

    Floats (inexact) and booleans are refused with a ValueError naming
    `field`.  Parses are memoized in a small bounded cache: a system file
    repeats a handful of distinct coefficients thousands of times.
    """
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        try:
            return _parse(x)
        except ValueError as exc:
            raise ValueError(f"{field}: {exc}") from None
    raise ValueError(f'{field}: {x!r:.80} is not an exact rational (give a "p/q" string or an integer)')


def parse_names(x, field: str) -> list:
    """A JSON list of variable names, checked to be one."""
    if isinstance(x, list) and set(map(type, x)) <= {str}:
        return x
    raise ValueError(f"{field}: {x!r:.80} is not a list of variable names")


def varset_key(vs: VarSet) -> tuple:
    """Canonical sort key for a VarSet (lexicographic on sorted names)."""
    return tuple(sorted(vs))


def _merged(base: Mapping, items) -> dict:
    """A copy of `base` with each (set, coefficient) of `items` added; zero sums dropped."""
    out = dict(base)
    for vs, c in items:
        prev = out.get(vs)
        if prev is None:
            out[vs] = c
        else:
            c += prev
            if c:
                out[vs] = c
            else:
                del out[vs]
    return out


class InfoExpr:
    """A finite rational linear combination of joint-entropy terms.

    Immutable by convention.  Zero-coefficient and empty-set terms are
    removed, so two expressions are equal iff they are the same function
    of the underlying entropies.  The canonical term order is worked out
    on first use and kept on the instance.
    """

    __slots__ = ("terms", "_sorted")

    def __init__(self, terms: Mapping[VarSet, Fraction] | None = None):
        clean = {}
        if terms:
            for vs, c in terms.items():
                c = frac(c)
                if c != 0 and vs:
                    clean[frozenset(vs)] = c
        self.terms = clean
        self._sorted = None

    @classmethod
    def _of(cls, terms: dict, sorted_terms: tuple | None = None) -> "InfoExpr":
        """Wrap a term dict that is already clean: frozenset keys, nonzero
        `Fraction` values, no empty set.  `sorted_terms`, when given, is its
        canonical order, already worked out."""
        expr = object.__new__(cls)
        expr.terms = terms
        expr._sorted = sorted_terms
        return expr

    @staticmethod
    def entropy(names: Iterable[str]) -> "InfoExpr":
        """H(S) as an expression."""
        vs = frozenset(names)
        return InfoExpr._of({vs: _ONE} if vs else {})

    def __add__(self, other: "InfoExpr") -> "InfoExpr":
        return InfoExpr._of(_merged(self.terms, other.terms.items()))

    def __sub__(self, other: "InfoExpr") -> "InfoExpr":
        return InfoExpr._of(_merged(self.terms, ((vs, -c) for vs, c in other.terms.items())))

    def __neg__(self) -> "InfoExpr":
        # negation keeps the canonical order: it is worked out at most once
        neg = tuple((vs, -c) for vs, c in self.sorted_terms())
        return InfoExpr._of(dict(neg), neg)

    def __mul__(self, scalar) -> "InfoExpr":
        s = frac(scalar)
        return InfoExpr._of({vs: c * s for vs, c in self.terms.items()} if s else {})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, InfoExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def variables(self) -> VarSet:
        return frozenset().union(*self.terms)

    def rename(self, mapping: Mapping[str, str]) -> "InfoExpr":
        out = {}
        for vs, c in self.terms.items():
            nvs = frozenset(mapping.get(n, n) for n in vs)
            out[nvs] = out.get(nvs, Fraction(0)) + c
        return InfoExpr(out)

    def sorted_terms(self) -> tuple[tuple[VarSet, Fraction], ...]:
        """The (set, coefficient) terms in canonical order (by sorted names),
        worked out on first use and kept."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.terms.items(), key=lambda kv: varset_key(kv[0])))
        return self._sorted

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
    ac, bc = a | c, b | c
    terms = ((ac, _ONE), (bc, _ONE), (ac | b, _MINUS_ONE), (c, _MINUS_ONE))
    return InfoExpr._of(_merged({}, (t for t in terms if t[0])))


@dataclass(frozen=True, slots=True)
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
        if not isinstance(self.rhs, Fraction):
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

    @property
    def entries(self) -> tuple:
        # read by benchmark/tracing.py on the rows of what goes into refuter.refute
        return self.lhs.sorted_terms()


def ci_row(a, b, c, tag: str) -> AffineConstraint:
    """I(A;B|C) = 0 as a constraint row."""
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    return AffineConstraint(ci_expr(a, b, c), REL_EQ, _ZERO, tag, ci=(a, b, c))


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
    return [{"coef": str(c), "set": sorted(vs)} for vs, c in expr.sorted_terms()]


def expr_from_obj(obj) -> InfoExpr:
    """Read a list of {"coef", "set"} terms; repeated sets are summed."""
    if not isinstance(obj, list):
        raise ValueError(f'lhs: {obj!r:.80} is not a list of {{"coef", "set"}} terms')
    terms = {}
    for item in obj:
        if not (isinstance(item, dict) and "coef" in item and "set" in item):
            raise ValueError(f'lhs: {item!r:.80} is not a {{"coef", "set"}} term')
        coef = parse_rational(item["coef"], "coef")
        vs = frozenset(parse_names(item["set"], "set"))
        if vs:
            terms[vs] = terms[vs] + coef if vs in terms else coef
    if not all(terms.values()):
        terms = {vs: c for vs, c in terms.items() if c}
    return InfoExpr._of(terms)


def row_fields_from_obj(obj) -> tuple[InfoExpr, str, Fraction, str]:
    """The lhs, rel, rhs and tag of a JSON row {"lhs", "rel", "rhs", "tag"?}, each checked."""
    if not (isinstance(obj, dict) and all(k in obj for k in ("lhs", "rel", "rhs"))):
        raise ValueError(f'{obj!r:.80} is not a row {{"lhs", "rel", "rhs", ...}}')
    rel, tag = obj["rel"], obj.get("tag", "")
    if rel not in RELATIONS:
        raise ValueError(f"bad relation {rel!r:.80}")
    if not isinstance(tag, str):
        raise ValueError(f"tag: {tag!r:.80} is not a string")
    return expr_from_obj(obj["lhs"]), rel, parse_rational(obj["rhs"], "rhs"), tag
