import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from infotile.compiler import flatten, slackify
from infotile.expressions import (
    RELATIONS,
    AffineConstraint,
    InfoExpr,
    ci_expr,
    expr_from_obj,
    expr_to_obj,
    parse_rational,
)
from infotile.joint import eval_expression
from infotile.systems import ConstraintSystem

from conftest import random_joint


def H(*names):
    return InfoExpr.entropy(names)


def test_ci_expr_mutual_information():
    # I(X;Y) = H(X) + H(Y) - H(XY)
    assert ci_expr({"X"}, {"Y"}) == H("X") + H("Y") - H("X", "Y")


def test_ci_expr_self_information_is_conditional_entropy():
    # I(X;X|Z) = H(X|Z): the overlapping sets collapse to H(XZ) - H(Z)
    assert ci_expr({"X"}, {"X"}, {"Z"}) == H("X", "Z") - H("Z")


def test_ci_expr_conditional():
    expr = ci_expr({"X"}, {"Y"}, {"Z"})
    assert expr == H("X", "Z") + H("Y", "Z") - H("X", "Y", "Z") - H("Z")


def test_empty_set_terms_dropped():
    expr = ci_expr({"X"}, {"Y"}, set())
    assert frozenset() not in expr.terms
    assert InfoExpr.entropy([]) == InfoExpr()


def test_zero_coefficients_removed():
    expr = H("X") - H("X")
    assert not expr.terms
    assert expr == InfoExpr()


def test_scaling_and_negation():
    expr = 2 * H("X") - H("Y") * 3
    assert expr.terms[frozenset({"X"})] == 2
    assert (-expr).terms[frozenset({"Y"})] == 3
    assert (expr * Fraction(1, 2)).terms[frozenset({"X"})] == 1


def test_rename():
    expr = ci_expr({"A"}, {"B"})
    renamed = expr.rename({"A": "B"})
    # I(B;B) = H(B) + H(B) - H(B) = H(B)
    assert renamed == H("B")


def test_serialization_round_trip_and_order_independence():
    expr = ci_expr({"X"}, {"Y"}, {"Z"}) + Fraction(5, 3) * H("W")
    obj = expr_to_obj(expr)
    assert expr_from_obj(obj) == expr
    sets = [tuple(t["set"]) for t in obj]
    assert sets == sorted(sets)


def test_constraint_validation():
    with pytest.raises(ValueError):
        AffineConstraint(H("X"), ">", Fraction(1))


@given(st.integers(0, 10_000), st.integers(-5, 5), st.integers(-5, 5))
def test_eval_linearity(seed, a, b):
    rng = random.Random(seed)
    joint = random_joint(rng)
    names = joint.var_names()
    rng2 = random.Random(seed + 1)
    p = ci_expr(
        {rng2.choice(names)}, {rng2.choice(names)}, {rng2.choice(names)}
    )
    q = InfoExpr.entropy([rng2.choice(names)])
    lhs = eval_expression(joint, a * p + b * q)
    rhs = a * eval_expression(joint, p) + b * eval_expression(joint, q)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(a) + abs(b))


# --- the trusted fast paths against a naive dict-of-Fraction model ---

NAMES = ("A", "B", "C", "D")
name_sets = st.frozensets(st.sampled_from(NAMES), max_size=3)
coefs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# few names and small sets, so that terms often coincide and cancel
exprs = st.dictionaries(name_sets, coefs, max_size=5).map(InfoExpr)


def naive(*pairs):
    """The sum of (set, coefficient) pairs through the public constructor."""
    total = {}
    for vs, c in pairs:
        total[vs] = total.get(vs, Fraction(0)) + c
    return InfoExpr(total)


def canonical(expr):
    return sorted(expr.terms.items(), key=lambda kv: sorted(kv[0]))


@settings(max_examples=100, deadline=None)
@given(exprs, exprs, coefs)
def test_fast_paths_match_naive_model(p, q, s):
    results = {
        "+": (p + q, naive(*p.terms.items(), *q.terms.items())),
        "-": (p - q, naive(*p.terms.items(), *((vs, -c) for vs, c in q.terms.items()))),
        "neg": (-p, naive(*((vs, -c) for vs, c in p.terms.items()))),
        "*": (p * s, naive(*((vs, c * s) for vs, c in p.terms.items()))),
        "p - p": (p - p, InfoExpr()),
        "(p + q) - q": ((p + q) - q, p),
    }
    for op, (fast, model) in results.items():
        assert fast == model, op
        assert list(fast.sorted_terms()) == canonical(model), op
        assert all(type(c) is Fraction and c != 0 and vs for vs, c in fast.terms.items()), op


@settings(max_examples=150, deadline=None)
@given(name_sets, name_sets, name_sets)
def test_ci_expr_matches_naive_model(a, b, c):
    one = Fraction(1)
    model = naive(*((vs, k) for vs, k in
                    ((a | c, one), (b | c, one), (a | b | c, -one), (c, -one)) if vs))
    fast = ci_expr(a, b, c)
    assert fast == model and list(fast.sorted_terms()) == canonical(model)
    assert ci_expr(a, a, c) == naive(*((vs, k) for vs, k in ((a | c, one), (c, -one)) if vs))


# "_slack1" sorts after "A" and "B" but before "a" and "b"
ROW_NAMES = ("A", "B", "a", "b")
row_exprs = st.dictionaries(st.frozensets(st.sampled_from(ROW_NAMES), max_size=3), coefs,
                            max_size=5).map(InfoExpr)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(row_exprs, st.sampled_from(RELATIONS)), max_size=4))
def test_negation_and_slack_rows_keep_canonical_order(rows):
    cs = ConstraintSystem(list(ROW_NAMES), [],
                          [AffineConstraint(e, rel, 0, f"r{i}") for i, (e, rel) in enumerate(rows)])
    flat = flatten(cs)
    kept = [r for r in flat.rows if r.tag.endswith((":neg", ":le"))] + slackify(flat).rows
    for row in kept:
        order = row.lhs._sorted
        assert order is not None, row.tag  # worked out when the row was built
        assert list(order) == canonical(row.lhs) and dict(order) == row.lhs.terms, row.tag


@settings(max_examples=100, deadline=None)
@given(exprs)
def test_json_round_trip(expr):
    back = expr_from_obj(expr_to_obj(expr))
    assert back == expr and back.sorted_terms() == expr.sorted_terms()


rational_texts = st.one_of(
    st.fractions().map(str),
    st.integers().map(str),
    st.text(alphabet="0123456789/-+. e_", max_size=8),
)


@settings(max_examples=150, deadline=None)
@given(rational_texts)
def test_parse_rational_agrees_with_fraction(text):
    try:
        value = parse_rational(text)
    except ValueError:
        with pytest.raises((ValueError, ZeroDivisionError)):
            Fraction(text)
    else:
        assert value == Fraction(text)


@pytest.mark.parametrize("bad", [True, 1.0, "1/0", "x"])
def test_parse_rational_refuses_inexact_and_malformed(bad):
    with pytest.raises(ValueError, match="coef"):
        parse_rational(bad, "coef")


def test_parse_rational_accepts_json_integers():
    assert parse_rational(-4) == -4 and parse_rational(2**70) == 2**70
