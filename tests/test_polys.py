"""Multivariate polynomial arithmetic: ring laws, calculus, gcd."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieode.polys import MPoly, divexact, gcd, try_divexact, var_rank

from conftest import rationals

X = MPoly.variable("x")
Y = MPoly.variable("y")


@st.composite
def mpolys(draw, names=("x", "y"), max_terms=4, max_exp=3):
    terms = draw(st.dictionaries(
        st.tuples(*(st.integers(0, max_exp),) * len(names)),
        rationals(), max_size=max_terms))
    return MPoly(names, terms)


# -- ring laws --------------------------------------------------------------------


@given(mpolys(), mpolys(), mpolys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MPoly.zero() == a
    assert a * MPoly.const(1) == a
    assert a - a == MPoly.zero()


@given(mpolys(), st.integers(0, 4))
def test_pow_is_repeated_product(a, k):
    expected = MPoly.const(1)
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected


def test_mixed_variable_alignment():
    # polynomials over different variable tuples combine correctly
    p = MPoly(("x",), {(1,): Fraction(1)})
    q = MPoly(("y",), {(1,): Fraction(1)})
    assert p + q == X + Y
    assert p * q == X * Y


# -- calculus ---------------------------------------------------------------------


@given(mpolys(), mpolys())
def test_derivative_product_rule(a, b):
    lhs = (a * b).derivative("x")
    rhs = a.derivative("x") * b + a * b.derivative("x")
    assert lhs == rhs


@given(mpolys())
def test_derivative_kills_missing_variable(a):
    assert a.derivative("z").is_zero()


def test_derivative_oracle():
    # d/dx (x^2 y + 3 x) = 2 x y + 3  [TRIVIAL]
    p = X * X * Y + 3 * X
    assert p.derivative("x") == 2 * X * Y + MPoly.const(3)


@given(mpolys(), rationals(), rationals())
def test_eval_matches_substitution(p, vx, vy):
    full = p.subs_values({"x": vx, "y": vy})
    assert full.is_const()
    assert full.as_const() == p.eval_all({"x": vx, "y": vy})


# -- coefficient extraction -------------------------------------------------------


@given(mpolys())
def test_coeffs_roundtrip(p):
    coeffs = p.coeffs_in("y")
    assert MPoly.from_coeffs(coeffs, "y") == p


def test_coeffs_in_oracle():
    # x y^2 + 2 y^2 + 5 → coefficients [5, 0, x + 2] in y  [DERIVED]
    p = X * Y * Y + 2 * Y * Y + MPoly.const(5)
    c = p.coeffs_in("y")
    assert c == [MPoly.const(5), MPoly.zero(), X + MPoly.const(2)]


# -- division and gcd -------------------------------------------------------------


@given(mpolys(), mpolys())
def test_divexact_roundtrip(a, b):
    if b.is_zero():
        return
    assert divexact(a * b, b) == a


def test_try_divexact_rejects_nondivisor():
    assert try_divexact(X * X + Y, X + Y) is None


def _associate(p, q):
    """Equal up to a nonzero constant factor."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    r = try_divexact(p, q)
    return r is not None and r.is_const()


def test_gcd_oracle():
    # gcd((x+y)^2 (x-1), (x+y)(x-1)^2) = (x+y)(x-1)  [DERIVED]
    u = (X + Y) ** 2 * (X - MPoly.const(1))
    v = (X + Y) * (X - MPoly.const(1)) ** 2
    g = gcd(u, v)
    assert _associate(g, (X + Y) * (X - MPoly.const(1)))


@given(mpolys(max_terms=3, max_exp=2), mpolys(max_terms=3, max_exp=2),
       mpolys(max_terms=2, max_exp=2))
def test_gcd_divides_and_sees_common_factor(a, b, c):
    u, v = a * c, b * c
    if u.is_zero() and v.is_zero():
        return
    g = gcd(u, v)
    # the gcd divides both arguments and is divisible by every common factor
    if not u.is_zero():
        assert try_divexact(u, g) is not None
    if not v.is_zero():
        assert try_divexact(v, g) is not None
    if not c.is_zero() and not (u.is_zero() or v.is_zero()):
        assert try_divexact(g, c) is not None


def test_gcd_oracle_one_sided_variable():
    # y1 occurs only in the first operand, so the gcd is free of it  [DERIVED]
    Y1 = MPoly.variable("y1")
    u = (X + Y) * (Y1 * Y1 + X)
    v = (X + Y) * (X - MPoly.const(1))
    assert gcd(u, v) == X + Y


def _over_xy_or_x(max_terms):
    return st.sampled_from([("x", "y"), ("x",)]).flatmap(
        lambda names: mpolys(names, max_terms=max_terms, max_exp=2))


@settings(max_examples=40)
@given(mpolys(("x", "y", "y1"), max_terms=3, max_exp=2), _over_xy_or_x(3),
       _over_xy_or_x(2))
def test_gcd_over_unequal_variable_sets(a, b, c):
    assume(not (a.is_zero() or b.is_zero() or c.is_zero()))
    u, v = a * c, b * c
    g = gcd(u, v)
    assert g.leading_coeff() == 1
    assert try_divexact(u, g) is not None
    assert try_divexact(v, g) is not None
    assert try_divexact(g, c) is not None
    assert gcd(v, u) == g
    assert _associate(g, c * gcd(a, b))


def test_var_rank_orders_jet_names():
    # x < y < y' < y'' < ... so that leading terms pick the top jet
    names = ["x", "y", "y1", "y2", "y10"]
    assert sorted(names, key=var_rank) == names
