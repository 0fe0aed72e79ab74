"""Jet-space calculus: total derivatives and on-solution substitution."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieode.errors import DegenerateInput
from lieode.jets import jet_name, jet_order, jet_order_of, substitute_top, total_derivative
from lieode.ratfunc import RatFunc

from conftest import rationals


def jp(k):
    return RatFunc.variable(jet_name(k))


X = RatFunc.variable("x")


@st.composite
def jetpolys(draw, max_order=2, max_terms=3):
    """Small polynomial jet expressions (denominator-free keeps D_x cheap)."""
    coords = [X] + [jp(k) for k in range(max_order + 1)]
    total = RatFunc.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        term = RatFunc.const(draw(rationals(max_abs=4, max_den=2)))
        for _ in range(draw(st.integers(0, 2))):
            term = term * draw(st.sampled_from(coords))
        total = total + term
    return total


def test_jet_names():
    # [TRIVIAL]
    assert jet_name(0) == "y"
    assert jet_name(3) == "y3"
    assert jet_order_of("y7") == 7
    assert jet_order_of("x") == -1
    with pytest.raises(ValueError):
        jet_name(-1)


def test_jet_order():
    # highest derivative in numerator or denominator; 0 without any  [TRIVIAL]
    assert jet_order(jp(2) / jp(0)) == 2
    assert jet_order(jp(0) / (X + jp(3))) == 3
    assert jet_order(jp(0)) == 0
    assert jet_order(X) == 0
    assert jet_order(RatFunc.const(5)) == 0


def test_total_derivative_of_coordinates():
    # D_x x = 1 and D_x y^(k) = y^(k+1)  [TRIVIAL]
    assert total_derivative(X) == RatFunc.one()
    for k in range(3):
        assert total_derivative(jp(k)) == jp(k + 1)


def test_total_derivative_oracle():
    # D_x (y * y') = (y')^2 + y * y''  [TRIVIAL]
    assert total_derivative(jp(0) * jp(1)) == jp(1) * jp(1) + jp(0) * jp(2)


@given(jetpolys(), jetpolys())
def test_total_derivative_is_a_derivation(p, q):
    assert total_derivative(p + q) == total_derivative(p) + total_derivative(q)
    assert (total_derivative(p * q)
            == total_derivative(p) * q + p * total_derivative(q))


def test_total_derivative_quotient():
    # D_x (1/y) = -y'/y^2  [TRIVIAL]
    one_over_y = RatFunc.one() / jp(0)
    assert total_derivative(one_over_y) == -jp(1) / (jp(0) * jp(0))


# -- substitution of the top derivative -------------------------------------------


def test_substitute_top_oracle():
    # On solutions of y'' + y^2 = 0:
    #   y''' = D_x(-y^2) = -2 y y'
    #   y'''' = -2 (y')^2 - 2 y y'' = -2 (y')^2 + 2 y^3   [DERIVED]
    f = jp(0) * jp(0)
    y3 = substitute_top(jp(3), 2, f)
    assert y3 == RatFunc.const(-2) * jp(0) * jp(1)
    y4 = substitute_top(jp(4), 2, f)
    assert y4 == (RatFunc.const(-2) * jp(1) * jp(1)
                  + RatFunc.const(2) * jp(0) ** 3)


def test_substitute_top_leaves_low_order_alone():
    p = X * jp(1) + jp(0)
    assert substitute_top(p, 2, jp(0) * jp(0)) == p


@given(jetpolys(max_order=3))
def test_substitute_top_idempotent(p):
    f = jp(0) * jp(1)  # y'' := -y y'
    once = substitute_top(p, 2, f)
    assert jet_order(once) <= 1
    assert substitute_top(once, 2, f) == once


def test_substitute_top_degenerate_denominator():
    # 1/(y'' + y^2) collapses on solutions of y'' = -y^2
    p = RatFunc.one() / (jp(2) + jp(0) * jp(0))
    with pytest.raises(DegenerateInput):
        substitute_top(p, 2, jp(0) * jp(0))


def test_substitute_top_rejects_high_order_rhs():
    with pytest.raises(ValueError):
        substitute_top(jp(3), 2, jp(2))
