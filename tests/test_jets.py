"""Jet-space calculus: jet names and orders, total derivatives."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieode.jets import jet_name, jet_order, jet_order_of, total_derivative
from lieode.polys import MPoly
from lieode.ratfunc import RatFunc

from conftest import rationals


def jp(k):
    return RatFunc.variable(jet_name(k))


def mp(k):
    return MPoly.variable(jet_name(k))


X = RatFunc.variable("x")


@st.composite
def jetpolys(draw, max_order=2, max_terms=3):
    """Small polynomial jet expressions."""
    coords = [MPoly.variable("x")] + [mp(k) for k in range(max_order + 1)]
    total = MPoly.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        term = MPoly.const(draw(rationals(max_abs=4, max_den=2)))
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
    assert total_derivative(MPoly.variable("x")) == MPoly.const(1)
    for k in range(3):
        assert total_derivative(mp(k)) == mp(k + 1)


def test_total_derivative_oracle():
    # D_x (y * y') = (y')^2 + y * y''  [TRIVIAL]
    assert total_derivative(mp(0) * mp(1)) == mp(1) * mp(1) + mp(0) * mp(2)


@given(jetpolys(), jetpolys())
def test_total_derivative_is_a_derivation(p, q):
    assert total_derivative(p + q) == total_derivative(p) + total_derivative(q)
    assert (total_derivative(p * q)
            == total_derivative(p) * q + p * total_derivative(q))
