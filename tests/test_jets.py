"""Jet-space calculus: jet names and orders."""
import pytest

from lieode.jets import jet_name, jet_order, jet_order_of
from lieode.ratfunc import RatFunc


def jp(k):
    return RatFunc.variable(jet_name(k))


X = RatFunc.variable("x")


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

