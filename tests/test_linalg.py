"""Fraction-free elimination against rref over the rationals."""
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from lieode.linalg import eliminate, in_span, integer_row, integer_rref, rref

from conftest import rationals, row_space_basis

WIDTH = 5


@st.composite
def low_rank_rows(draw):
    """Rows drawn as rational combinations of a few generators."""
    vec = st.lists(rationals(3, 3), min_size=WIDTH, max_size=WIDTH)
    gens = draw(st.lists(vec, min_size=1, max_size=3))
    rows = draw(st.lists(st.lists(rationals(2, 2), min_size=len(gens),
                                  max_size=len(gens)),
                         min_size=1, max_size=6))
    return [[sum((c * g[k] for c, g in zip(cs, gens)), Fraction(0))
             for k in range(WIDTH)] for cs in rows]


@settings(max_examples=60)
@given(low_rank_rows())
def test_integer_rref_divided_by_pivots_is_the_rref(rows):
    got = integer_rref(integer_row(r)[0] for r in rows)
    pivots = [c for c, _ in got]
    assert pivots == sorted(set(pivots))
    for c, row in got:
        assert row[c] > 0 and gcd(*row) == 1
        assert all(row[d] == 0 for d in pivots if d != c)
    assert ([[Fraction(a, row[c]) for a in row] for c, row in got]
            == row_space_basis(rows))


@settings(max_examples=60)
@given(low_rank_rows(), st.lists(rationals(), min_size=WIDTH,
                                 max_size=WIDTH))
def test_in_span_agrees_with_the_rank_test(rows, v):
    rank = len(rref(rows)[1])
    assert in_span(v, rows) == (len(rref(rows + [v])[1]) == rank)
    combo = [sum((r[k] * (i - 1) for i, r in enumerate(rows)), Fraction(0))
             for k in range(WIDTH)]
    assert in_span(combo, rows)
    basis = integer_rref(integer_row(r)[0] for r in rows)
    assert not any(eliminate(integer_row(combo)[0], basis))


def test_in_span_of_nothing():
    assert in_span([Fraction(0)] * 3, [])
    assert not in_span([Fraction(0), Fraction(1, 2), Fraction(0)], [])
