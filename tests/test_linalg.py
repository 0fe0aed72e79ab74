"""Fraction-free elimination against rref over the rationals, and the
characteristic polynomial on integers against the Fraction recursion."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieode.linalg
from lieode.linalg import (charpoly, eliminate, in_span, integer_row,
                           integer_rref, rref)

from conftest import rationals, reference_charpoly, row_space_basis

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


def test_integer_rref_stops_at_full_rank():
    # once the rows span every column, later vectors add nothing: the rows
    # are the same with or without them, and none of them is read
    full = [[2, 1, 0], [0, 3, 1], [1, 0, 1]]
    extra = [[5, -1, 7], [0, 0, 0], [1, 1, 1]]
    rows = integer_rref(full)
    assert rows == [(c, [int(k == c) for k in range(3)]) for c in range(3)]
    vectors = iter(full + extra)
    assert integer_rref(vectors) == rows
    assert list(vectors) == extra
    assert integer_rref(extra[:1] + full) == rows


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


# -- the characteristic polynomial on integers ---------------------------------------


@st.composite
def square_matrices(draw):
    """Rational matrices from 1x1 to 6x6 with mixed denominators."""
    k = draw(st.integers(1, 6))
    return draw(st.lists(st.lists(rationals(9, 6), min_size=k, max_size=k),
                         min_size=k, max_size=k))


@settings(max_examples=60)
@given(square_matrices())
def test_charpoly_matches_the_fraction_recursion(a):
    assert charpoly(a) == reference_charpoly(a)


def test_charpoly_matches_on_every_corpus_adjoint_matrix(corpus_reports):
    # the action matrix of every constant-coefficients corpus input
    matrices = [r.recovery.action_matrix for _, r in corpus_reports
                if r.certificate.case == "constant-coefficients"]
    assert matrices and all(matrices)
    for a in matrices:
        assert charpoly(a) == reference_charpoly(a)


@pytest.mark.parametrize("at,match", [
    ((0, 0), "not divisible by step 2"),
    ((0, 1), "failed to terminate at zero"),
], ids=["trace", "cayley-hamilton"])
def test_charpoly_checks_fire_on_a_corrupted_step(monkeypatch, at, match):
    # M = [[1, 2], [3, 4]]: one added to the second product M N_2 = 2 I on
    # its diagonal makes the trace odd; off it, the trace stays 4 but N_3
    # is not zero  [DERIVED]
    product = lieode.linalg._int_product
    steps = []

    def corrupted(a, b):
        out = product(a, b)
        steps.append(out)
        if len(steps) == 2:
            assert out == [[2, 0], [0, 2]]
            out[at[0]][at[1]] += 1
        return out

    monkeypatch.setattr(lieode.linalg, "_int_product", corrupted)
    with pytest.raises(ArithmeticError, match=match):
        charpoly([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
