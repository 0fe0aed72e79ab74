"""Characteristic polynomials, affine root classes, adjoint recovery."""
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieode.errors import InternalInvariantError
from lieode.liealgebra import derived_algebra
from lieode.linalg import (charpoly as matrix_charpoly, eliminate,
                           integer_rref, is_scalar_matrix)
from lieode.recovery import (REASON_DEGREE, REASON_EQUIVALENT, REASON_PATTERN,
                             REASON_SCALE, CharPoly, adjoint_on_derived,
                             affine_class, centered, class_to_ode,
                             classify_pair, recovery_details,
                             root_affine_image)

from conftest import (affine_equivalent, fraction_bracket, inverse,
                      lie_table, mat_mul, mat_scale, nonzero_rationals,
                      rationals)

F = Fraction


def P(*coeffs):
    return CharPoly(tuple(F(c) for c in coeffs))


Z3_MINUS_Z = P(0, -1, 0)
Z3 = P(0, 0, 0)


@st.composite
def charpolys(draw, min_degree=2, max_degree=5):
    deg = draw(st.integers(min_degree, max_degree))
    return CharPoly(tuple(draw(rationals(max_abs=6, max_den=3))
                          for _ in range(deg)))


# -- polynomial plumbing ------------------------------------------------------------


def test_from_roots_oracle():
    # (z-2)^2 (z-5) = z^3 - 9 z^2 + 24 z - 20  [DERIVED]
    p = CharPoly.from_roots([F(2), F(2), F(5)])
    assert p.coeffs == (F(-20), F(24), F(-9))
    assert p.full_coeffs() == [F(-20), F(24), F(-9), F(1)]
    assert str(p) == "z^3 - 9*z^2 + 24*z - 20"


@given(st.lists(rationals(max_abs=5, max_den=3), min_size=2, max_size=4),
       nonzero_rationals(max_abs=4, max_den=3), rationals(max_abs=4, max_den=3))
def test_root_affine_image_moves_roots(roots, k, b):
    image = CharPoly.from_roots([k * r + b for r in roots])
    assert root_affine_image(CharPoly.from_roots(roots), k, b) == image


def _value(p, z):
    return sum(a * z ** j for j, a in enumerate(p.full_coeffs()))


@given(charpolys(min_degree=1, max_degree=6),
       nonzero_rationals(max_abs=7, max_den=5), rationals(max_abs=7, max_den=5))
def test_root_affine_image_is_the_scaled_substitution(p, k, b):
    # the monic q of degree n equals k^n p((z - b)/k) at n + 1 points, so
    # it is that polynomial; its coefficients are Fractions
    q = root_affine_image(p, k, b)
    n = p.degree
    assert q.degree == n
    for z in (F(2 * i - n, 3) for i in range(n + 1)):
        assert _value(q, z) == k ** n * _value(p, (z - b) / k)
    assert all(type(c) is Fraction for c in q.coeffs)


def test_centered_kills_trace():
    c = centered(CharPoly.from_roots([F(0), F(1), F(1)]))
    assert c.coeffs == (F(2, 27), F(-1, 3), F(0))


@given(charpolys())
def test_centered_is_idempotent(p):
    c = centered(p)
    assert c.coeffs[p.degree - 1] == 0
    assert centered(c) == c


# -- affine equivalence ---------------------------------------------------------------


@given(charpolys(), nonzero_rationals(max_abs=4, max_den=3),
       rationals(max_abs=4, max_den=3))
def test_affine_images_stay_in_class(p, k, b):
    q = root_affine_image(p, k, b)
    assert affine_equivalent(p, q)
    assert affine_class(p) == affine_class(q)


@given(charpolys(), charpolys())
def test_equivalence_is_symmetric(p, q):
    assert affine_equivalent(p, q) == affine_equivalent(q, p)


def test_arithmetic_progressions_of_roots():
    # any arithmetic progression of distinct roots lands in the class of
    # z^3 - z; only an all-equal spectrum lands in the class of z^3
    assert affine_equivalent(Z3_MINUS_Z,
                             CharPoly.from_roots([F(-1), F(0), F(1)]))
    assert affine_equivalent(Z3_MINUS_Z,
                             CharPoly.from_roots([F(3), F(5), F(7)]))
    assert affine_class(CharPoly.from_roots([F(2), F(2), F(2)])).is_trivial


def test_z3_minus_z_is_not_trivial_class():
    # distinct zero patterns can never be affine images  [PAPER]
    assert not affine_equivalent(Z3_MINUS_Z, Z3)
    assert classify_pair(Z3_MINUS_Z, Z3) == (False, REASON_PATTERN)


def test_degree_mismatch():
    assert classify_pair(Z3, P(0, 0)) == (False, REASON_DEGREE)


def test_pure_scaling_classes():
    # z^2 + 1 ~ z^2 + 4 via z -> 2z
    assert affine_equivalent(P(1, 0), P(4, 0))
    assert classify_pair(P(1, 0), P(4, 0)) == (True, REASON_EQUIVALENT)


def test_scale_invariant_separates_close_quartics():
    # z^4 + z^2 + 1 and z^4 + z^2 - 1 share support and the anchored
    # ratios c_j^(j0)/c_(j0)^j, yet are inequivalent: only the fully
    # normalized invariant tells them apart  [DERIVED]
    p1, p2 = P(1, 0, 1, 0), P(-1, 0, 1, 0)
    a1, a2 = affine_class(p1), affine_class(p2)
    assert classify_pair(p1, p2) == (False, REASON_SCALE)
    assert a1 != a2


def test_trivial_class_helper():
    # the class of z^n, i.e. of u^(n) = 0, holds every all-equal spectrum
    assert affine_class(Z3).is_trivial
    assert affine_class(CharPoly.from_roots([F(2)] * 3)) == affine_class(Z3)


# -- rendering ------------------------------------------------------------------------


def test_char_poly_strings():
    # zero, negative, fractional, unit and constant coefficients
    assert str(Z3) == "z^3"
    assert str(P(-1, 0, 0)) == "z^3 - 1"
    assert str(P(F(1, 2), -1, F(-3, 4))) == "z^3 - 3/4*z^2 - z + 1/2"
    assert str(P(1, 1, 1)) == "z^3 + z^2 + z + 1"
    assert str(P(-5)) == "z - 5"
    assert str(P(0)) == "z"
    assert str(P(F(-2, 3), 0)) == "z^2 - 2/3"
    assert str(P(7, 0, -1, 0)) == "z^4 - z^2 + 7"


def test_class_to_ode_strings():
    assert class_to_ode(affine_class(Z3_MINUS_Z)) == "u''' - u' = 0"
    assert class_to_ode(affine_class(P(0, 0))) == "u'' = 0"
    assert class_to_ode(affine_class(P(1, 0))) == "u'' + u = 0"
    assert (class_to_ode(affine_class(CharPoly.from_roots([F(0), F(1), F(1)])))
            == "u''' - 1/3*u' + 2/27*u = 0")
    assert (class_to_ode(affine_class(P(F(1, 2), -1, F(-3, 4))))
            == "u''' - 19/16*u' + 7/32*u = 0")
    assert class_to_ode(affine_class(P(F(-2, 3), 0))) == "u'' - 2/3*u = 0"
    assert class_to_ode(affine_class(P(7, 0, -1, 0))) == "u'''' - u'' + 7*u = 0"
    assert class_to_ode(affine_class(P(-5))) == "u' = 0"
    assert class_to_ode(affine_class(P(0, 0, 0, 0, 0))) == "u^(5) = 0"


# -- the adjoint-action recovery ------------------------------------------------------

# five-generator algebra of a linear equation with spectrum {2, 2, 5}:
# d1, d2, d3 span solution fields, e4 generates x-translations and acts on
# them with one Jordan block per eigenvalue, e5 is the y-scaling.
# [DERIVED: brackets of e^{2x} dy, x e^{2x} dy, e^{5x} dy, dx, y dy]


def _example_table():
    m = 5
    C = [[[F(0)] * m for _ in range(m)] for _ in range(m)]

    def setbr(i, j, vec):
        C[i][j] = [F(v) for v in vec]
        C[j][i] = [-F(v) for v in vec]

    setbr(3, 0, [2, 0, 0, 0, 0])     # [e4, d1] = 2 d1
    setbr(3, 1, [1, 2, 0, 0, 0])     # [e4, d2] = d1 + 2 d2
    setbr(3, 2, [0, 0, 5, 0, 0])     # [e4, d3] = 5 d3
    setbr(4, 0, [-1, 0, 0, 0, 0])    # [e5, d_i] = -d_i
    setbr(4, 1, [0, -1, 0, 0, 0])
    setbr(4, 2, [0, 0, -1, 0, 0])
    table = lie_table(C)
    table.validate()
    return table


def test_adjoint_action_matrix():
    L = _example_table()
    D = derived_algebra(L)
    assert D.dimension == 3
    A = adjoint_on_derived(L, D, 3)     # e4, the x-translation
    # one Jordan block per eigenvalue; equal to the reference matrix
    # [[2,0,0],[1,2,0],[0,0,5]] up to basis permutation (here: transposed
    # storage, rows act on columns)
    assert A == [[F(2), F(1), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(5)]]
    assert CharPoly(tuple(matrix_charpoly(A))) == CharPoly.from_roots(
        [F(2), F(2), F(5)])


def test_charpoly_invariant_under_conjugation():
    L = _example_table()
    D = derived_algebra(L)
    A, _ = recovery_details(L, D)
    rng = random.Random(777)
    done = 0
    while done < 20:
        T = [[F(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        try:
            Ti = inverse(T)
        except ValueError:
            continue
        assert matrix_charpoly(mat_mul(Ti, mat_mul(A, T))) == matrix_charpoly(A)
        done += 1


def test_scalar_actions_are_skipped():
    L = _example_table()
    D = derived_algebra(L)
    assert is_scalar_matrix(adjoint_on_derived(L, D, 4))   # y-scaling: -I
    A, cp = recovery_details(L, D)
    assert not is_scalar_matrix(A)
    assert affine_equivalent(cp, CharPoly.from_roots([F(2), F(2), F(5)]))


def test_representative_choice_does_not_change_the_class():
    L = _example_table()
    D = derived_algebra(L)
    # ad is linear, so a e_i + b e_j acts as a A_i + b A_j
    A1, A2 = (adjoint_on_derived(L, D, i) for i in (3, 4))
    reference = affine_class(recovery_details(L, D)[1])
    for a, b in [(1, 0), (1, 1), (1, -1), (1, 2), (2, 3)]:
        A = _combined(a, A1, b, A2)
        if is_scalar_matrix(A):
            continue
        assert affine_class(CharPoly(tuple(matrix_charpoly(A)))) == reference


def _combined(a, A1, b, A2):
    """The matrix a A1 + b A2."""
    return [[a * u + b * v for u, v in zip(r1, r2)] for r1, r2 in zip(A1, A2)]


def _unit(m, i):
    """The i-th unit vector of length m."""
    return [int(t == i) for t in range(m)]


@pytest.mark.parametrize("source", ["example", "cc_image3"])
def test_adjoint_columns_reproduce_the_brackets(source, reference_reports):
    # column i of A holds the coordinates of [e, d_i] in D's basis; rebuild
    # the bracket from C over the rationals and compare, for the first two
    # basis elements outside D and, by linearity, for combinations of them
    # [DERIVED]
    if source == "example":
        L = _example_table()
        D = derived_algebra(L)
    else:
        report = reference_reports[source]
        L, D = report.algebra, report.certificate.derived
    reps = [i for i in range(L.m)
            if any(eliminate(_unit(L.m, i), D.rows))][:2]
    e1, e2 = ([F(int(t == i)) for t in range(L.m)] for i in reps)
    A1, A2 = (adjoint_on_derived(L, D, i) for i in reps)
    basis = D.basis
    for a, b in [(1, 0), (0, 1), (1, 1), (F(1, 2), F(-3))]:
        e = [a * u + b * v for u, v in zip(e1, e2)]
        A = _combined(a, A1, b, A2)
        for i, d in enumerate(basis):
            combo = [sum((A[k][i] * dk[t] for k, dk in enumerate(basis)),
                         F(0)) for t in range(L.m)]
            assert combo == fraction_bracket(L.C, e, d)


def test_walk_skips_scalar_actions_outside_the_unit_vectors():
    # the basis f0 = d1, f1 = e5 + d2, f2 = 2 e5 + d3, f3 = d2, f4 = e4 + e5
    # of _example_table's algebra: D = span(f0, f3, f2 - 2 f1) has a basis
    # row that is no unit vector; f1, the first element outside D, acts as
    # -I, f2 = 2 f1 + (d3 - 2 d2) lies in span(D, f1) and acts as -2 I, and
    # f4 acts as ad(e4) - I, with spectrum {1, 1, 4}  [DERIVED]
    old = _example_table()
    P = [[F(v) for v in row] for row in [[1, 0, 0, 0, 0], [0, 1, 0, 0, 1],
                                         [0, 0, 1, 0, 2], [0, 1, 0, 0, 0],
                                         [0, 0, 0, 1, 1]]]
    Pi = inverse(P)
    L = lie_table([[mat_mul([fraction_bracket(old.C, u, v)], Pi)[0]
                    for v in P] for u in P])
    L.validate()
    D = derived_algebra(L)
    assert D.dimension == 3
    assert any(sum(map(bool, row)) > 1 for _, row in D.rows)
    outside = [any(eliminate(_unit(5, i), D.rows)) for i in range(5)]
    assert outside == [False, True, True, False, True]
    grown = integer_rref([_unit(5, 1)], D.rows)
    assert not any(eliminate(_unit(5, 2), grown))
    minus_one = [[F(-(i == j)) for j in range(3)] for i in range(3)]
    assert adjoint_on_derived(L, D, 1) == minus_one
    assert adjoint_on_derived(L, D, 2) == mat_scale(minus_one, 2)
    A, cp = recovery_details(L, D)
    assert A == adjoint_on_derived(L, D, 4)
    assert cp == CharPoly.from_roots([F(1), F(1), F(4)])


def test_recovery_rejects_a_non_abelian_derived_algebra():
    # sl(2): [h, e] = 2 e, [h, f] = -2 f, [e, f] = h; D is all of it
    m = 3
    C = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    for i, j, vec in [(0, 1, [0, 2, 0]), (0, 2, [0, 0, -2]), (1, 2, [1, 0, 0])]:
        C[i][j] = [F(v) for v in vec]
        C[j][i] = [-F(v) for v in vec]
    L = lie_table(C)
    L.validate()
    with pytest.raises(InternalInvariantError, match="not abelian"):
        recovery_details(L, derived_algebra(L))


def test_end_to_end_recovery_of_a_repeated_root():
    # exp-image of u''' - 2 u'' + u' = 0 (spectrum {0, 1, 1}); the recovered
    # class must match the source and must not collapse to z^3  [DERIVED]
    from lieode.pipeline import analyze
    report = analyze("y''' + 3*y'*y'' + (y')^3 - 2*(y'' + (y')^2) + y' = 0")
    assert report.certificate.case == "constant-coefficients"
    assert report.m == 5
    got = report.recovery.affine
    assert got == affine_class(CharPoly.from_roots([F(0), F(1), F(1)]))
    assert not got.is_trivial
    # the same equation and values as the README's "Library" block
    assert str(report.recovery.char_poly) == "z^3 - 2*z^2 + z"
    assert (report.recovery.representative_ode
            == "u''' - 1/3*u' + 2/27*u = 0")


def test_all_scalar_actions_is_an_engine_error():
    # both factor directions acting as scalars would mean an all-equal
    # spectrum, which belongs to the maximal class instead
    m = 5
    C = [[[F(0)] * m for _ in range(m)] for _ in range(m)]

    def setbr(i, j, vec):
        C[i][j] = [F(v) for v in vec]
        C[j][i] = [-F(v) for v in vec]

    for i in range(3):
        v1 = [F(0)] * m
        v1[i] = F(1)
        setbr(3, i, v1)                 # [e4, d_i] = d_i
        setbr(4, i, [2 * x for x in v1])  # [e5, d_i] = 2 d_i
    L = lie_table(C)
    L.validate()
    with pytest.raises(InternalInvariantError, match="scalar"):
        recovery_details(L, derived_algebra(L))
