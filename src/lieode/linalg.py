"""Small exact linear algebra over the rationals, run on integers.

Matrices are plain lists of lists of ``fractions.Fraction`` (at most 8x8
here).  Row spaces and span membership come fraction-free:
``integer_rref`` runs Gauss-Jordan on integer rows, keeping each row
primitive, and ``eliminate`` clears a vector against it.  ``charpoly``
brings its matrix over one integer denominator and runs on the
numerators.  ``rref`` and ``in_span`` are test references.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Tuple

Vec = List[Fraction]
Mat = List[List[Fraction]]
# Fraction-free rref: (pivot column, primitive integer row) by pivot column.
IntRows = List[Tuple[int, List[int]]]

def rref(a: Mat) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [list(map(Fraction, row)) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def integer_row(v: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(numerators, d) with v = numerators / d, d the lcm of v's denominators."""
    d = lcm(*(a.denominator for a in v))
    return [a.numerator * (d // a.denominator) for a in v], d


def eliminate(v: Sequence[int], rows: IntRows) -> List[int]:
    """v cleared at every pivot column of a fraction-free rref.

    Each step scales v by a pivot and subtracts a multiple of its row; the
    rows vanish at each other's pivots, so a cleared column stays clear.
    The result is zero iff v lies in the span of ``rows``.
    """
    v = list(v)
    for c, row in rows:
        f = v[c]
        if f:
            p = row[c]
            v = [p * a - f * b for a, b in zip(v, row)]
    return v


def _primitive(v: List[int], pivot: int) -> List[int]:
    g = gcd(*v)
    if v[pivot] < 0:
        g = -g
    return v if g == 1 else [a // g for a in v]


def integer_rref(vectors: Iterable[Sequence[int]]) -> IntRows:
    """Fraction-free Gauss-Jordan on integer vectors.

    Each vector is eliminated against the rows so far; a nonzero remainder
    is made primitive with a positive pivot and cleared from the other rows.
    Every row then vanishes at the others' pivot columns, so dividing each
    by its pivot gives the rref of the span, which is unique.  Once there
    are as many rows as columns the span is everything, and no further
    vector is read.
    """
    rows: IntRows = []
    for v in vectors:
        v = eliminate(v, rows)
        c = next((k for k, a in enumerate(v) if a), None)
        if c is None:
            continue
        v = _primitive(v, c)
        p = v[c]
        rows = [(d, _primitive([p * a - row[c] * b for a, b in zip(row, v)], d)
                 if row[c] else row) for d, row in rows]
        rows.append((c, v))
        rows.sort()
        if len(rows) == len(v):
            break
    return rows


def in_span(v: Sequence[Fraction], basis: Sequence[Sequence[Fraction]]) -> bool:
    """One fraction-free elimination of ``basis``, then v cleared against it."""
    rows = integer_rref(integer_row(b)[0] for b in basis)
    return not any(eliminate(integer_row(v)[0], rows))


def is_scalar_matrix(a: Mat) -> bool:
    k = len(a)
    d = a[0][0]
    return all(a[i][j] == (d if i == j else 0) for i in range(k) for j in range(k))


def _int_product(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    """The product of two square integer matrices."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def charpoly(a: Mat) -> List[Fraction]:
    """Monic characteristic polynomial det(z I - A), ascending coefficients.

    Returns ``[a0, ..., a_{k-1}]`` with p(z) = z^k + a_{k-1} z^{k-1} + ... + a0.
    A is brought to M / S over the lcm S of its denominators, and the
    Faddeev-LeVerrier recursion runs on the integer matrix M: N_1 = I,
    c_j = -tr(M N_j) / j, N_{j+1} = M N_j + c_j I.  Each c_j is an integer
    coefficient of M's polynomial, so each division by the step index is
    exact, and N_{k+1} = 0 (Cayley-Hamilton); either failing raises
    ``ArithmeticError``.  A's coefficient of z^(k-j) is c_j / S^j.
    """
    k = len(a)
    S = lcm(*(x.denominator for row in a for x in row))
    M = [[x.numerator * (S // x.denominator) for x in row] for row in a]
    n = [[int(i == j) for j in range(k)] for i in range(k)]
    coeffs_desc: List[Fraction] = []
    for step in range(1, k + 1):
        n = _int_product(M, n)
        c, r = divmod(-sum(n[i][i] for i in range(k)), step)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible by "
                                  "step %d" % step)
        coeffs_desc.append(Fraction(c, S ** step))
        for i in range(k):
            n[i][i] += c
    if any(x for row in n for x in row):
        raise ArithmeticError("Faddeev-LeVerrier recursion failed to terminate at zero")
    return coeffs_desc[::-1]
