"""Small exact linear algebra over the rationals.

Matrices are plain lists of lists of ``fractions.Fraction``; everything here
is elimination-based and exact, which is all the symmetry computations need
(the matrices involved are at most 8x8).  Row spaces and span membership
come fraction-free: ``integer_rref`` runs Gauss-Jordan on integer rows,
keeping each row primitive, and ``eliminate`` clears a vector against it.
``rref`` and ``in_span`` are test references.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Tuple

Vec = List[Fraction]
Mat = List[List[Fraction]]
# Fraction-free rref: (pivot column, primitive integer row) by pivot column.
IntRows = List[Tuple[int, List[int]]]

_0 = Fraction(0)
_1 = Fraction(1)


def zeros(r: int, c: int) -> Mat:
    return [[_0] * c for _ in range(r)]


def identity(k: int) -> Mat:
    return [[_1 if i == j else _0 for j in range(k)] for i in range(k)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    rb = len(b)
    cb = len(b[0])
    out = zeros(len(a), cb)
    for i, row in enumerate(a):
        oi = out[i]
        for k in range(rb):
            aik = row[k]
            if aik:
                bk = b[k]
                for j in range(cb):
                    oi[j] += aik * bk[j]
    return out


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Mat, c: Fraction) -> Mat:
    return [[c * x for x in row] for row in a]


def trace(a: Mat) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), _0)


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


def integer_rref(vectors: Iterable[Sequence[int]],
                 rows: IntRows = ()) -> IntRows:
    """Fraction-free Gauss-Jordan on integer vectors, extending ``rows``.

    Each vector is eliminated against the rows so far; a nonzero remainder
    is made primitive with a positive pivot and cleared from the other rows.
    Every row then vanishes at the others' pivot columns, so dividing each
    by its pivot gives the rref of the span, which is unique.
    """
    rows = list(rows)
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
    return rows


def in_span(v: Sequence[Fraction], basis: Sequence[Sequence[Fraction]]) -> bool:
    """One fraction-free elimination of ``basis``, then v cleared against it."""
    rows = integer_rref(integer_row(b)[0] for b in basis)
    return not any(eliminate(integer_row(v)[0], rows))


def is_scalar_matrix(a: Mat) -> bool:
    k = len(a)
    d = a[0][0]
    return all(a[i][j] == (d if i == j else 0) for i in range(k) for j in range(k))


def charpoly(a: Mat) -> List[Fraction]:
    """Monic characteristic polynomial det(z I - A), ascending coefficients.

    Returns ``[a0, ..., a_{k-1}]`` with p(z) = z^k + a_{k-1} z^{k-1} + ... + a0,
    computed by the Faddeev-LeVerrier recursion (division-free except by the
    step index, exact over the rationals).
    """
    k = len(a)
    coeffs_desc: List[Fraction] = []  # c1 .. ck with p = z^k + c1 z^(k-1) + ... + ck
    m = identity(k)
    for step in range(1, k + 1):
        am = mat_mul(a, m)
        c = -trace(am) / step
        coeffs_desc.append(c)
        m = mat_add(am, mat_scale(identity(k), c))
    if any(x for row in m for x in row):
        raise ArithmeticError("Faddeev-LeVerrier recursion failed to terminate at zero")
    return list(reversed(coeffs_desc))
