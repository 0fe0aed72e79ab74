"""Small exact linear algebra over the rationals.

Matrices are plain lists of lists of ``fractions.Fraction``; everything here
is elimination-based and exact, which is all the symmetry computations need
(the matrices involved are at most 8x8).
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Vec = List[Fraction]
Mat = List[List[Fraction]]

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


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def row_space_basis(vectors: Sequence[Sequence[Fraction]]) -> List[Vec]:
    """Canonical basis (rref rows) of the span of the given vectors."""
    vs = [list(v) for v in vectors if any(v)]
    if not vs:
        return []
    m, pivots = rref(vs)
    return [m[i] for i in range(len(pivots))]


def in_span(v: Sequence[Fraction], basis: Sequence[Sequence[Fraction]]) -> bool:
    if not any(v):
        return True
    return rank(list(basis) + [list(v)]) == rank(list(basis))


def solve(a: Mat, b: Sequence[Fraction]) -> Optional[Vec]:
    """One solution of A x = b, or None if the system is inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [Fraction(b[i])] for i in range(rows)]
    m, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [_0] * cols
    for i, c in enumerate(pivots):
        x[c] = m[i][cols]
    return x


def inverse(a: Mat) -> Mat:
    k = len(a)
    aug = [list(a[i]) + identity(k)[i] for i in range(k)]
    m, pivots = rref(aug)
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return [row[k:] for row in m]


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
