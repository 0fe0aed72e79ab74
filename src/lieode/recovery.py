"""Characteristic-polynomial recovery from the symmetry algebra.

For a linearizable equation whose symmetry dimension is m = n+2, the derived
algebra D is abelian of dimension n (the pushed-forward solution fields) and
the two-dimensional factor space L/D acts on D by the bracket.  The action
matrix of a basis element that acts as a non-scalar has eigenvalues k*lambda_i
+ b for the characteristic roots lambda_i of any constant-coefficient linear
target, with unknown k != 0 and b.  Its characteristic polynomial therefore
determines the target's characteristic polynomial exactly up to the affine
root map lambda -> k*lambda + b, and that ambiguity class is decided by
rational invariants of the centered coefficients -- no root extraction.

Equality of classes: center both polynomials (shift roots so their sum is 0),
compare the supports {j : c_j != 0} of the centered coefficients c_j (the
coefficient of z^(n-j), j = 2..n), and compare the scale-normalized tuple
c_j / T^(j/g), where g = gcd(support) and T is the deterministic product
prod c_j^(x_j) with sum x_j * (j/g) = 1.  The tuple is invariant under
c_j -> k^j c_j and complete: equal tuples yield k as a g-th root of the
T-ratio, which always exists over the complex numbers.
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import InternalInvariantError
from .liealgebra import LieAlgebraTable, Subalgebra
from .linalg import (Mat, Vec, charpoly as matrix_charpoly, eliminate,
                     is_scalar_matrix)
from .parsing import deriv_marker, signed_sum

_0 = Fraction(0)
_1 = Fraction(1)


@dataclasses.dataclass(frozen=True)
class CharPoly:
    """Monic polynomial z^n + a_{n-1} z^{n-1} + ... + a_0, ascending coeffs."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple(Fraction(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def from_roots(roots: Sequence[Fraction]) -> "CharPoly":
        acc = [_1]
        for r in roots:
            r = Fraction(r)
            nxt = [_0] * (len(acc) + 1)
            for i, c in enumerate(acc):      # acc * (z - r), ascending order
                nxt[i + 1] += c
                nxt[i] -= c * r
            acc = nxt
        return CharPoly(tuple(acc[:-1]))

    def full_coeffs(self) -> List[Fraction]:
        return list(self.coeffs) + [_1]

    def __str__(self) -> str:
        full = self.full_coeffs()
        return signed_sum(
            (full[k], "" if k == 0 else "z" if k == 1 else "z^%d" % k)
            for k in reversed(range(len(full))))


def root_affine_image(p: CharPoly, k: Fraction, b: Fraction) -> CharPoly:
    """The monic polynomial whose roots are k*lambda + b over p's roots."""
    k = Fraction(k)
    b = Fraction(b)
    if k == 0:
        raise ValueError("root scale k must be nonzero")
    n = p.degree
    # q(z) = k^n * p((z - b)/k) = sum_j a_j k^(n-j) (z - b)^j,  a_n = 1.
    # With a_j = A_j/d, k = K/e and b = B/f, the scale s = d e^n f^n makes
    # every coefficient an integer:
    # s q(z) = sum_j A_j K^(n-j) e^j f^(n-j) (f z - B)^j
    full = p.full_coeffs()
    d = math.lcm(*(a.denominator for a in full))
    f_pow = [b.denominator ** i for i in range(n + 1)]
    out = [0] * (n + 1)
    for j, a in enumerate(full):
        if not a:
            continue
        scale = (a.numerator * (d // a.denominator) * k.numerator ** (n - j)
                 * k.denominator ** j * f_pow[n - j])
        # (f z - B)^j expanded ascending
        minus_b = 1
        for i in reversed(range(j + 1)):
            out[i] += scale * math.comb(j, i) * f_pow[i] * minus_b
            minus_b *= -b.numerator
    s = d * k.denominator ** n * f_pow[n]
    if out[n] != s:
        raise InternalInvariantError("affine root image lost monicity")
    return CharPoly(tuple(Fraction(c, s) for c in out[:n]))


def centered(p: CharPoly) -> CharPoly:
    """Shift roots so their sum vanishes (kills the z^{n-1} coefficient)."""
    n = p.degree
    if n == 0:
        return p
    shift = p.coeffs[n - 1] / n   # roots move by +a_{n-1}/n
    q = root_affine_image(p, _1, shift)
    if n >= 2 and q.coeffs[n - 1] != 0:
        raise InternalInvariantError("centering failed to kill the trace term")
    return q


def _extended_gcd_combination(values: Sequence[int]) -> Tuple[int, Dict[int, int]]:
    """gcd of values plus integer weights: sum w[i]*values[i] = gcd."""
    g = 0
    weights: Dict[int, int] = {}
    for idx, v in enumerate(values):
        if g == 0:
            g, s, t = v, 0, 1
        else:
            # extended Euclid for (g, v)
            a, b = g, v
            sa, ta, sb, tb = 1, 0, 0, 1
            while b:
                q, r = divmod(a, b)
                a, b = b, r
                sa, sb = sb, sa - q * sb
                ta, tb = tb, ta - q * tb
            g, s, t = a, sa, ta
        for j in weights:
            weights[j] *= s
        weights[idx] = t
    return g, weights


@dataclasses.dataclass(frozen=True)
class AffineClass:
    """Complete invariant of a spectrum under root maps lambda -> k*lambda + b.

    ``support`` lists the indices j (2..n) whose centered coefficient c_j is
    nonzero, and ``canonical`` the scale-normalized values c_j / T^(j/g);
    equality of (degree, support, canonical) is equivalence.  The centered
    representative rides along for reporting.
    """

    degree: int
    support: Tuple[int, ...]
    canonical: Tuple[Fraction, ...]
    centered_coeffs: Tuple[Fraction, ...] = dataclasses.field(compare=False)

    @property
    def is_trivial(self) -> bool:
        """True when the class is that of z^n (all centered coefficients 0)."""
        return not self.support


def affine_class(p: CharPoly) -> AffineClass:
    n = p.degree
    q = centered(p)
    # c_j = coefficient of z^(n-j), j = 2..n
    c = {j: q.coeffs[n - j] for j in range(2, n + 1)}
    support = tuple(j for j in range(2, n + 1) if c[j])
    canonical: Tuple[Fraction, ...] = ()
    if support:
        g = math.gcd(*support)
        reduced = [j // g for j in support]
        gg, weights = _extended_gcd_combination(reduced)
        if gg != 1:
            raise InternalInvariantError("reduced support degrees are not coprime")
        T = _1
        for idx, j in enumerate(support):
            w = weights.get(idx, 0)
            if w:
                T *= c[j] ** w
        canonical = tuple(c[j] / T ** (j // g) for j in support)
    return AffineClass(n, support, canonical, tuple(q.coeffs))


REASON_EQUIVALENT = "equivalent"
REASON_DEGREE = "degree-mismatch"
REASON_PATTERN = "zero-pattern-mismatch"
REASON_SCALE = "scale-invariant-mismatch"


def classify_pair(p: CharPoly, q: CharPoly) -> Tuple[bool, str]:
    if p.degree != q.degree:
        return False, REASON_DEGREE
    a = affine_class(p)
    b = affine_class(q)
    if a.support != b.support:
        return False, REASON_PATTERN
    if a.canonical != b.canonical:
        return False, REASON_SCALE
    return True, REASON_EQUIVALENT


# -- Lie-algebra side: adjoint action -----------------------------------------


def adjoint_on_derived(L: LieAlgebraTable, D: Subalgebra, i: int) -> Mat:
    """Matrix of [e_i, .] on D's basis, for the basis element e_i; column c
    holds the coords of [e_i, d_c].

    For d_c = row_c/p_c, the numerator bracket of e_i and row_c is
    E*p_c*[e_i, d_c]; its coordinates are its pivot entries.
    """
    u = [int(t == i) for t in range(L.m)]
    cols: List[Vec] = []
    for c, row in D.rows:
        w = L.bracket_numerators(u, row)
        if any(eliminate(w, D.rows)):
            raise InternalInvariantError(
                "bracket with the derived algebra leaves its span "
                "(ideal property violated)")
        scale = L.den * row[c]
        cols.append([Fraction(w[k], scale) for k, _ in D.rows])
    return [list(coords) for coords in zip(*cols)]


def recovery_details(L: LieAlgebraTable,
                     D: Subalgebra) -> Tuple[Mat, CharPoly]:
    """(action matrix, char poly) of the first basis element e_i, in index
    order, that acts on D as a non-scalar matrix.  D is abelian, so an
    element of D acts as zero and one of span(D, e_i) as a multiple of e_i's
    action: the walk stops at the first of the two factor-space
    representatives (the first two e_i to enlarge D's span) that acts as a
    non-scalar.  The scalar actions form a subspace, so if both act as
    scalars, all of L/D does."""
    if not D.abelian:
        raise InternalInvariantError("derived algebra is not abelian")
    for i in range(L.m):
        A = adjoint_on_derived(L, D, i)
        if not is_scalar_matrix(A):
            return A, CharPoly(tuple(matrix_charpoly(A)))
    raise InternalInvariantError(
        "every basis element acts as a scalar; an all-equal spectrum "
        "belongs to the maximal class, not to m = n+2")


def class_to_ode(c: AffineClass) -> str:
    """Representative constant-coefficient linear ODE of a class: the
    centered representative, rendered as e.g. "u''' - u' = 0"."""
    full = c.centered_coeffs + (_1,)
    return signed_sum((full[k], deriv_marker(k, "u"))
                      for k in reversed(range(len(full)))) + " = 0"
