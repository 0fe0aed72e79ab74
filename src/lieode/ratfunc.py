"""Normalized rational functions over Q.

A RatFunc is a pair of MPoly values num/den with den != 0, gcd(num, den) = 1
and the denominator's graded-lex leading coefficient equal to 1.  Under that
normalization the representation of a value is unique, so ``==`` decides
mathematical equality.

``RatFunc(num, den)`` normalizes any pair of MPoly values, and every value
is built by it.  Negation and powers keep a coprime pair coprime, so they
pass ``coprime`` and take no gcd.

Every derivative is ``derive``, given the images of the variables;
``polynomial_derivation`` clears their denominators, for ``derive`` and for
callers that differentiate polynomials without building a RatFunc.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple, Union

from .polys import ONE, ZERO, MPoly, divexact, gcd

Scalar = Union[int, Fraction]


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: Optional[MPoly] = None, *,
                 coprime: bool = False):
        """num/den over MPoly values, den 1 if omitted; see ``const``.  A
        caller that knows gcd(num, den) = 1 passes ``coprime`` and no gcd
        is taken."""
        if den is None:
            den = ONE
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = ZERO, ONE
        else:
            g = ONE if coprime else gcd(num, den)
            if not g.is_const():
                num = divexact(num, g)
                den = divexact(den, g)
            num, den = _monic_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("RatFunc is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(ZERO)

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(ONE)

    @staticmethod
    def const(c: Scalar) -> "RatFunc":
        return RatFunc(MPoly.const(c))

    @staticmethod
    def variable(name: str) -> "RatFunc":
        return RatFunc(MPoly.variable(name))

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def variables(self) -> tuple:
        return tuple(sorted(set(self.num.vars) | set(self.den.vars),
                            key=lambda v: (v not in self.num.vars, v)))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # over denominator 1 it hashes as its numerator, so a constant
        # hashes as the Fraction value it compares equal to
        if self.den.is_const():
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den.is_const():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"

    # -- arithmetic -------------------------------------------------------------

    @staticmethod
    def _coerce(v) -> Optional["RatFunc"]:
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, (int, Fraction)):
            return RatFunc.const(v)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, coprime=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k == 0:
            return RatFunc.one()
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den ** (-k), self.num ** (-k), coprime=True)
        return RatFunc(self.num ** k, self.den ** k, coprime=True)

    # -- calculus -----------------------------------------------------------------

    def derive(self, images: Mapping[str, "RatFunc"]) -> "RatFunc":
        """D(self) for the derivation D with D(v) = images[v], 0 if absent
        (Bronstein, *Symbolic Integration I*, ch. 3).

        M, the lcm of the images' denominators, makes M D map polynomials to
        polynomials.  With P/Q = self, G = gcd(Q, M DQ) and R = Q/G,
        D(P/Q) = (R M DP - P (M DQ)/G) / (M Q R): G keeps repeated factors
        of Q from squaring, and the constructor's gcd cancels the rest.
        """
        m, poly = polynomial_derivation(images)
        p, q = self.num, self.den
        dq = q.derive(poly)
        g = gcd(q, dq)
        r = divexact(q, g)
        return RatFunc(p.derive(poly) * r - p * divexact(dq, g), m * q * r)


def polynomial_derivation(images: Mapping[str, RatFunc]
                          ) -> Tuple[MPoly, Dict[str, MPoly]]:
    """(M, images of M D) for the derivation D with D(v) = images[v]: M is
    the lcm of the images' denominators, so M D maps polynomials to
    polynomials."""
    m = ONE
    for w in images.values():
        if not w.den.is_const():
            m = m * divexact(w.den, gcd(m, w.den))
    return m, {v: w.num * divexact(m, w.den) for v, w in images.items()}


def _monic_pair(num: MPoly, den: MPoly) -> Tuple[MPoly, MPoly]:
    """(num, den) scaled so that den has leading coefficient 1: both times
    den's denominator over its leading numerator."""
    n, d = den.den, den.leading_numerator()
    if n == d == 1:
        return num, den
    return num.scaled(n, d), den.scaled(n, d)

