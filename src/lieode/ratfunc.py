"""Normalized rational functions over Q.

A RatFunc is a pair of MPoly values num/den with den != 0, gcd(num, den) = 1
and the denominator's graded-lex leading coefficient equal to 1.  Under that
normalization the representation of a value is unique, so ``==`` decides
mathematical equality.

``RatFunc(num, den)`` normalizes any pair of MPoly values.  Constants,
variables, and sums, products, quotients and powers of canonical operands
are built by ``_new``, which trusts that its pair is coprime and only
scales the denominator's leading coefficient to 1: they take the gcds that
can be nontrivial and no others (Henrici's algorithms, Knuth, TAOCP vol. 2,
4.5.1).  A canonical denominator that is constant is 1, so a sum or product
of two polynomials takes no gcd at all.

Every derivative is ``derive``, given the images of the variables.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Tuple, Union

from .polys import ONE, ZERO, MPoly, divexact, gcd

Scalar = Union[int, Fraction]


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: Optional[MPoly] = None):
        """num/den over MPoly values, den 1 if omitted; see ``const``."""
        if den is None:
            den = ONE
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = ZERO, ONE
        else:
            g = gcd(num, den)
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
        return _new(ONE, ONE)

    @staticmethod
    def const(c: Scalar) -> "RatFunc":
        return _new(MPoly.const(c), ONE)

    @staticmethod
    def variable(name: str) -> "RatFunc":
        return _new(MPoly.variable(name), ONE)

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
        if self.den.is_const() and o.den.is_const():
            # both denominators are 1
            return _new(self.num + o.num, ONE)
        # a/b + c/d: with g = gcd(b, d), b = b'g and d = d'g, the numerator
        # t = a d' + c b' is prime to b' and d', so only gcd(t, g) can cancel
        g = gcd(self.den, o.den)
        if g.is_const():
            return _new(self.num * o.den + o.num * self.den, self.den * o.den)
        db = divexact(self.den, g)
        t = self.num * divexact(o.den, g) + o.num * db
        g2 = gcd(t, g)
        if g2.is_const():
            return _new(t, db * o.den)
        return _new(divexact(t, g2), db * divexact(o.den, g2))

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RatFunc)   # -num/den is already canonical
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

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
        if self.is_zero() or o.is_zero():
            return RatFunc.zero()
        if self.den.is_const() and o.den.is_const():
            return _new(self.num * o.num, ONE)
        g1 = gcd(self.num, o.den)
        g2 = gcd(o.num, self.den)
        n1 = self.num if g1.is_const() else divexact(self.num, g1)
        d2 = o.den if g1.is_const() else divexact(o.den, g1)
        n2 = o.num if g2.is_const() else divexact(o.num, g2)
        d1 = self.den if g2.is_const() else divexact(self.den, g2)
        return _new(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * _new(o.den, o.num)

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
            return _new(self.den ** (-k), self.num ** (-k))
        return _new(self.num ** k, self.den ** k)

    # -- calculus -----------------------------------------------------------------

    def derive(self, images: Mapping[str, "RatFunc"]) -> "RatFunc":
        """D(self) for the derivation D with D(v) = images[v], 0 if absent
        (Bronstein, *Symbolic Integration I*, ch. 3).

        M, the lcm of the images' denominators, makes M D map polynomials to
        polynomials.  With P/Q = self, G = gcd(Q, M DQ) and R = Q/G,
        D(P/Q) = (R M DP - P (M DQ)/G) / (M Q R): G keeps repeated factors
        of Q from squaring, and the constructor's gcd cancels the rest.
        """
        m = ONE
        for w in images.values():
            if not w.den.is_const():
                m = m * divexact(w.den, gcd(m, w.den))
        poly = {v: w.num * divexact(m, w.den) for v, w in images.items()}
        p, q = self.num, self.den
        dq = q.derive(poly)
        g = gcd(q, dq)
        r = divexact(q, g)
        return RatFunc(p.derive(poly) * r - p * divexact(dq, g), m * q * r)


def _monic_pair(num: MPoly, den: MPoly) -> Tuple[MPoly, MPoly]:
    """(num, den) scaled so that den has leading coefficient 1: both times
    den's denominator over its leading numerator."""
    n, d = den.den, den.leading_numerator()
    if n == d == 1:
        return num, den
    return num.scaled(n, d), den.scaled(n, d)


def _new(num: MPoly, den: MPoly) -> RatFunc:
    """Trusted constructor: ``num`` and ``den`` coprime, ``den`` nonzero.

    Only scales the pair so that the denominator's leading coefficient is 1.
    """
    if num.is_zero():
        return RatFunc.zero()
    num, den = _monic_pair(num, den)
    out = object.__new__(RatFunc)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out
