"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial is stored as integer numerators over one common denominator:
``num`` maps packed monomials (below) to nonzero ``int`` coefficients and
``den`` is a positive ``int`` with ``gcd(den, *num.values()) == 1``, so the
coefficient of a monomial is ``num[k] / den``.  ``vars`` is the tuple of
variable names, sorted by ``var_rank``, and every one of them occurs in some
term.  Under these invariants the representation of a value is unique, so
``==`` and ``hash`` are equality of mathematical values; a constant hashes
as its ``Fraction`` value, which it compares equal to.  ``terms`` (a dict
of ``Fraction`` values) and ``numerators`` (integer numerators, highest
monomial first) give the monomials as exponent tuples; ``xy_numerators``
gives the (x, y) exponents and numerator of each term of a polynomial in
x and y alone, read from the packed keys with no sort.

A monomial is packed into one ``int`` (Bachmann and Schönemann, ISSAC 1998;
Monagan and Pearce, CASC 2007): the exponent of ``vars[i]`` sits in bits
[32i, 32i + 32), whose top bit is a guard that stays clear, and the total
degree sits above every field.  Integer order is then the monomial order,
so the leading monomial is ``max(num)`` and the key of a product of
monomials is the sum of their keys.  A total degree of 2**31 or more raises
``InputError``; below it no field reaches its guard bit, and a difference
of keys has a guard bit set exactly when some exponent went negative.

``MPoly(vars, terms)`` canonicalizes arbitrary input; the tests build
polynomials with it, while the other modules start from ``MPoly.const`` and
``MPoly.variable`` and use arithmetic; no other module reads or writes a
packed key.  Inside this module, results are built by ``_new``, which
trusts its input and only cancels the common factor of ``den`` and the
numerators, or by ``_new_pruned``, which also drops variables that no
longer occur; the latter is used only where a variable can disappear (a
sum that cancelled a term, a derivative, coefficient extraction, a
monomial strip and a quotient).  A product of nonzero polynomials keeps
all its variables, since degrees add in an integral domain.

``scaled`` and ``add_scaled`` take constants, which most eliminations of
``involutive`` meet, as scalars: one integer numerator over one
denominator and one gcd, the shared ``ZERO`` when a sum cancels, and no
alignment, dict merge or variable scan; the result, hash included, is the
general path's.

``FixedLayout`` serves a chain of products, scaled sums and one derivation
(``MPoly.derive`` is the shortest such chain): it lifts the operands and
the derivation's images once into the union of their variables and works
on raw numerator dicts there, skipping the per-step pruning and
normalization; its ``build`` prunes and normalizes once, at the end.

``cofactors(a, b)`` and ``content(coeffs)`` give a gcd g with every c/g
(content and primitive part, Geddes, Czapor and Labahn, *Algorithms for
Computer Algebra*, 1992, section 2.7): both divide exactly before any gcd.
``gcd`` of operands that share one variable w folds the integer numerators
of their coefficients in w by one primitive Euclid over Z (``_euclid``),
with no ``MPoly`` per coefficient.

The monomial order is graded lexicographic with higher-ranked variables
more significant; the variable ranking is x < y < y' < y'' < ... < t1 < t2
(t-symbols are auxiliary transcendental markers used by the pushforward
machinery) < anything else alphabetically.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _igcd, lcm as _ilcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import InputError

Exps = Tuple[int, ...]
Lifted = Tuple[Dict[int, int], int]     # FixedLayout's (numerators, den)

_W = 32                      # bits per exponent field
_FIELD = (1 << _W) - 1
_DEGREE_BOUND = 1 << (_W - 1)


def var_rank(name: str) -> tuple:
    """Global ordering key for variable names."""
    if name == "x":
        return (0, 0, "")
    if name == "y":
        return (1, 0, "")
    if name[:1] == "y" and name[1:].isdigit():
        return (2, int(name[1:]), "")
    if name[:1] == "t" and name[1:].isdigit():
        return (3, int(name[1:]), "")
    return (4, 0, name)


def _degree_error(degree: int) -> InputError:
    return InputError("a monomial of total degree %d: total degrees must stay "
                      "below 2^31 = %d" % (degree, _DEGREE_BOUND))


def _pack(e: Exps) -> int:
    """The key of the monomial with exponent tuple `e`."""
    degree = sum(e)
    if degree >= _DEGREE_BOUND:
        raise _degree_error(degree)
    if min(e, default=0) < 0:
        raise ValueError("negative exponent in %r" % (e,))
    k = degree << (_W * len(e))
    for i, x in enumerate(e):
        k |= x << (_W * i)
    return k


def _unpack(k: int, n: int) -> Exps:
    """The exponent tuple of key `k` over `n` variables."""
    return tuple([(k >> s) & _FIELD for s in range(0, _W * n, _W)])


@lru_cache(maxsize=64)
def _guard(n: int) -> int:
    """The guard bits of `n` exponent fields."""
    return sum(1 << (_W * i + _W - 1) for i in range(n))


@lru_cache(maxsize=1024)
def _union(a: Tuple[str, ...], b: Tuple[str, ...]) -> Tuple[str, ...]:
    """The variables of `a` and `b`, sorted by rank."""
    return tuple(sorted(set(a) | set(b), key=var_rank))


@lru_cache(maxsize=1024)
def _layout(src: Tuple[str, ...], dst: Tuple[str, ...]):
    """How keys over `src` move to `dst`: (moves, s, t).  Each move is
    (mask, left shift, right shift) for the fields that shift by the same
    distance; the fields of variables not in `dst` are in no mask.  The
    degree moves from bit s to bit t."""
    masks: Dict[int, int] = {}
    for i, v in enumerate(src):
        if v in dst:
            shift = _W * (dst.index(v) - i)
            masks[shift] = masks.get(shift, 0) | _FIELD << (_W * i)
    return (tuple((m, max(shift, 0), max(-shift, 0))
                  for shift, m in masks.items()),
            _W * len(src), _W * len(dst))


def _remap(num: Dict[int, int], src: Tuple[str, ...],
           dst: Tuple[str, ...]) -> Dict[int, int]:
    """`num` over `src` with its keys moved to `dst`, keeping the degree;
    the exponents of variables not in `dst` must be 0."""
    moves, s, t = _layout(src, dst)
    out = {}
    for k, c in num.items():
        key = k >> s << t
        for m, left, right in moves:
            key |= (k & m) << left >> right
        out[key] = c
    return out


class MPoly:
    """Immutable sparse polynomial in named variables over Q."""

    __slots__ = ("vars", "num", "den")

    def __new__(cls, vars: Sequence[str], terms: Mapping[Exps, Fraction]):
        clean = {tuple(e): Fraction(c) for e, c in terms.items() if c}
        den = _ilcm(*(c.denominator for c in clean.values()))
        vars = tuple(vars)
        if any(len(e) != len(vars) for e in clean):
            raise ValueError("exponent tuples must have one entry per "
                             "variable of %r" % (vars,))
        order = sorted(range(len(vars)), key=lambda i: var_rank(vars[i]))
        num = {_pack(tuple([e[i] for i in order])):
               c.numerator * (den // c.denominator) for e, c in clean.items()}
        return _new_pruned(tuple(vars[i] for i in order), num, den)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("MPoly is immutable")

    @property
    def terms(self) -> Dict[Exps, Fraction]:
        """Coefficients as a fresh dict of ``Fraction`` values."""
        d, n = self.den, len(self.vars)
        return {_unpack(k, n): Fraction(c, d) for k, c in self.num.items()}

    def numerators(self) -> List[Tuple[Exps, int]]:
        """(exponent tuple, integer numerator) pairs, highest monomial
        first; each coefficient is its numerator over ``den``."""
        n = len(self.vars)
        return [(_unpack(k, n), c)
                for k, c in sorted(self.num.items(), reverse=True)]

    def xy_numerators(self) -> Optional[List[Tuple[int, int, int]]]:
        """(i, j, integer numerator) for each term x^i y^j, in no set
        order, read from the packed keys; None if a variable other than x
        and y occurs."""
        vs, num = self.vars, self.num
        if vs == ("x", "y"):
            return [(k & _FIELD, k >> _W & _FIELD, c) for k, c in num.items()]
        if vs == ("y",):
            return [(0, k & _FIELD, c) for k, c in num.items()]
        if vs in ((), ("x",)):
            return [(k & _FIELD, 0, c) for k, c in num.items()]
        return None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "MPoly":
        """The constant c; 0 and 1 are the shared ``ZERO`` and ``ONE``."""
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if c == 1:
            return ONE
        if not c:
            return ZERO
        return _new((), {0: c.numerator}, c.denominator)

    @staticmethod
    def variable(name: str) -> "MPoly":
        return _new((name,), {1 | 1 << _W: 1}, 1)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_const(self) -> bool:
        return not self.vars

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        s = _W * self.vars.index(name)
        return max([(k >> s) & _FIELD for k in self.num])

    def leading_numerator(self) -> int:
        """Integer numerator of the leading coefficient, which is this
        numerator over ``den``."""
        if not self.num:
            raise ValueError("zero polynomial has no leading term")
        return self.num[max(self.num)]

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.vars == other.vars and self.den == other.den
                and self.num == other.num)

    def __hash__(self) -> int:
        if not self.vars:
            # an int hashes as the Fraction of the same value
            n = self.num.get(0, 0)
            return hash(n) if self.den == 1 else hash(Fraction(n, self.den))
        return hash((self.vars, self.den, frozenset(self.num.items())))

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        bits = []
        for e, c in self.numerators():
            c = Fraction(c, self.den)
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e)
                if k
            )
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits)

    # -- alignment ---------------------------------------------------------

    def _aligned(self, other: "MPoly"):
        """(common vars, own numerators, other's numerators) over the union."""
        if self.vars == other.vars:
            return self.vars, self.num, other.num
        vs = _union(self.vars, other.vars)
        a = self.num if self.vars == vs else _remap(self.num, self.vars, vs)
        b = other.num if other.vars == vs else _remap(other.num, other.vars, vs)
        return vs, a, b

    # -- arithmetic --------------------------------------------------------

    def add_scaled(self, other: "MPoly", n: int, d: int = 1) -> "MPoly":
        """self + (n / d) * other for integers n and d > 0, in one pass,
        without forming (n / d) * other."""
        if not n or not other.num:
            return self
        if not self.num:
            return other if n == d == 1 else other.scaled(n, d)
        if not (self.vars or other.vars):
            # a / da + n b / (d db), one gcd in _new; ZERO if it cancels
            db = other.den * d
            s = self.num[0] * db + n * other.num[0] * self.den
            return _new((), {0: s}, self.den * db) if s else ZERO
        vs, a, b = self._aligned(other)
        da, db = self.den, other.den * d
        den = da if da == db else _ilcm(da, db)
        sa, sb = den // da, n * (den // db)
        out = dict(a) if sa == 1 else {e: c * sa for e, c in a.items()}
        cancelled = False
        for e, c in b.items():
            s = out.get(e, 0) + c * sb
            if s:
                out[e] = s
            else:
                del out[e]
                cancelled = True
        return (_new_pruned if cancelled else _new)(vs, out, den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.add_scaled(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.vars, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.add_scaled(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def scaled(self, n: int, d: int = 1) -> "MPoly":
        """self * n / d for integers n and d != 0, without a ``Fraction``."""
        if not n or not self.num:
            return ZERO
        if n == d:
            return self
        if d < 0:
            n, d = -n, -d
        if not self.vars:
            return _new((), {0: self.num[0] * n}, self.den * d)
        return _new(self.vars, {e: c * n for e, c in self.num.items()},
                    self.den * d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other.numerator, other.denominator)
        if not isinstance(other, MPoly):
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if not self.vars:
            return other.scaled(self.num[0], self.den)
        if not other.vars:
            return self.scaled(other.num[0], other.den)
        vs, a, b = self._aligned(other)
        return _new(vs, _packed_product(a, b, len(vs)), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- calculus and coefficients -------------------------------------------

    def derivative(self, name: str) -> "MPoly":
        if name not in self.vars:
            return ZERO
        s = _W * self.vars.index(name)
        step = 1 << s | 1 << (_W * len(self.vars))
        out: Dict[int, int] = {}
        for k, c in self.num.items():
            e = (k >> s) & _FIELD
            if e:
                out[k - step] = c * e
        return _new_pruned(self.vars, out, self.den)

    def derive(self, images: Mapping[str, "MPoly"]) -> "MPoly":
        """The derivation that sends each variable v to images[v] (to 0 when
        v has no image), applied to self: sum over v of dself/dv * images[v],
        in one pass (``FixedLayout.derive``)."""
        images = {v: w for v in self.vars if (w := images.get(v))}
        if not images:
            return ZERO
        ring = FixedLayout(images, self)
        return ring.build(ring.derive(ring.lifted[0]))

    def coeffs_in(self, name: str):
        """Dense coefficient list in one variable; entries are MPoly without it."""
        if name not in self.vars:
            return [self]
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        # fields below i stay, the ones above move down one field, and the
        # degree, now above len(rest) fields, loses the exponent of `name`
        s, low, top = _W * i, (1 << _W * i) - 1, _W * len(rest)
        buckets: list = [dict() for _ in range(self.degree_in(name) + 1)]
        for k, c in self.num.items():
            e = (k >> s) & _FIELD
            buckets[e][(k & low) + (k >> (s + _W) << s) - (e << top)] = c
        return [_new_pruned(rest, b, self.den) for b in buckets]

    def coeffs_over(self, names) -> Dict[Tuple[Tuple[str, int], ...], "MPoly"]:
        """Nonzero coefficients over the monomials in `names`, keyed by the
        monomial as its (name, exponent) pairs with exponent > 0, sorted by
        name; entries are MPoly without those variables."""
        fields = sorted((v, _W * i) for i, v in enumerate(self.vars)
                        if v in names)
        if not fields:
            return {(): self}
        rest = tuple(v for v in self.vars if v not in names)
        moves, s, t = _layout(self.vars, rest)
        buckets: Dict[tuple, Dict[int, int]] = {}
        for k, c in self.num.items():
            key = []
            degree = k >> s
            for v, f in fields:
                e = (k >> f) & _FIELD
                if e:
                    key.append((v, e))
                    degree -= e
            r = degree << t
            for m, left, right in moves:
                r |= (k & m) << left >> right
            buckets.setdefault(tuple(key), {})[r] = c
        return {k: _new_pruned(rest, b, self.den) for k, b in buckets.items()}


_alloc = object.__new__
_set_vars = MPoly.vars.__set__
_set_num = MPoly.num.__set__
_set_den = MPoly.den.__set__


def _new(vars: Tuple[str, ...], num: Dict[int, int], den: int) -> MPoly:
    """Trusted constructor: `vars` sorted and all used, `num` nonzero ints,
    `den` > 0.  Only the common factor of `den` and the numerators is
    cancelled."""
    if den != 1:
        g = _igcd(den, *num.values())
        if g != 1:
            den //= g
            num = {e: c // g for e, c in num.items()}
    p = _alloc(MPoly)
    _set_vars(p, vars)
    _set_num(p, num)
    _set_den(p, den)
    return p


# The constants 0 and 1, shared by every caller: no operation changes the
# ``num`` of an operand, so one instance of each serves all.
ZERO = _new((), {}, 1)
ONE = _new((), {0: 1}, 1)


def _new_pruned(vars: Tuple[str, ...], num: Dict[int, int], den: int) -> MPoly:
    """`_new` for results where a variable may no longer occur."""
    if not num:
        return ZERO
    used = 0
    for k in num:
        used |= k
    kept = tuple([v for i, v in enumerate(vars) if (used >> (_W * i)) & _FIELD])
    if len(kept) != len(vars):
        num = _remap(num, vars, kept)
        vars = kept
    return _new(vars, num, den)


def _packed_product(a: Dict[int, int], b: Dict[int, int], n: int
                    ) -> Dict[int, int]:
    """The product of two nonzero coefficient dicts packed over one layout
    of `n` variables.  The leading monomials multiply, so the product's
    degree is the degree of theirs: at 2**31 it raises ``InputError``."""
    degree = (max(a) + max(b)) >> (_W * n)
    if degree >= _DEGREE_BOUND:
        raise _degree_error(degree)
    out: Dict[int, int] = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = ea + eb
            s = get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]
    return out


class FixedLayout:
    """Polynomials lifted once into one packed layout, for a chain of
    products, scaled sums and one derivation whose results all stay in it.

    The layout is the union of the variables of `polys` and of the values of
    `images`, so the derivation that sends v to images[v] (to 0 when v has
    no image) never leaves it; each operand and each image is remapped once,
    here, and the images are put over the lcm of their denominators.  A
    lifted polynomial is a pair (numerators, denominator) that only this
    class reads: ``lifted`` holds those of `polys`, in order, and ``zero``
    that of 0.  Results are neither pruned nor normalized between steps;
    ``build`` does both once."""

    __slots__ = ("vars", "lifted", "zero", "_n", "_den", "_images")

    def __init__(self, images: Mapping[str, MPoly], *polys: MPoly):
        vs: Tuple[str, ...] = ()
        for p in (*polys, *images.values()):
            vs = _union(vs, p.vars)
        self.vars, self._n = vs, len(vs)
        self.lifted = [(self._lift(p), p.den) for p in polys]
        self.zero = ({}, 1)
        live = [(v, w) for v, w in images.items() if w.num and v in vs]
        self._den = den = _ilcm(*[w.den for _, w in live])
        self._images = [(_W * vs.index(v), self._lift(w, den // w.den))
                        for v, w in live]

    def _lift(self, p: MPoly, m: int = 1) -> Dict[int, int]:
        num = p.num if p.vars == self.vars else _remap(p.num, p.vars, self.vars)
        return num if m == 1 else {k: c * m for k, c in num.items()}

    def mul(self, a: Lifted, b: Lifted) -> Lifted:
        if not a[0] or not b[0]:
            return self.zero
        return _packed_product(a[0], b[0], self._n), a[1] * b[1]

    def add_scaled(self, a: Lifted, b: Lifted, n: int, d: int = 1) -> Lifted:
        """a + (n / d) * b for integers n and d > 0."""
        (na, da), (nb, db) = a, b
        if not n or not nb:
            return a
        db *= d
        den = da if da == db else _ilcm(da, db)
        sa, sb = den // da, n * (den // db)
        out = dict(na) if sa == 1 else {k: c * sa for k, c in na.items()}
        for k, c in nb.items():
            t = out.get(k, 0) + c * sb
            if t:
                out[k] = t
            else:
                del out[k]
        return out, den

    def derive(self, a: Lifted) -> Lifted:
        """The derivation applied to a: for each variable with an image, the
        partial of a times the image is added into one dict.  As in a
        product, the leading keys decide the total degree bound before any
        term is formed."""
        top = _W * self._n
        out: Dict[int, int] = {}
        get = out.get
        for s, b in self._images:
            step = 1 << s | 1 << top
            d = {k - step: c * e for k, c in a[0].items()
                 if (e := (k >> s) & _FIELD)}
            if not d:
                continue
            degree = (max(d) + max(b)) >> top
            if degree >= _DEGREE_BOUND:
                raise _degree_error(degree)
            for eb, cb in b.items():
                for ed, cd in d.items():
                    key = ed + eb
                    t = get(key, 0) + cd * cb
                    if t:
                        out[key] = t
                    else:
                        del out[key]
        return out, a[1] * self._den

    def build(self, a: Lifted) -> MPoly:
        return _new_pruned(self.vars, *a)


# -- exact division ---------------------------------------------------------


def try_divexact(a: MPoly, b: MPoly) -> Optional[MPoly]:
    """Return a/b when b divides a exactly, else None.

    Divides the integer numerators of `a` by the primitive part of `b` over
    Z.  By Gauss's lemma a primitive divisor of an integral polynomial
    leaves an integral quotient, so a quotient coefficient that is not an
    integer shows the division is inexact.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return ZERO
    if b.is_const():
        return a.scaled(b.den, b.num[0])
    vs, ta, tb = a._aligned(b)
    content = _igcd(*tb.values())
    if content != 1:
        tb = {e: c // content for e, c in tb.items()}
    rem = dict(ta)
    lead_b = max(tb)
    cb = tb[lead_b]
    guard = _guard(len(vs))
    quot: Dict[int, int] = {}
    while rem:
        lead_r = max(rem)
        diff = lead_r - lead_b
        # an exponent of lead_b above lead_r's borrows into a guard bit
        if diff < 0 or diff & guard:
            return None
        cq, r = divmod(rem[lead_r], cb)
        if r:
            return None
        quot[diff] = cq
        for e, c in tb.items():
            key = e + diff
            s = rem.get(key, 0) - c * cq
            if s:
                rem[key] = s
            else:
                del rem[key]
    # a / b = (A / den_a) / (content * B / den_b) = quot * den_b / (den_a * content)
    if b.den != 1:
        quot = {e: c * b.den for e, c in quot.items()}
    return _new_pruned(vs, quot, a.den * content)


def divexact(a: MPoly, b: MPoly) -> MPoly:
    q = try_divexact(a, b)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q


# -- gcd ---------------------------------------------------------------------


def _monic(p: MPoly) -> MPoly:
    """p divided by its leading coefficient: the leading numerator becomes
    the denominator; a nonzero constant gives the shared ``ONE``, and a
    monic p is returned itself."""
    if p.is_zero():
        return p
    if not p.vars:
        return ONE
    lead = p.leading_numerator()
    if lead == p.den:
        return p
    num = p.num if lead > 0 else {e: -c for e, c in p.num.items()}
    return _new(p.vars, num, abs(lead))


def _strip_monomial(p: MPoly):
    """Factor out the largest common monomial; return ({name: exponent} of
    the monomial, stripped)."""
    if 0 in p.num:
        return {}, p
    mins = tuple([min([(k >> s) & _FIELD for k in p.num])
                  for s in range(0, _W * len(p.vars), _W)])
    if not any(mins):
        return {}, p
    m = _pack(mins)
    stripped = _new_pruned(p.vars, {k - m: c for k, c in p.num.items()},
                           p.den)
    mono = {v: k for v, k in zip(p.vars, mins) if k}
    return mono, stripped


def _mono_poly(mono: Mapping[str, int]) -> MPoly:
    names = tuple(sorted(mono, key=var_rank))
    return _new(names, {_pack(tuple([mono[v] for v in names])): 1}, 1)


def _primitive(f: Dict[int, int]) -> Dict[int, int]:
    g = _igcd(*f.values())
    return f if g == 1 else {k: v // g for k, v in f.items()}


def _euclid(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """The primitive gcd over Z of two nonzero polynomials in one variable,
    given and returned as {exponent: numerator} dicts: Euclid on primitive
    pseudo-remainders.  The arguments are not changed."""
    a, b = _primitive(a), _primitive(b)
    while b:
        db = max(b)
        lc = b[db]
        r = a
        while r and max(r) >= db:
            dd = max(r)
            # r <- (lc * r - c * w^(dd - db) * b) / gcd(lc, c), on a copy of a
            g = _igcd(lc, r[dd])
            m1, m2 = lc // g, r[dd] // g
            if m1 != 1 or r is a:
                r = {k: v * m1 for k, v in r.items()}
            for k, v in b.items():
                kk = k + dd - db
                s = r.get(kk, 0) - m2 * v
                if s:
                    r[kk] = s
                else:
                    r.pop(kk, None)
        a, b = b, _primitive(r) if r else r
    return a


def _gcd_one_shared(a: MPoly, b: MPoly, w: str) -> MPoly:
    """gcd, up to a constant, of a and b, free of monomial factors and
    sharing only w: the `_euclid` fold of their coefficients over their
    other variables (`_split`), smallest first and ties by value.  A part of
    one term shares at most a power of w, which divides neither: then 1."""
    parts = [f for p in (a, b)
             for f in _split(p, w, tuple([v for v in p.vars if v != w]))
             .values()]
    parts.sort(key=lambda f: (len(f), sorted(f.items())))
    g = parts[0]
    for f in parts[1:]:
        if len(g) == 1:
            return ONE
        g = _euclid(g, f)
    if len(g) == 1:
        return ONE
    return _new((w,), {e | e << _W: c for e, c in g.items()}, 1)


def _divides(d: MPoly, a: MPoly) -> bool:
    """Whether d divides a, both over the same variables; a degree in some
    variable above a's rules it out before any division."""
    for s in range(0, _W * len(d.vars), _W):
        if (max([(k >> s) & _FIELD for k in d.num])
                > max([(k >> s) & _FIELD for k in a.num])):
            return False
    return try_divexact(a, d) is not None


def _split(p: MPoly, w: str, rest: Tuple[str, ...]) -> Dict[int, Dict[int, int]]:
    """p's numerators by monomial over `rest`, which holds p's variables
    other than `w`: {key over rest: {exponent of w: numerator}}.  One pass
    over the packed keys, which drop w's field and its share of the degree
    by the shift-and-mask of `_remap`."""
    moves, s, t = _layout(p.vars, rest)
    f = _W * p.vars.index(w) if w in p.vars else None
    out: Dict[int, Dict[int, int]] = {}
    for k, c in p.num.items():
        e = 0 if f is None else (k >> f) & _FIELD
        key = ((k >> s) - e) << t
        for m, left, right in moves:
            key |= (k & m) << left >> right
        out.setdefault(key, {})[e] = c
    return out


def _values(split: Dict[int, Dict[int, int]], alpha: int) -> Dict[int, int]:
    """The nonzero numerators of a `_split` polynomial at w = alpha."""
    return {k: v for k, coeffs in split.items()
            if (v := sum([c * alpha ** e for e, c in coeffs.items()]))}


def _image(p: MPoly, w: str, rest: Tuple[str, ...], alpha: int) -> MPoly:
    """p at w = alpha."""
    return _new_pruned(rest, _values(_split(p, w, rest), alpha), p.den)


def _content_over(split: Dict[int, Dict[int, int]], w: str):
    """`content` of a `_split` polynomial over its other variables: the gcd
    of its coefficients, which are polynomials in `w` alone, and their
    quotients by it."""
    return content([_new_pruned((w,), {e | e << _W: c for e, c in cs.items()},
                                1) for cs in split.values()])


def _primitive_over(p: MPoly, w: str, rest: Tuple[str, ...]):
    """(p divided by its content over `rest`, that quotient's `_split`, the
    content).  The quotient is put together from the coefficients'
    quotients, which `content` returns, so p is divided only once."""
    split = _split(p, w, rest)
    cont, quots = _content_over(split, w)
    if cont is ONE:
        return p, split, cont
    # p / cont is the sum of key * q over p.den.  Each q = c / cont is
    # integral: cont = G / lc(G) with G primitive in Z[w], and G divides
    # lc(G) c in Q[w], hence in Z[w] (Gauss's lemma).
    split = {key: {k & _FIELD: c for k, c in q.num.items()}
             for key, q in zip(split, quots)}
    full = _union(rest, (w,))
    f, t = _W * full.index(w), _W * len(full)
    moved = _remap({key: key for key in split}, rest, full)
    q = _new_pruned(full, {k + (e << f) + (e << t): c
                           for k, key in moved.items()
                           for e, c in split[key].items()}, p.den)
    g = p.den // q.den     # the factor that _new cancelled
    if g != 1:
        split = {key: {e: c // g for e, c in cs.items()}
                 for key, cs in split.items()}
    return q, split, cont


def _gcd_interpolated(a: MPoly, b: MPoly) -> MPoly:
    """gcd of a and b over the same two or more variables, by Brown's dense
    evaluation and interpolation over Q (Brown, J. ACM 18, 1971; Geddes,
    Czapor and Labahn, *Algorithms for Computer Algebra*, 1992, ch. 7).

    One variable w, of smallest degree, is evaluated at 0, 1, 2, ...; R is
    the tuple of the others.  The operands are divided by their contents
    over R, whose gcd c is the content of the gcd, so the primitive gcd G
    remains.  Let gamma be the gcd of the operands' leading coefficients over
    R, in the monomial order of R; it is a multiple of G's.  Points where a
    leading coefficient vanishes are skipped.  At each other point the image
    gcd h (a gcd over R, so the recursion ends) is divisible by G's image,
    which keeps G's leading monomial; so h's leading monomial is never below
    G's, and when equal, h is G's image up to a constant.  That happens at
    all but finitely many points: the lucky ones.  A point whose leading
    monomial is above the lowest one seen is skipped as unlucky, and one
    below it restarts the interpolation.  Each kept h, scaled to have
    leading coefficient gamma(alpha), is a value of gamma * G / lc(G) once
    the points are lucky, and Newton interpolation in w fits it.  When a
    point leaves the interpolant unchanged, its primitive part over R is the
    candidate.  A candidate that divides both operands has a leading
    monomial no higher than G's, and it was never lower, so it is G up to a
    constant.  A constant image gcd shows G = 1 the same way.  The lucky
    points are cofinite, so the interpolant stops changing at the right
    polynomial and the routine ends.
    """
    w = min(a.vars, key=lambda v: max(a.degree_in(v), b.degree_in(v)))
    rest = tuple([v for v in a.vars if v != w])
    a, sa, ca = _primitive_over(a, w, rest)
    b, sb, cb = _primitive_over(b, w, rest)
    c = gcd(ca, cb)
    lead_a, lead_b = max(sa), max(sb)
    # the gcd of the leading coefficients, as the content of a split of two
    gamma = _content_over({0: sa[lead_a], 1: sb[lead_b]}, w)[0]
    lead = None
    alpha = -1
    while True:
        alpha += 1
        va, vb = _values(sa, alpha), _values(sb, alpha)
        if lead_a not in va or lead_b not in vb:
            continue
        h = gcd(_new_pruned(rest, va, a.den), _new_pruned(rest, vb, b.den))
        if h.is_const():
            return c
        m = max(_remap(h.num, h.vars, rest))
        if lead is not None and m > lead:
            continue
        h = h * _image(gamma, w, (), alpha)
        step = MPoly.variable(w) - alpha
        if lead is None or m < lead:
            lead, g, q = m, h, step
            continue
        diff = h - _image(g, w, rest, alpha)
        if diff:
            g = g.add_scaled(diff * q, 1, _image(q, w, (), alpha).num[0])
        else:
            pp = _primitive_over(g, w, rest)[0]
            if (try_divexact(a, pp) is not None
                    and try_divexact(b, pp) is not None):
                return pp * c
        q = q * step


def cofactors(a: MPoly, b: MPoly) -> Tuple[MPoly, MPoly, MPoly]:
    """(g, a/g, b/g) for nonzero a and b, with g = gcd(a, b) monic, or 1.

    A constant operand gives (1, a, b).  When b divides a, g is b made
    monic, the one division gives a/g, and b/g is b's leading coefficient;
    likewise when a divides b.  ``gcd`` runs only when both divisions fail.
    """
    if a.is_const() or b.is_const():
        return ONE, a, b
    q = try_divexact(a, b)
    if q is not None:
        n, d = b.leading_numerator(), b.den
        return _monic(b), q.scaled(n, d), ONE.scaled(n, d)
    q = try_divexact(b, a)
    if q is not None:
        n, d = a.leading_numerator(), a.den
        return _monic(a), ONE.scaled(n, d), q.scaled(n, d)
    g = gcd(a, b)
    if g.is_const():
        return ONE, a, b
    return g, divexact(a, g), divexact(b, g)


def _size_order(p: MPoly) -> tuple:
    """(term count, leading degree), ties broken by value alone: neither
    the order of a dict nor string hashing decides between two operands."""
    return (len(p.num), max(p.num) >> _W * len(p.vars), p.vars,
            sorted(p.num.items()), p.den)


def content(coeffs: Sequence[MPoly]) -> Tuple[MPoly, List[MPoly]]:
    """(g, [c/g for c in coeffs]) with g the monic gcd of the coefficients
    (0 if all are 0); a zero keeps the quotient 0.

    A constant coefficient gives (1, the inputs) with no gcd.  Otherwise g
    starts as the monic smallest coefficient, by term count and then by the
    degree of its leading monomial (of two with as many terms, a divisor
    comes first, and ties go by value, so the gcd calls depend on the
    coefficients and not on their order), and ``cofactors`` folds over the
    rest in that order: when g shrinks to h, the quotients kept so far are
    multiplied by g/h, and a constant h ends the search with (1, the
    inputs).  Each coefficient is divided once.
    """
    out = list(coeffs)
    live = [i for i, c in enumerate(out) if c.num]
    if not live or any(out[i].is_const() for i in live):
        return ONE if live else ZERO, out
    live.sort(key=lambda i: _size_order(out[i]))
    first = out[live[0]]
    g = _monic(first)
    quots = {live[0]: ONE.scaled(first.leading_numerator(), first.den)}
    for i in live[1:]:
        h, q, r = cofactors(out[i], g)
        if h is not g:
            if h.is_const():
                return ONE, out
            quots = {j: v * r for j, v in quots.items()}
            g = h
        quots[i] = q
    return g, [quots.get(i, c) for i, c in enumerate(out)]


def gcd(a: MPoly, b: MPoly) -> MPoly:
    """GCD over Q[vars], normalized with leading coefficient 1.

    A zero operand leaves the other, made monic, and a constant one gives 1.
    Then the common monomial is split off; operands that share no variable
    have it as their gcd.  Variables that only one operand has are
    eliminated next: the gcd cannot contain them, so it divides every
    coefficient of that operand taken over them (Geddes, Czapor and Labahn,
    *Algorithms for Computer Algebra*, 1992, section 7.1).  Over one shared
    variable these are polynomials in it, folded by integer Euclid
    (`_gcd_one_shared`; operands in it alone are the case with no other
    variable).  Over more, the gcd is the `content` of both operands'
    coefficients, or, over the same variables, an operand that divides the
    other, or else evaluation and interpolation (`_gcd_interpolated`).
    """
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    if a.is_const() or b.is_const():
        return ONE
    mono_a, a0 = _strip_monomial(a)
    mono_b, b0 = _strip_monomial(b)
    common = {v: min(k, mono_b.get(v, 0)) for v, k in mono_a.items() if v in mono_b}
    common = {v: k for v, k in common.items() if k}
    shared = [v for v in a0.vars if v in b0.vars]
    if not shared:
        out = _mono_poly(common) if common else ONE
        return _monic(out)
    if len(shared) == 1:
        g = _gcd_one_shared(a0, b0, shared[0])
    elif a0.vars != b0.vars:
        parts = [*a0.coeffs_over(set(a0.vars).difference(shared)).values(),
                 *b0.coeffs_over(set(b0.vars).difference(shared)).values()]
        g = content(parts)[0]
    elif _divides(b0, a0):
        g = b0
    elif _divides(a0, b0):
        g = a0
    else:
        g = _gcd_interpolated(a0, b0)
    if common:
        g = g * _mono_poly(common)
    return _monic(g)

