"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial maps exponent tuples to nonzero Fraction coefficients and
carries an ordered tuple of variable names.  Values are canonical: zero
coefficients are dropped, unused variables are pruned, and variables are
kept in a fixed global order, so ``==`` is equality of mathematical values.

The leading monomial is graded lexicographic with higher-ranked variables
more significant; the variable ranking is x < y < y' < y'' < ... < t1 < t2
(t-symbols are auxiliary transcendental markers used by the pushforward
machinery) < anything else alphabetically.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

Q = Fraction


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


def _mono_key(exps: Tuple[int, ...]) -> tuple:
    # graded, then lex with the last (highest-ranked) variable most significant
    return (sum(exps), tuple(reversed(exps)))


class MPoly:
    """Immutable sparse polynomial in named variables over Q."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Tuple[int, ...], Fraction]):
        clean: Dict[Tuple[int, ...], Fraction] = {}
        for exps, c in terms.items():
            if c:
                clean[tuple(exps)] = Fraction(c)
        vars = tuple(vars)
        # prune variables that never occur, keep canonical order
        used = [i for i in range(len(vars)) if any(e[i] for e in clean)]
        if len(used) != len(vars) or list(vars) != sorted(vars, key=var_rank):
            kept = sorted(used, key=lambda i: var_rank(vars[i]))
            newvars = tuple(vars[i] for i in kept)
            newterms: Dict[Tuple[int, ...], Fraction] = {}
            for exps, c in clean.items():
                key = tuple(exps[i] for i in kept)
                if key in newterms:
                    s = newterms[key] + c
                    if s:
                        newterms[key] = s
                    else:
                        del newterms[key]
                else:
                    newterms[key] = c
            vars, clean = newvars, newterms
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MPoly":
        return MPoly((), {})

    @staticmethod
    def const(c) -> "MPoly":
        c = Fraction(c)
        return MPoly((), {(): c} if c else {})

    @staticmethod
    def variable(name: str) -> "MPoly":
        return MPoly((name,), {(1,): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.vars

    def as_const(self) -> Fraction:
        if self.vars:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), Fraction(0))

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def leading(self) -> Tuple[Tuple[int, ...], Fraction]:
        """Leading (monomial, coefficient) under graded lex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_mono_key)
        return m, self.terms[m]

    def leading_coeff(self) -> Fraction:
        return self.leading()[1]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=_mono_key, reverse=True):
            c = self.terms[e]
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
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        allvars = tuple(sorted(set(self.vars) | set(other.vars), key=var_rank))

        def lift(p: "MPoly"):
            idx = [allvars.index(v) for v in p.vars]
            out = {}
            for e, c in p.terms.items():
                key = [0] * len(allvars)
                for i, k in zip(idx, e):
                    key[i] = k
                out[tuple(key)] = c
            return out

        return allvars, lift(self), lift(other)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        vs, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(vs, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MPoly.zero()
            return MPoly(self.vars, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return MPoly.zero()
        if self.is_const():
            return other * self.as_const()
        if other.is_const():
            return self * other.as_const()
        vs, a, b = self._aligned(other)
        out: Dict[Tuple[int, ...], Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(i + j for i, j in zip(ea, eb))
                s = out.get(key, Fraction(0)) + ca * cb
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return MPoly(vs, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- calculus and substitution ------------------------------------------

    def derivative(self, name: str) -> "MPoly":
        if name not in self.vars:
            return MPoly.zero()
        i = self.vars.index(name)
        out: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                key = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[key] = out.get(key, Fraction(0)) + c * e[i]
        return MPoly(self.vars, out)

    def subs_values(self, values: Mapping[str, Fraction]) -> "MPoly":
        """Partially evaluate at rational points (remaining vars stay symbolic)."""
        hit = [v for v in self.vars if v in values]
        if not hit:
            return self
        out: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            key = []
            for v, k in zip(self.vars, e):
                if v in values:
                    c = c * Fraction(values[v]) ** k
                    key.append(0)
                else:
                    key.append(k)
            if c:
                k2 = tuple(key)
                s = out.get(k2, Fraction(0)) + c
                if s:
                    out[k2] = s
                else:
                    out.pop(k2, None)
        return MPoly(self.vars, out)

    def eval_all(self, values: Mapping[str, Fraction]) -> Fraction:
        r = self.subs_values(values)
        if r.vars:
            missing = [v for v in r.vars]
            raise ValueError(f"unbound variables in evaluation: {missing}")
        return r.as_const()

    def coeffs_in(self, name: str):
        """Dense coefficient list in one variable; entries are MPoly without it."""
        if name not in self.vars:
            return [self]
        i = self.vars.index(name)
        deg = self.degree_in(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: list = [dict() for _ in range(deg + 1)]
        for e, c in self.terms.items():
            buckets[e[i]][e[:i] + e[i + 1:]] = c
        return [MPoly(rest, b) for b in buckets]

    def coeffs_over(self, names) -> list:
        """Nonzero coefficients over the monomials in `names`; entries are
        MPoly without those variables."""
        idx = [i for i, v in enumerate(self.vars) if v in names]
        if not idx:
            return [self]
        keep = [i for i in range(len(self.vars)) if i not in idx]
        rest = tuple(self.vars[i] for i in keep)
        buckets: Dict[Tuple[int, ...], Dict[Tuple[int, ...], Fraction]] = {}
        for e, c in self.terms.items():
            bucket = buckets.setdefault(tuple(e[i] for i in idx), {})
            bucket[tuple(e[i] for i in keep)] = c
        return [MPoly(rest, b) for b in buckets.values()]

    @staticmethod
    def from_coeffs(coeffs: Sequence["MPoly"], name: str) -> "MPoly":
        out = MPoly.zero()
        v = MPoly.variable(name)
        power = MPoly.const(1)
        for c in coeffs:
            out = out + c * power
            power = power * v
        return out


# -- exact division ---------------------------------------------------------


def try_divexact(a: MPoly, b: MPoly) -> Optional[MPoly]:
    """Return a/b when b divides a exactly, else None."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return MPoly.zero()
    if b.is_const():
        inv = 1 / b.as_const()
        return a * inv
    vs, ta, tb = a._aligned(b)
    rem = dict(ta)
    lead_b = max(tb, key=_mono_key)
    cb = tb[lead_b]
    quot: Dict[Tuple[int, ...], Fraction] = {}
    while rem:
        lead_r = max(rem, key=_mono_key)
        diff = tuple(i - j for i, j in zip(lead_r, lead_b))
        if any(d < 0 for d in diff):
            return None
        cq = rem[lead_r] / cb
        quot[diff] = cq
        for e, c in tb.items():
            key = tuple(i + j for i, j in zip(e, diff))
            s = rem.get(key, Fraction(0)) - c * cq
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return MPoly(vs, quot)


def divexact(a: MPoly, b: MPoly) -> MPoly:
    q = try_divexact(a, b)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q


# -- gcd ---------------------------------------------------------------------


def _monic(p: MPoly) -> MPoly:
    if p.is_zero():
        return p
    return p * (1 / p.leading_coeff())


def _strip_monomial(p: MPoly):
    """Factor out the largest common monomial; return (monomial exps, vars, stripped)."""
    mins = None
    for e in p.terms:
        mins = e if mins is None else tuple(min(i, j) for i, j in zip(mins, e))
    if mins is None or not any(mins):
        return {}, p
    stripped = MPoly(p.vars, {tuple(i - j for i, j in zip(e, mins)): c
                              for e, c in p.terms.items()})
    mono = {v: k for v, k in zip(p.vars, mins) if k}
    return mono, stripped


def _mono_poly(mono: Mapping[str, int]) -> MPoly:
    names = tuple(sorted(mono, key=var_rank))
    return MPoly(names, {tuple(mono[v] for v in names): Fraction(1)})


def _gcd_univar(a: MPoly, b: MPoly, name: str) -> MPoly:
    """Euclid over Q[name] for polynomials involving only `name`."""
    fa = {e[0] if e else 0: c for e, c in a.terms.items()}
    fb = {e[0] if e else 0: c for e, c in b.terms.items()}

    def norm(d):
        return {k: v for k, v in d.items() if v}

    fa, fb = norm(fa), norm(fb)
    while fb:
        da, db = max(fa), max(fb)
        if da < db:
            fa, fb = fb, fa
            continue
        lc = fb[max(fb)]
        while fa and max(fa) >= db:
            dd = max(fa)
            q = fa[dd] / lc
            for k, v in fb.items():
                kk = k + dd - db
                s = fa.get(kk, Fraction(0)) - q * v
                if s:
                    fa[kk] = s
                else:
                    fa.pop(kk, None)
        fa, fb = fb, fa
    if not fa:
        return MPoly.zero()
    lc = fa[max(fa)]
    return MPoly((name,), {(k,): v / lc for k, v in fa.items()})


def _content(coeffs: Sequence[MPoly]) -> MPoly:
    g = MPoly.zero()
    for c in coeffs:
        if c.is_zero():
            continue
        g = gcd(g, c)
        if g.is_const() and not g.is_zero():
            return MPoly.const(1)
    return g if not g.is_zero() else MPoly.zero()


def _prem(u: Sequence[MPoly], v: Sequence[MPoly]):
    """Pseudo-remainder of dense coefficient lists (main variable implicit)."""
    r = list(u)
    dv = len(v) - 1
    lv = v[-1]
    while len(r) - 1 >= dv and any(not c.is_zero() for c in r):
        while r and r[-1].is_zero():
            r.pop()
        if len(r) - 1 < dv:
            break
        lr = r[-1]
        shift = len(r) - 1 - dv
        r = [c * lv for c in r]
        for i, vc in enumerate(v):
            r[i + shift] = r[i + shift] - lr * vc
        while r and r[-1].is_zero():
            r.pop()
    return r


def gcd(a: MPoly, b: MPoly) -> MPoly:
    """GCD over Q[vars], normalized with leading coefficient 1.

    After the common monomial is split off, variables that only one operand
    has are eliminated first: the gcd cannot contain them, so it divides
    every coefficient of that operand taken over them, and it is the content
    of those coefficients together with the other operand's (Geddes, Czapor
    and Labahn, *Algorithms for Computer Algebra*, 1992, section 7.1).  The
    content folds smallest coefficients first and stops at the first
    constant, which is where most calls from `RatFunc` end.  Only operands
    over the same variables reach Euclid (one variable) or the primitive PRS.
    """
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    if a.is_const() or b.is_const():
        return MPoly.const(1)
    mono_a, a0 = _strip_monomial(a)
    mono_b, b0 = _strip_monomial(b)
    common = {v: min(k, mono_b.get(v, 0)) for v, k in mono_a.items() if v in mono_b}
    common = {v: k for v, k in common.items() if k}
    shared = [v for v in a0.vars if v in b0.vars]
    if not shared:
        out = _mono_poly(common) if common else MPoly.const(1)
        return _monic(out)
    only_a = set(a0.vars).difference(shared)
    only_b = set(b0.vars).difference(shared)
    if only_a or only_b:
        parts = a0.coeffs_over(only_a) + b0.coeffs_over(only_b)
        g = _content(sorted(parts, key=lambda p: len(p.terms)))
    elif len(a0.vars) == 1:
        g = _gcd_univar(a0, b0, a0.vars[0])
    else:
        v = min(shared, key=lambda n: max(a0.degree_in(n), b0.degree_in(n)))
        ca = a0.coeffs_in(v)
        cb = b0.coeffs_in(v)
        cont_a = _content(ca)
        cont_b = _content(cb)
        c = gcd(cont_a, cont_b)
        pa = [divexact(x, cont_a) for x in ca]
        pb = [divexact(x, cont_b) for x in cb]
        if len(pa) < len(pb):
            pa, pb = pb, pa
        while True:
            r = _prem(pa, pb)
            if not r or all(x.is_zero() for x in r):
                g = pb
                break
            cont_r = _content(r)
            r = [divexact(x, cont_r) for x in r]
            pa, pb = pb, r
            if len(pb) == 1:
                g = [MPoly.const(1)]
                break
        gp = MPoly.from_coeffs(g, v)
        cont_g = _content(g)
        gp = divexact(gp, cont_g)
        g = gp * c
    if common:
        g = g * _mono_poly(common)
    return _monic(g)

