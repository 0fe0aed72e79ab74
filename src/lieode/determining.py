"""Determining systems for Lie point symmetries of y^(n) + f = 0.

A symmetry generator xi(x,y) d/dx + eta(x,y) d/dy acts on jets through its
prolongation; the k-th prolonged coefficient obeys

    eta^(k) = D_x eta^(k-1) - y^(k) D_x xi.

Applying the prolonged operator to y^(n) + f and restricting to solutions
(y^(n) := -f) yields an expression linear in the unknown functions xi, eta
and their partial derivatives ("slots"), with coefficients rational in the
jet variables.  Collecting the coefficient of every monomial in
(y', ..., y^(n-1)) produces the linear PDE system whose solution space is
the symmetry algebra.

Slot-linear expressions are dictionaries Slot -> RatFunc (LinDiffPoly); the
invariance condition has coefficients in the jet variables, the generated
equations have coefficients in (x, y) only.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from .errors import InternalInvariantError
from .jets import jet_name, jet_order_of, substitute_top, total_derivative
from .parsing import OdeSpec
from .polys import MPoly, divexact, gcd, lcm, var_rank
from .ratfunc import RatFunc

XI = "xi"
ETA = "eta"


class Slot(NamedTuple):
    """A partial derivative of one unknown: d^(dx+dy) u / dx^dx dy^dy."""

    unknown: str
    dx: int
    dy: int

    @property
    def order(self) -> int:
        return self.dx + self.dy

    def derive(self, ddx: int, ddy: int) -> "Slot":
        return Slot(self.unknown, self.dx + ddx, self.dy + ddy)

    def divides(self, other: "Slot") -> bool:
        return (self.unknown == other.unknown
                and self.dx <= other.dx and self.dy <= other.dy)

    def label(self) -> str:
        if self.order == 0:
            return self.unknown
        return f"{self.unknown}_" + "x" * self.dx + "y" * self.dy


LinDiffPoly = Dict[Slot, RatFunc]


def add_term(out: LinDiffPoly, slot: Slot, value: RatFunc) -> None:
    """Add value into out[slot] in place, dropping the slot when it cancels."""
    old = out.get(slot)
    if old is not None:
        value = old + value
    if value.is_zero():
        out.pop(slot, None)
    else:
        out[slot] = value


def sx_total_derivative(a: LinDiffPoly) -> LinDiffPoly:
    """D_x of a slot-linear expression.

    Coefficients differentiate totally; a slot, being a function of (x, y)
    restricted to a curve, differentiates to its x-shift plus y' times its
    y-shift.
    """
    out: LinDiffPoly = {}
    y1 = RatFunc.variable(jet_name(1))
    for s, c in a.items():
        add_term(out, s, total_derivative(c))
        add_term(out, s.derive(1, 0), c)
        add_term(out, s.derive(0, 1), c * y1)
    return out


def prolonged_eta(n: int) -> List[LinDiffPoly]:
    """[eta^(0), ..., eta^(n)], each step eta^(k) = D_x eta^(k-1) - y^(k) D_x xi."""
    dxi = sx_total_derivative({Slot(XI, 0, 0): RatFunc.one()})
    etas = [{Slot(ETA, 0, 0): RatFunc.one()}]
    for k in range(1, n + 1):
        e = sx_total_derivative(etas[-1])
        minus_yk = -RatFunc.variable(jet_name(k))
        for s, c in dxi.items():
            add_term(e, s, c * minus_yk)
        etas.append(e)
    return etas


# -- generation -----------------------------------------------------------------


@dataclasses.dataclass
class LinDiffSystem:
    """Raw determining system with provenance back to jet monomials."""

    ode: OdeSpec
    equations: List[LinDiffPoly]
    provenance: List[Tuple[str, ...]]

    def __len__(self) -> int:
        return len(self.equations)


def _jet_monomial_label(names, exps) -> str:
    from .parsing import deriv_marker

    bits = []
    for v, e in zip(names, exps):
        k = jet_order_of(v)
        d = deriv_marker(k) if k >= 0 else v
        if e == 1:
            bits.append(d)
        else:
            bits.append(f"({d})^{e}" if k >= 1 else f"{d}^{e}")
    return "*".join(bits) if bits else "1"


def _canonical_scale(eq: LinDiffPoly) -> LinDiffPoly:
    """Divide by the coefficient of the plain-tuple-maximal slot."""
    top = max(eq)
    c = eq[top]
    if c == RatFunc.one():
        return eq
    return {s: v / c for s, v in eq.items()}


def invariance_expression(ode: OdeSpec) -> LinDiffPoly:
    """X(y^(n) + f) restricted to solutions, as a slot-linear expression."""
    n, f = ode.n, ode.f
    etas = prolonged_eta(n)
    expr = dict(etas[n])
    add_term(expr, Slot(XI, 0, 0), f.derivative("x"))
    for k in range(n):
        pk = f.derivative(jet_name(k))
        if pk.is_zero():
            continue
        for s, c in etas[k].items():
            add_term(expr, s, c * pk)
    out: LinDiffPoly = {}
    for s, c in expr.items():
        add_term(out, s, substitute_top(c, n, f))
    if max((s.order for s in out), default=0) > n:
        raise InternalInvariantError(
            "prolongation produced slot derivatives beyond the equation order")
    return out


def _jet_content(p: MPoly) -> MPoly:
    """gcd of the coefficients of p viewed as a polynomial in the jet variables."""
    jet_idx = [i for i, v in enumerate(p.vars) if jet_order_of(v) >= 1]
    if not jet_idx:
        return p
    buckets: Dict[Tuple[int, ...], Dict[Tuple[int, ...], Fraction]] = {}
    base_idx = [i for i in range(len(p.vars)) if i not in jet_idx]
    base_vars = tuple(p.vars[i] for i in base_idx)
    for e, c in p.terms.items():
        jkey = tuple(e[i] for i in jet_idx)
        bkey = tuple(e[i] for i in base_idx)
        buckets.setdefault(jkey, {})[bkey] = c
    g = MPoly.zero()
    for part in buckets.values():
        g = gcd(g, MPoly(base_vars, part))
        if g.is_const() and not g.is_zero():
            return MPoly.const(1)
    return g


def determining_system(ode: OdeSpec) -> LinDiffSystem:
    """Generate, collect and deduplicate the determining equations."""
    expr = invariance_expression(ode)

    # clear denominators in the jet variables only: factors depending on
    # (x, y) alone stay in the rational coefficients
    den = MPoly.const(1)
    for c in expr.values():
        den = lcm(den, c.den)
    content = _jet_content(den)
    den_jet = divexact(den, content)

    collected: Dict[Tuple[Tuple[str, int], ...], LinDiffPoly] = {}
    for slot, c in expr.items():
        scaled_num = c.num * divexact(den, c.den)
        # scaled_num / content == c * den_jet; split monomials into jet part
        # and (x, y) part
        for e, q in scaled_num.terms.items():
            jet_part = []
            base = {}
            for v, k in zip(scaled_num.vars, e):
                if jet_order_of(v) >= 1:
                    if k:
                        jet_part.append((v, k))
                else:
                    base[v] = k
            key = tuple(sorted(jet_part))
            bucket = collected.setdefault(key, {})
            names = tuple(sorted(base, key=var_rank))
            mono = MPoly(names, {tuple(base[v] for v in names): q})
            prev = bucket.get(slot, RatFunc.zero())
            bucket[slot] = prev + RatFunc(mono, content)

    equations: List[LinDiffPoly] = []
    provenance: List[Tuple[str, ...]] = []
    seen: Dict[Tuple, int] = {}
    for key in sorted(collected):
        eq = {s: v for s, v in collected[key].items() if not v.is_zero()}
        if not eq:
            continue
        eq = _canonical_scale(eq)
        sig = tuple(sorted(eq.items()))
        names, exps = zip(*key) if key else ((), ())
        label = _jet_monomial_label(names, exps)
        if sig in seen:
            provenance[seen[sig]] = tuple(sorted(provenance[seen[sig]] + (label,)))
            continue
        seen[sig] = len(equations)
        equations.append(eq)
        provenance.append((label,))
    return LinDiffSystem(ode, equations, provenance)


def substitute_generator(eq: LinDiffPoly, xi: RatFunc, eta: RatFunc) -> RatFunc:
    """Evaluate an equation on a concrete generator (xi(x,y), eta(x,y))."""
    cache: Dict[Slot, RatFunc] = {}

    def value(s: Slot) -> RatFunc:
        if s in cache:
            return cache[s]
        base = xi if s.unknown == XI else eta
        v = base
        for _ in range(s.dx):
            v = v.derivative("x")
        for _ in range(s.dy):
            v = v.derivative("y")
        cache[s] = v
        return v

    total = RatFunc.zero()
    for s, c in eq.items():
        total = total + c * value(s)
    return total
