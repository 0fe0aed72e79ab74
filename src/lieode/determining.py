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

Slot-linear expressions are dictionaries Slot -> JetPoly; the generated
equations are dictionaries Slot -> RatFunc in (x, y) only.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from .errors import InternalInvariantError
from .jets import JetPoly, jet_order_of, substitute_top, total_derivative
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


SlotExpr = Dict[Slot, JetPoly]
LinDiffPoly = Dict[Slot, RatFunc]


def sx_add(a: SlotExpr, b: SlotExpr) -> SlotExpr:
    out = dict(a)
    for s, c in b.items():
        v = out.get(s)
        v = c if v is None else v + c
        if v.is_zero():
            out.pop(s, None)
        else:
            out[s] = v
    return out


def sx_scale(a: SlotExpr, c) -> SlotExpr:
    if isinstance(c, (int, Fraction)):
        c = JetPoly.const(c)
    out = {}
    for s, v in a.items():
        w = v * c
        if not w.is_zero():
            out[s] = w
    return out


def sx_total_derivative(a: SlotExpr) -> SlotExpr:
    """D_x of a slot-linear expression.

    Coefficients differentiate totally; a slot, being a function of (x, y)
    restricted to a curve, differentiates to its x-shift plus y' times its
    y-shift.
    """
    out: SlotExpr = {}

    def put(s, v):
        old = out.get(s)
        v = v if old is None else old + v
        if v.is_zero():
            out.pop(s, None)
        else:
            out[s] = v

    y1 = JetPoly.coordinate(1)
    for s, c in a.items():
        dc = total_derivative(c)
        if not dc.is_zero():
            put(s, dc)
        put(s.derive(1, 0), c)
        put(s.derive(0, 1), c * y1)
    return out


def xi_expr() -> SlotExpr:
    return {Slot(XI, 0, 0): JetPoly.const(1)}


def eta_expr() -> SlotExpr:
    return {Slot(ETA, 0, 0): JetPoly.const(1)}


def prolong(prev: SlotExpr, k: int) -> SlotExpr:
    """One prolongation step: eta^(k) from eta^(k-1)."""
    dxi = sx_total_derivative(xi_expr())
    return sx_add(sx_total_derivative(prev),
                  sx_scale(dxi, -JetPoly.coordinate(k)))


def prolonged_eta(k: int) -> SlotExpr:
    e = eta_expr()
    for i in range(1, k + 1):
        e = prolong(e, i)
    return e


def sx_substitute_top(a: SlotExpr, n: int, f: JetPoly) -> SlotExpr:
    out = {}
    for s, c in a.items():
        v = substitute_top(c, n, f)
        if not v.is_zero():
            out[s] = v
    return out


def max_slot_order(a) -> int:
    return max((s.order for s in a), default=0)


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


def invariance_expression(ode: OdeSpec) -> SlotExpr:
    """X(y^(n) + f) restricted to solutions, as a slot-linear expression."""
    n, f = ode.n, ode.f
    expr = prolonged_eta(n)
    expr = sx_add(expr, sx_scale(xi_expr(), f.partial_x()))
    for k in range(0, n):
        pk = f.partial(k)
        if pk.is_zero():
            continue
        if k == 0:
            expr = sx_add(expr, sx_scale(eta_expr(), pk))
        else:
            expr = sx_add(expr, sx_scale(prolonged_eta(k), pk))
    expr = sx_substitute_top(expr, n, f)
    if max_slot_order(expr) > n:
        raise InternalInvariantError(
            "prolongation produced slot derivatives beyond the equation order")
    return expr


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
        den = lcm(den, c.expr.den)
    content = _jet_content(den)
    den_jet = divexact(den, content)

    collected: Dict[Tuple[Tuple[str, int], ...], LinDiffPoly] = {}
    for slot, c in expr.items():
        scaled_num = c.expr.num * divexact(den, c.expr.den)
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
