"""Determining systems for Lie point symmetries of y^(n) + f = 0.

A symmetry generator xi(x,y) d/dx + eta(x,y) d/dy acts on jets through its
prolongation; the k-th prolonged coefficient obeys

    eta^(k) = D_x eta^(k-1) - y^(k) D_x xi

(Olver, *Applications of Lie Groups to Differential Equations*, 2.3).  It is
linear in the unknown functions xi, eta and their partial derivatives
("slots"), with coefficients polynomial in the jet variables.

Applying the prolonged operator to y^(n) + f and restricting to solutions
(y^(n) := -f) gives the invariance condition.  Write f = P/Q, let
G = gcd(Q, dQ/dv for every variable v of Q) and R = Q/G, the squarefree part
of Q.  Times Q*R the condition is a polynomial: eta^(n) = A + B y^(n)
contributes R (Q A - P B), and xi and eta^(k), k < n, carry the factor
(P_v Q - P Q_v)/G with v = x or y^(k).  Q*R rather than Q^2: a repeated jet
factor of Q, as in Q = (1 + y')^2, would otherwise multiply the condition by
a jet polynomial and mix the collected monomials.  Collecting the coefficient
of every monomial in (y', ..., y^(n-1)) produces the linear PDE system whose
solution space is the symmetry algebra.  Its coefficients are polynomials in
(x, y); each equation is kept primitive (see ``primitive``), which is also
the form completion works on.
"""
from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Tuple

from .errors import InternalInvariantError
from .jets import jet_name, total_derivative
from .parsing import OdeSpec
from .polys import MPoly, content, divexact, gcd

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


LinDiffPoly = Dict[Slot, MPoly]


def add_term(out: dict, slot: Slot, value) -> None:
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
    y1 = MPoly.variable(jet_name(1))
    for s, c in a.items():
        add_term(out, s, total_derivative(c))
        add_term(out, s.derive(1, 0), c)
        add_term(out, s.derive(0, 1), c * y1)
    return out


@lru_cache(maxsize=None)
def prolonged_eta(n: int) -> Tuple[Mapping[Slot, MPoly], ...]:
    """(eta^(0), ..., eta^(n)), each step eta^(k) = D_x eta^(k-1) - y^(k) D_x xi.

    Cached per order; the read-only views keep callers from changing it.
    """
    dxi = sx_total_derivative({Slot(XI, 0, 0): MPoly.const(1)})
    etas = [{Slot(ETA, 0, 0): MPoly.const(1)}]
    for k in range(1, n + 1):
        e = sx_total_derivative(etas[-1])
        minus_yk = -MPoly.variable(jet_name(k))
        for s, c in dxi.items():
            add_term(e, s, c * minus_yk)
        etas.append(e)
    return tuple(MappingProxyType(e) for e in etas)


# -- generation -----------------------------------------------------------------


def primitive(eq: LinDiffPoly, top: Slot) -> LinDiffPoly:
    """eq divided by its content in Q[x, y], scaled so that eq[top] has
    leading coefficient 1.

    Every nonzero multiple of eq by a rational function has the same
    primitive form, so it is a canonical representative of the equation.
    """
    g = content(sorted(eq.values(), key=lambda c: len(c.num)))
    if not g.is_const():
        eq = {s: divexact(c, g) for s, c in eq.items()}
    lc = eq[top].leading_coeff()
    if lc != 1:
        eq = {s: c * (1 / lc) for s, c in eq.items()}
    return eq


def invariance_expression(ode: OdeSpec) -> LinDiffPoly:
    """Q*R times X(y^(n) + f) restricted to solutions, f = P/Q, R = Q/G."""
    n, P, Q = ode.n, ode.f.num, ode.f.den
    G = Q
    for v in Q.vars:
        G = gcd(G, Q.derivative(v))
    R = divexact(Q, G)
    etas = prolonged_eta(n)
    top = jet_name(n)
    out: LinDiffPoly = {}
    for s, c in etas[n].items():
        if c.degree_in(top) > 1:
            raise InternalInvariantError(
                "prolonged coefficient is not linear in the top derivative")
        a, b = (c.coeffs_in(top) + [MPoly.zero()])[:2]
        add_term(out, s, R * (Q * a - P * b))
    # Q*R * f_v = (P_v Q - P Q_v) / G, a polynomial since G divides Q and Q_v
    for lin, v in [({Slot(XI, 0, 0): MPoly.const(1)}, "x")] + [
            (etas[k], jet_name(k)) for k in range(n)]:
        fv = divexact(P.derivative(v) * Q - P * Q.derivative(v), G)
        if fv.is_zero():
            continue
        for s, c in lin.items():
            add_term(out, s, c * fv)
    if max((s.order for s in out), default=0) > n:
        raise InternalInvariantError(
            "prolongation produced slot derivatives beyond the equation order")
    return out


def determining_system(ode: OdeSpec) -> List[LinDiffPoly]:
    """Generate, collect and deduplicate the determining equations: one per
    jet monomial in (y', ..., y^(n-1))."""
    jets = {jet_name(k) for k in range(1, ode.n)}
    collected: Dict[Tuple[Tuple[str, int], ...], LinDiffPoly] = {}
    for slot, c in invariance_expression(ode).items():
        for key, coeff in c.coeffs_over(jets).items():
            collected.setdefault(key, {})[slot] = coeff

    equations: List[LinDiffPoly] = []
    seen = set()
    for key in sorted(collected):
        eq = primitive(collected[key], max(collected[key]))
        sig = tuple(sorted(eq.items()))
        if sig not in seen:
            seen.add(sig)
            equations.append(eq)
    return equations
