"""Determining systems for Lie point symmetries of y^(n) + f = 0.

A symmetry generator xi(x,y) d/dx + eta(x,y) d/dy acts on jets through its
prolongation; the k-th prolonged coefficient obeys

    eta^(k) = D_x eta^(k-1) - y^(k) D_x xi

(Olver, *Applications of Lie Groups to Differential Equations*, 2.3).  It is
linear in the unknown functions xi, eta and their partial derivatives
("slots", each one packed int, below), with coefficients polynomial in the
jet variables.

Applying the prolonged operator to y^(n) + f and restricting to solutions
(y^(n) := -f) gives the invariance condition.  Write f = P/Q, let
G = gcd(Q, dQ/dv for every variable v of Q) and R = Q/G, the squarefree part
of Q.  Times Q*R the condition is a polynomial: eta^(n) = A + B y^(n)
contributes R (Q A - P B), and xi and eta^(k), k < n, carry the factor
(P_v Q - P Q_v)/G with v = x or y^(k).  Q*R rather than Q^2: a repeated jet
factor of Q, as in Q = (1 + y')^2, would otherwise multiply the condition by
a jet polynomial and mix the collected monomials.  Collecting the coefficient
of every monomial in (y', ..., y^(n-1)) produces the linear PDE system whose
solution space is the symmetry algebra; ``invariance_coefficients`` builds
each coefficient directly, without forming the condition as one polynomial.
Its coefficients are polynomials in (x, y); each equation is kept primitive
(see ``primitive``), which is also the form completion works on.
"""
from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

from .errors import InternalInvariantError
from .jets import jet_name, total_derivative
from .parsing import OdeSpec
from .polys import MPoly, divexact, gcd, try_divexact

# A slot, the partial derivative d^(dx+dy) u / dx^dx dy^dy of an unknown u,
# is one int: from high to low the fields order = dx + dy, dx and dy, each
# _W bits whose top bit is a guard that stays clear, then the unknown bit.
# Int order is then completion's ranking (order, then dx, then xi < eta), a
# derivative adds DX or DY, and, as for the monomial keys of ``polys``, a
# difference of two slots sets a guard bit or the unknown bit exactly when
# they differ in unknown or some field went negative.
XI, ETA = 0, 1
_W = 16
_FIELD = (1 << _W) - 1
_X, _O = 1 + _W, 1 + 2 * _W
DX, DY = 1 << _X | 1 << _O, 1 << 1 | 1 << _O
GUARDS = 1 | 1 << _W | 1 << _X + _W - 1 | 1 << _O + _W - 1


def slot(u: int, dx: int, dy: int) -> int:
    """Unknown u (XI or ETA) differentiated dx times by x and dy by y."""
    if min(dx, dy) < 0 or dx + dy >> _W - 1:
        raise ValueError("slot order out of range: (%d, %d)" % (dx, dy))
    return (dx + dy) << _O | dx << _X | dy << 1 | u


def fields(s: int) -> Tuple[int, int, int]:
    """(u, dx, dy) of a slot."""
    return s & 1, s >> _X & _FIELD, s >> 1 & _FIELD


def divides(s: int, t: int) -> bool:
    """Whether t is a derivative of s, of the same unknown."""
    return not (t - s) & GUARDS


def label(s: int) -> str:
    u, dx, dy = fields(s)
    return ("xi", "eta")[u] + ("_" + "x" * dx + "y" * dy if dx + dy else "")


def top(eq: Mapping[int, MPoly]) -> int:
    """The slot an equation of the determining system is scaled by: the
    largest by (xi before eta, dx, dy), not the highest in a ranking."""
    return max(eq, key=lambda s: (s & 1 == XI, fields(s)[1:]))


LinDiffPoly = Dict[int, MPoly]


def add_term(out: dict, s: int, value) -> None:
    """Add value into out[s] in place, dropping the slot when it cancels."""
    old = out.get(s)
    if old is not None:
        value = old + value
    if value.is_zero():
        out.pop(s, None)
    else:
        out[s] = value


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
        add_term(out, s + DX, c)
        add_term(out, s + DY, c * y1)
    return out


@lru_cache(maxsize=None)
def prolonged_eta(n: int) -> Tuple[Mapping[int, MPoly], ...]:
    """(eta^(0), ..., eta^(n)), each step eta^(k) = D_x eta^(k-1) - y^(k) D_x xi.

    Cached per order; the read-only views keep callers from changing it.
    """
    dxi = sx_total_derivative({slot(XI, 0, 0): MPoly.const(1)})
    etas = [{slot(ETA, 0, 0): MPoly.const(1)}]
    for k in range(1, n + 1):
        e = sx_total_derivative(etas[-1])
        minus_yk = -MPoly.variable(jet_name(k))
        for s, c in dxi.items():
            add_term(e, s, c * minus_yk)
        etas.append(e)
    return tuple(MappingProxyType(e) for e in etas)


# -- generation -----------------------------------------------------------------


def primitive(eq: LinDiffPoly, top: int) -> LinDiffPoly:
    """eq divided by its content in Q[x, y], scaled so that eq[top] has
    leading coefficient 1.

    Every nonzero multiple of eq by a rational function has the same
    primitive form, so it is a canonical representative of the equation.
    When some coefficient is a constant, as every coefficient of an
    all-constant equation is, the content is 1: one pass of ``MPoly.scaled``
    does the scaling, with no sort and no content search.  Otherwise the
    content is found with its cofactors: g starts as the monic form of the
    smallest coefficient, and each coefficient that g divides keeps its
    quotient.  Only when a division fails is g replaced by h = gcd(g, c),
    and the quotients kept so far are multiplied by g/h; a constant g ends
    the search.  Leading coefficients multiply, so dividing by g times the
    leading coefficient of eq[top] also does the scaling, and each
    coefficient is divided once.  Every scaling is by integers: the leading
    coefficient of eq[top] is its leading numerator over its denominator.
    """
    ln, ld = eq[top].leading_numerator(), eq[top].den
    if not any(c.is_const() for c in eq.values()):
        order = sorted(eq, key=lambda s: len(eq[s].num))
        first = eq[order[0]]
        fn, fd = first.leading_numerator(), first.den
        g = first.scaled(fd, fn)
        # first = g * (fn / fd), so its quotient by g * lc is a constant
        quots = {order[0]: MPoly.const(1).scaled(fn * ld, fd * ln)}
        divisor = g.scaled(ln, ld)
        for s in order[1:]:
            c = eq[s]
            q = try_divexact(c, divisor)
            if q is None:
                h = gcd(g, c)
                if h.is_const():
                    break
                r = divexact(g, h)
                quots = {t: v * r for t, v in quots.items()}
                g, divisor = h, h.scaled(ln, ld)
                q = divexact(c, divisor)
            quots[s] = q
        else:
            return {s: quots[s] for s in eq}
    if ln != 1 or ld != 1:
        eq = {s: c.scaled(ld, ln) for s, c in eq.items()}
    return eq


JetKey = Tuple[Tuple[str, int], ...]
JetTerms = Tuple[Tuple[int, Tuple[Tuple[JetKey, Tuple[int, int]], ...]], ...]


def _jet_terms(lin: Mapping[int, MPoly], jets) -> JetTerms:
    """Each slot's coefficient split into its jet monomials, with their
    constant coefficients as (numerator, denominator), keyed as by
    ``MPoly.coeffs_over``."""
    out = []
    for s, c in lin.items():
        if c.is_zero():
            continue
        split = []
        for key, v in c.coeffs_over(jets).items():
            if not v.is_const():
                raise InternalInvariantError(
                    "prolonged coefficient depends on the base coordinates")
            split.append((key, (v.leading_numerator(), v.den)))
        out.append((s, tuple(split)))
    return tuple(out)


@lru_cache(maxsize=None)
def _prolongation_terms(n: int) -> Tuple[JetTerms, ...]:
    """The linear parts that multiply R*Q, -(R*P), f_x and f_(y^(k)),
    k < n, in the invariance condition, split by jet monomial (see
    ``invariance_coefficients``).  Cached per order, like ``prolonged_eta``.
    """
    etas = prolonged_eta(n)
    top = jet_name(n)
    jets = {jet_name(k) for k in range(1, n)}
    # eta^(n) = A + B y^(n) on y^(n) = -P/Q contributes A*R*Q + B*(-(R*P))
    a_part: LinDiffPoly = {}
    b_part: LinDiffPoly = {}
    for s, c in etas[n].items():
        if c.degree_in(top) > 1:
            raise InternalInvariantError(
                "prolonged coefficient is not linear in the top derivative")
        a_part[s], b_part[s] = (c.coeffs_in(top) + [MPoly.zero()])[:2]
    lins = [a_part, b_part, {slot(XI, 0, 0): MPoly.const(1)}, *etas[:n]]
    if max(dx + dy for lin in lins for _, dx, dy in map(fields, lin)) > n:
        raise InternalInvariantError(
            "prolongation produced slot derivatives beyond the equation order")
    return tuple(_jet_terms(lin, jets) for lin in lins)


def _key_product(a: JetKey, b: JetKey) -> JetKey:
    if not a or not b:
        return a or b
    exps = dict(a)
    for name, k in b:
        exps[name] = exps.get(name, 0) + k
    return tuple(sorted(exps.items()))


def invariance_coefficients(ode: OdeSpec) -> Dict[JetKey, LinDiffPoly]:
    """Q*R times X(y^(n) + f) restricted to solutions, f = P/Q, R = Q/G, as
    its coefficient of each jet monomial in (y', ..., y^(n-1)).

    Every term is a prolongation coefficient, a jet polynomial with constant
    coefficients, times one of the multipliers R*Q, -(R*P) and Q*R*f_v.
    Each multiplier is split by jet monomial once, and each jet term of a
    prolongation coefficient adds a scaled copy of every part into the
    equation of the product monomial, so no product of a jet polynomial
    with a polynomial in (x, y, jets) is formed.
    """
    n, P, Q = ode.n, ode.f.num, ode.f.den
    G = Q
    for v in Q.vars:
        G = gcd(G, Q.derivative(v))
    R = divexact(Q, G)
    # Q*R * f_v = (P_v Q - P Q_v) / G, a polynomial since G divides Q and Q_v
    mults = [R * Q, -(R * P)] + [
        divexact(P.derivative(v) * Q - P * Q.derivative(v), G)
        for v in ["x"] + [jet_name(k) for k in range(n)]]
    jets = {jet_name(k) for k in range(1, n)}
    collected: Dict[JetKey, LinDiffPoly] = {}
    zero = MPoly.zero()
    for lin, mult in zip(_prolongation_terms(n), mults):
        if mult.is_zero():
            continue
        parts = mult.coeffs_over(jets).items()
        for s, split in lin:
            for ckey, k in split:
                for mkey, p in parts:
                    eq = collected.setdefault(_key_product(ckey, mkey), {})
                    eq[s] = eq.get(s, zero).add_scaled(p, *k)
    out = {}
    for key, eq in collected.items():
        eq = {s: c for s, c in eq.items() if not c.is_zero()}
        if eq:
            out[key] = eq
    return out


def determining_system(ode: OdeSpec) -> List[LinDiffPoly]:
    """Generate, collect and deduplicate the determining equations: one per
    jet monomial in (y', ..., y^(n-1)), in the order of the sorted monomial
    keys.

    Each equation is made primitive with respect to ``top(eq)``, so any xi
    slot beats any eta slot (xi_xx over eta_xy for y'' = 0).
    ``--dump-detsys`` divides by the coefficient of the same slot.
    """
    collected = invariance_coefficients(ode)
    equations: List[LinDiffPoly] = []
    seen = set()
    for key in sorted(collected):
        eq = primitive(collected[key], top(collected[key]))
        sig = tuple(sorted(eq.items()))
        if sig not in seen:
            seen.add(sig)
            equations.append(eq)
    return equations
