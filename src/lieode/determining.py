"""Determining systems for Lie point symmetries of y^(n) + f = 0.

A symmetry generator xi(x,y) d/dx + eta(x,y) d/dy acts on jets through its
prolongation; the k-th prolonged coefficient obeys

    eta^(k) = D_x eta^(k-1) - y^(k) D_x xi

(Olver, *Applications of Lie Groups to Differential Equations*, 2.3).  It is
linear in the unknown functions xi, eta and their partial derivatives
("slots", each one packed int, below), with coefficients polynomial in the
jet variables with integer coefficients; ``_prolongation_terms`` builds it
once per order as integer terms (slot, jet monomial), D_x acting on each
term directly.

Applying the prolonged operator to y^(n) + f and restricting to solutions
(y^(n) := -f) gives the invariance condition.  Write f = P/Q, let
G = gcd(Q, dQ/dv for every variable v of Q) and R = Q/G, the squarefree part
of Q.  Times Q*R the condition is a polynomial: eta^(n) = A + B y^(n)
contributes R (Q A - P B), and xi and eta^(k), k < n, carry the factor
(P_v Q - P Q_v)/G = P_v R - P (Q_v/G) with v = x or y^(k).  Q*R rather than
Q^2: a repeated jet factor of Q, as in Q = (1 + y')^2, would otherwise
multiply the condition by a jet polynomial and mix the collected monomials.
Collecting the coefficient of every monomial in (y', ..., y^(n-1)) produces
the linear PDE system whose solution space is the symmetry algebra;
``invariance_coefficients`` builds each coefficient directly, without
forming the condition as one polynomial.  Its coefficients are polynomials
in (x, y), left as collected: ``involutive.complete`` reduces every
equation and makes each one it inserts primitive, so none is scaled or
deduplicated here.  Int order on slots is the one order from here to the
brackets: ``rank`` numbers the slots densely in it, and the series table
and the brackets of ``liealgebra`` keep each slot at its rank.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from .errors import InternalInvariantError
from .jets import jet_name
from .parsing import OdeSpec
from .polys import ZERO, MPoly, content

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
_MX, _MY = _FIELD << _X, _FIELD << 1


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


def lcm(s: int, t: int) -> int:
    """Least common derivative of two slots of one unknown: the larger dx
    and dy fields, taken in place, and their sum as the order."""
    dx, dy = max(s & _MX, t & _MX), max(s & _MY, t & _MY)
    return ((dx >> _X) + (dy >> 1)) << _O | dx | dy | s & 1


def label(s: int) -> str:
    u, dx, dy = fields(s)
    return ("xi", "eta")[u] + ("_" + "x" * dx + "y" * dy if dx + dy else "")


def rank(s: int) -> int:
    """The slot's index in int order: o(o + 1) + 2 dx + u, o = dx + dy.
    The slots of order <= N are the ranks 0 ... (N + 1)(N + 2) - 1."""
    o = s >> _O
    return o * (o + 1) + 2 * (s >> _X & _FIELD) + (s & 1)


LinDiffPoly = Dict[int, MPoly]


# -- generation -----------------------------------------------------------------


JetKey = Tuple[Tuple[str, int], ...]
JetTerms = Tuple[Tuple[int, Tuple[Tuple[JetKey, int], ...]], ...]


@lru_cache(maxsize=None)
def _prolongation_terms(n: int) -> Tuple[JetTerms, ...]:
    """The linear parts that multiply R*Q, -(R*P), f_x and f_(y^(k)),
    k < n, in the invariance condition, each slot's coefficient split into
    its jet monomials with integer coefficients, keyed as by
    ``MPoly.coeffs_over`` (see ``invariance_coefficients``).  Cached per
    order.

    eta^(0), ..., eta^(n) are built as terms {(slot, m): c}, m the exponents
    of (y', ..., y^(n)).  A slot, being a function of (x, y) restricted to
    a curve, differentiates to its x-shift plus y' times its y-shift, so
    D_x(c m s) = c D_x(m) s + c m (s + DX) + c m y' (s + DY).
    """
    def d_x(terms: dict) -> dict:
        out: dict = {}
        for (s, m), c in terms.items():
            images = [(s, m[:i] + (e - 1, m[i + 1] + 1) + m[i + 2:], c * e)
                      for i, e in enumerate(m[:-1]) if e]
            images += [(s + DX, m, c), (s + DY, (m[0] + 1,) + m[1:], c)]
            for t, mt, ct in images:
                out[t, mt] = out.get((t, mt), 0) + ct
        return out

    one = (0,) * n
    dxi = d_x({(slot(XI, 0, 0), one): 1})
    etas = [{(slot(ETA, 0, 0), one): 1}]
    for k in range(1, n + 1):
        e = d_x(etas[-1])
        for (s, m), c in dxi.items():  # - y^(k) D_x xi
            m = m[:k - 1] + (m[k - 1] + 1,) + m[k:]
            e[s, m] = e.get((s, m), 0) - c
        etas.append(e)
    # eta^(n) = A + B y^(n) on y^(n) = -P/Q contributes A*R*Q + B*(-(R*P))
    parts: Tuple[dict, dict] = ({}, {})
    for (s, m), c in etas[n].items():
        if m[-1] > 1:
            raise InternalInvariantError(
                "prolonged coefficient is not linear in the top derivative")
        parts[m[-1]][s, m] = c
    lins = [*parts, {(slot(XI, 0, 0), one): 1}, *etas[:n]]
    if max(s >> _O for lin in lins for s, _ in lin) > n:
        raise InternalInvariantError(
            "prolongation produced slot derivatives beyond the equation order")
    names = [jet_name(k) for k in range(1, n)]
    keys: Dict[tuple, JetKey] = {}
    out = []
    for lin in lins:
        split: Dict[int, list] = {}
        for (s, m), c in lin.items():
            if c:
                if m not in keys:
                    keys[m] = tuple(sorted(
                        (v, e) for v, e in zip(names, m) if e))
                split.setdefault(s, []).append((keys[m], c))
        out.append(tuple((s, tuple(t)) for s, t in split.items()))
    return tuple(out)


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
    with a polynomial in (x, y, jets) is formed.  Q*R*f_v is formed as
    P_v*R - P*(Q_v/G), or P_v*R when Q lacks v: R and every Q_v/G come
    from one ``polys.content`` of (Q, Q_v, ...), which divides each of
    them once, not the full product.  The coefficients are
    left as collected, with no scaling: completion makes each equation it
    inserts primitive.
    """
    n, P, Q = ode.n, ode.f.num, ode.f.den
    R, *quots = content([Q] + [Q.derivative(v) for v in Q.vars])[1]
    over_g = dict(zip(Q.vars, quots))
    mults = [R * Q, -(R * P)]
    for v in ["x"] + [jet_name(k) for k in range(n)]:
        mult = P.derivative(v) * R
        if v in over_g:
            mult = mult - P * over_g[v]
        mults.append(mult)
    jets = {jet_name(k) for k in range(1, n)}
    collected: Dict[JetKey, LinDiffPoly] = {}
    for lin, mult in zip(_prolongation_terms(n), mults):
        if mult.is_zero():
            continue
        parts = mult.coeffs_over(jets).items()
        for s, split in lin:
            for ckey, k in split:
                for mkey, p in parts:
                    eq = collected.setdefault(_key_product(ckey, mkey), {})
                    eq[s] = eq.get(s, ZERO).add_scaled(p, k)
    out = {}
    for key, eq in collected.items():
        eq = {s: c for s, c in eq.items() if not c.is_zero()}
        if eq:
            out[key] = eq
    return out


def determining_system(ode: OdeSpec) -> List[LinDiffPoly]:
    """The determining equations as collected: one per jet monomial in
    (y', ..., y^(n-1)), in the order of the sorted monomial keys.

    No equation is scaled and none is dropped.  Completion reduces every
    equation it takes and makes each one it inserts primitive for its lead,
    so a canonical form here would be computed twice, and a duplicate, or
    a multiple of another equation, reduces to zero there.
    """
    collected = invariance_coefficients(ode)
    return [collected[key] for key in sorted(collected)]
