"""Rational functions on the jet space of curves y(x).

Jet coordinates are x, y, y', y'', ... with internal names "x", "y", "y1",
"y2", ...  Jet-space expressions are plain RatFunc values in these names;
``jet_order`` reads off the highest derivative an expression involves.

Two operations carry the calculus:

* ``total_derivative`` applies D_x = d/dx + sum_k y^(k+1) d/dy^(k), raising
  the jet order by at most one.
* ``substitute_top(p, n, f)`` eliminates y^(n) and every higher derivative
  using y^(n) = -f and total derivatives of that relation, which is how
  invariance conditions are evaluated on solutions of y^(n) + f = 0.
"""
from __future__ import annotations

from .errors import InternalInvariantError
from .polys import MPoly
from .ratfunc import RatFunc


def jet_name(k: int) -> str:
    """Internal variable name of the k-th derivative of y (k = 0 is y)."""
    if k < 0:
        raise ValueError("negative jet order")
    return "y" if k == 0 else f"y{k}"


def jet_order_of(name: str) -> int:
    """Jet order of a variable name; -1 for x and non-jet symbols."""
    if name == "y":
        return 0
    if name[:1] == "y" and name[1:].isdigit():
        return int(name[1:])
    return -1


def jet_order(rf: RatFunc) -> int:
    """Highest k such that rf involves y^(k); 0 when it involves none."""
    return max([0] + [jet_order_of(v) for v in rf.num.vars + rf.den.vars])


def _total_derivative_mpoly(p: MPoly, top: int) -> MPoly:
    out = p.derivative("x")
    for k in range(top + 1):
        dk = p.derivative(jet_name(k))
        if not dk.is_zero():
            out = out + dk * MPoly.variable(jet_name(k + 1))
    return out


def total_derivative(p: RatFunc) -> RatFunc:
    """Total x-derivative along curves; the jet order rises by at most one."""
    top = jet_order(p)
    num, den = p.num, p.den
    dnum = _total_derivative_mpoly(num, top)
    dden = _total_derivative_mpoly(den, top)
    if dden.is_zero():
        out = RatFunc(dnum, den)
    else:
        out = RatFunc(dnum * den - num * dden, den * den)
    if jet_order(out) > top + 1:
        raise InternalInvariantError(
            "total derivative escalated jet order by more than one")
    return out


def substitute_top(p: RatFunc, n: int, f: RatFunc) -> RatFunc:
    """Eliminate y^(n) and above from p using y^(n) = -f, f of order <= n-1.

    Substituting twice is a no-op because the result involves only jets of
    order < n.  Raises DegenerateInput when a denominator collapses to zero
    under the substitution.
    """
    if jet_order(f) > n - 1:
        raise ValueError(f"f has order {jet_order(f)}, expected <= {n - 1}")
    top = jet_order(p)
    if top < n:
        return p
    # g[k] = value of y^(n+k) on solutions, expressed with jets of order < n
    g = [-f]
    for k in range(1, top - n + 1):
        d = total_derivative(g[k - 1]).subs_var(jet_name(n), g[0])
        if jet_order(d) > n - 1:
            raise InternalInvariantError(
                f"y^({n + k}) on solutions still involves y^({n}) or above")
        g.append(d)
    for k in range(top - n, -1, -1):
        p = p.subs_var(jet_name(n + k), g[k])
    if jet_order(p) > n - 1:
        raise InternalInvariantError("substitute_top left a top-order jet behind")
    return p
