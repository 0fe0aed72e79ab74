"""The jet space of curves y(x).

Jet coordinates are x, y, y', y'', ... with internal names "x", "y", "y1",
"y2", ...  ``jet_order`` reads off the highest derivative a rational
expression involves, and ``dx_images`` gives the images x -> 1 and
y^(k) -> y^(k+1) of the total derivative D_x = d/dx + sum_k y^(k+1) d/dy^(k).
"""
from __future__ import annotations

from typing import Dict, Iterable

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


def dx_images(names: Iterable[str]) -> Dict[str, MPoly]:
    """D_x of the jet coordinates among ``names``; others are constants."""
    ks = {v: jet_order_of(v) for v in names}
    return {v: MPoly.variable(jet_name(k + 1)) if k >= 0 else MPoly.const(1)
            for v, k in ks.items() if k >= 0 or v == "x"}

