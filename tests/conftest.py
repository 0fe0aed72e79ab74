"""Shared fixtures and strategies for the suite.

The expensive objects — full analyses of the five reference equations and
the oracle-corpus sweep — are computed once per session; several test
modules assert different properties of the same runs.
"""
from fractions import Fraction
from typing import Dict, List

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from lieode import analyze, default_corpus
from lieode.determining import ETA, XI, Slot, add_term
from lieode.involutive import lin_derive
from lieode.liealgebra import Point
from lieode.linalg import Mat, Vec, identity, rref
from lieode.ratfunc import RatFunc
from lieode.recovery import CharPoly, classify_pair

settings.register_profile("suite", max_examples=50, deadline=None,
                          derandomize=True)
settings.load_profile("suite")


def rationals(max_abs: int = 9, max_den: int = 4):
    """Small exact rationals; denominators stay tame to keep runs fast."""
    return st.builds(Fraction,
                     st.integers(-max_abs, max_abs),
                     st.integers(1, max_den))


def nonzero_rationals(max_abs: int = 9, max_den: int = 4):
    return rationals(max_abs, max_den).filter(bool)


def fraction_bracket(C, u, v):
    """[u, v] over the rationals, straight from structure constants C."""
    m = len(C)
    return [sum((u[i] * v[j] * C[i][j][k] for i in range(m)
                 for j in range(m)), Fraction(0)) for k in range(m)]


def row_space_basis(vectors) -> List[Vec]:
    """Canonical basis (rref rows) of the span of the given vectors."""
    vs = [list(v) for v in vectors if any(v)]
    if not vs:
        return []
    m, pivots = rref(vs)
    return m[:len(pivots)]


def inverse(a: Mat) -> Mat:
    """Inverse of a square matrix over the rationals, by rref of [a | I]."""
    k = len(a)
    m, pivots = rref([list(row) + e for row, e in zip(a, identity(k))])
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return [row[k:] for row in m]


def affine_equivalent(p: CharPoly, q: CharPoly) -> bool:
    """Whether p and q have the same class under root maps z -> k*z + b."""
    return classify_pair(p, q)[0]


def reference_derivative(f: RatFunc, name: str) -> RatFunc:
    """d f / d name by the quotient rule over Q^2, reduced by a full gcd."""
    p, q = f.num, f.den
    return RatFunc(p.derivative(name) * q - p * q.derivative(name), q * q)


def plain_eval(f, point) -> Fraction:
    """Value of an MPoly or RatFunc at ``point`` ({name: value}), summed term
    by term in Fraction arithmetic."""
    if isinstance(f, RatFunc):
        return plain_eval(f.num, point) / plain_eval(f.den, point)
    total = Fraction(0)
    for e, c in f.terms.items():
        for v, k in zip(f.vars, e):
            c *= Fraction(point[v]) ** k
        total += c
    return total


def solution_data_from_components(xi, eta, point: Point, N: int) -> Dict[Slot, Fraction]:
    """Taylor slot table of an explicitly given generator (xi(x,y), eta(x,y)).

    Test helper: lets known closed-form symmetries be compared against the
    series basis (membership in its span, equality of reconstructed tables).
    """
    env = {"x": point[0], "y": point[1]}
    out: Dict[Slot, Fraction] = {}
    for unk, comp in ((XI, xi), (ETA, eta)):
        row = comp
        by_index = {(0, 0): row}
        for total in range(1, N + 1):
            for i in range(total + 1):
                j = total - i
                if i:
                    by_index[(i, j)] = by_index[(i - 1, j)].derivative("x")
                else:
                    by_index[(i, j)] = by_index[(i, j - 1)].derivative("y")
        for (i, j), fn in by_index.items():
            out[Slot(unk, i, j)] = plain_eval(fn, env)
    return out


def substitute_generator(eq, xi: RatFunc, eta: RatFunc) -> RatFunc:
    """Evaluate an equation on a concrete generator (xi(x,y), eta(x,y))."""
    total = RatFunc.zero()
    for s, c in eq.items():
        v = xi if s.unknown == XI else eta
        for _ in range(s.dx):
            v = v.derivative("x")
        for _ in range(s.dy):
            v = v.derivative("y")
        total = total + RatFunc(c) * v
    return total


def normal_form(inv, p):
    """Reference normal form of p modulo a completed system, over RatFunc.

    Each equation is solved for its lead (coefficient one), and the highest
    reducible slot is eliminated by subtracting its coefficient times the
    matching derivative of the first equation whose lead divides it.  On a
    completed system the result does not depend on these choices, so it
    pins the forward-substitution table exactly.
    """
    solved = [(lead, {s: RatFunc(c, eq[lead]) for s, c in eq.items()})
              for eq, lead in zip(inv.equations, inv.leads)]
    work = {s: RatFunc(c) for s, c in p.items() if not c.is_zero()}
    while True:
        reducible = [s for s in work
                     if any(lead.divides(s) for lead, _ in solved)]
        if not reducible:
            return work
        best = max(reducible, key=inv.ranking.key)
        lead, d = next((lead, eq) for lead, eq in solved
                       if lead.divides(best))
        for var, k in (("x", best.dx - lead.dx), ("y", best.dy - lead.dy)):
            for _ in range(k):
                d = lin_derive(d, var)
        c = work[best]
        for t, v in d.items():
            add_term(work, t, -(c * v))


# The five reference equations exercised throughout the suite:
# a maximal-symmetry input, three images of constant-coefficient linear
# equations under u = e^y, and a non-linearizable control.  "exp_image3"
# comes from u''' - u' = 0, whose roots {-1, 0, 1} form an arithmetic
# progression, so it is trivial (m = 7); test_criterion_03_actual_behavior
# relies on it.  "cc_image3" comes from u''' - u'' - 2*u' = 0, roots
# {-1, 0, 2}, the one genuine constant-coefficient input (m = 5);
# acceptance criterion 3 relies on it.
REFERENCE_INPUTS = {
    "max2": "y'' = 0",
    "exp_image2": "y'' + (y')^2 = 0",
    "exp_image3": "y''' + 3*y'*y'' + (y')^3 - y' = 0",
    "cc_image3": "y''' + 3*y'*y'' + (y')^3 - (y'' + (y')^2) - 2*y' = 0",
    "negative2": "y'' = y^2",
}


@pytest.fixture(scope="session")
def reference_reports():
    return {key: analyze(text) for key, text in REFERENCE_INPUTS.items()}


@pytest.fixture(scope="session")
def corpus_reports():
    """One full analysis per oracle-corpus instance."""
    return [(inst, analyze(inst.ode)) for inst in default_corpus()]
