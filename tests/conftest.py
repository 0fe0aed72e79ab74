"""Shared fixtures and strategies for the suite.

The expensive objects — full analyses of the five reference equations and
the oracle-corpus sweep — are computed once per session; several test
modules assert different properties of the same runs.
"""
import functools
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction
from math import comb, lcm, perm
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, TypeVar)

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from lieode import analyze, default_corpus
from lieode.determining import (LinDiffPoly, determining_system, divides,
                                fields, slot)
from lieode.errors import (InputError, InternalInvariantError,
                           NonRationalInstance, OdeSyntaxError)
from lieode.involutive import (RANKING, InvolutiveSystem, _cross, primitive,
                               reduce)
from lieode.jets import dx_images, jet_name
from lieode.liealgebra import LieAlgebraTable, Point, _shifted
from lieode.linalg import Mat, Vec, rref
from lieode.parsing import OdeSpec, parse_ode, print_ode
from lieode.polys import ONE, ZERO, MPoly, _unpack, divexact
from lieode.polys import gcd as poly_gcd
from lieode.pushforward import (OracleInstance, PointTransformation,
                                is_staircase_class)
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


@st.composite
def mpolys(draw, names=("x", "y"), max_terms=4, max_exp=3):
    terms = draw(st.dictionaries(
        st.tuples(*(st.integers(0, max_exp),) * len(names)),
        rationals(), max_size=max_terms))
    return MPoly(names, terms)


def mono_key(exps: Tuple[int, ...]) -> tuple:
    """The monomial order on exponent tuples, the reference for the packed
    keys of ``lieode.polys``: graded, then lex with the last (highest-ranked)
    variable most significant."""
    return (sum(exps), tuple(reversed(exps)))


# MPoly queries that only the suite asks


def as_const(p: MPoly) -> Fraction:
    if p.vars:
        raise ValueError("not a constant polynomial")
    return Fraction(p.num.get(0, 0), p.den)


def leading(p: MPoly) -> Tuple[Tuple[int, ...], Fraction]:
    """Leading (monomial, coefficient) under graded lex."""
    if not p.num:
        raise ValueError("zero polynomial has no leading term")
    m = max(p.num)
    return _unpack(m, len(p.vars)), Fraction(p.num[m], p.den)


def leading_coeff(p: MPoly) -> Fraction:
    return leading(p)[1]


def from_coeffs(coeffs: Sequence[MPoly], name: str) -> MPoly:
    """The polynomial with dense coefficients `coeffs` in `name`, lowest
    first: the inverse of ``MPoly.coeffs_in``."""
    out = ZERO
    v = MPoly.variable(name)
    power = MPoly.const(1)
    for c in coeffs:
        out = out + c * power
        power = power * v
    return out


# -- slots as NamedTuples, the reference for the packed slots ------------------
#
# The slot form and the two tuple-key rankings the engine's packed ints
# replaced: int order is the first, and int order of the mirrored slots
# (``mirror_slot``) the second.  The references below work on ``Slot`` keys;
# ``to_slot`` and ``to_int`` (and ``slot_keyed``, ``int_keyed`` for dicts)
# convert at their boundaries.

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


MIRROR_RANKING = "order,ydeg,eta<xi"


def default_key(s: Slot) -> tuple:
    """The ranking ``RANKING``: total order, x-degree, then xi < eta."""
    return (s.order, s.dx, 0 if s.unknown == XI else 1)


def mirror_key(s: Slot) -> tuple:
    """The ranking ``MIRROR_RANKING``: total order, y-degree, then eta < xi."""
    return (s.order, s.dy, 0 if s.unknown == ETA else 1)


def to_slot(s: int) -> Slot:
    u, dx, dy = fields(s)
    return Slot((XI, ETA)[u], dx, dy)


def to_int(s: Slot) -> int:
    return slot((XI, ETA).index(s.unknown), s.dx, s.dy)


V = TypeVar("V")


def slot_keyed(d: Mapping[int, V]) -> Dict[Slot, V]:
    return {to_slot(s): v for s, v in d.items()}


def int_keyed(d: Mapping[Slot, V]) -> Dict[int, V]:
    return {to_int(s): v for s, v in d.items()}


def partial(f, var: str):
    """df/dvar of an ``MPoly`` or a ``RatFunc``."""
    if isinstance(f, RatFunc):
        return f.derive({var: RatFunc(ONE)})
    return f.derivative(var)


def add_term(out: dict, s, value) -> None:
    """Add value into out[s] in place, dropping the slot when it cancels."""
    old = out.get(s)
    if old is not None:
        value = old + value
    if value.is_zero():
        out.pop(s, None)
    else:
        out[s] = value


def lin_derive(eq, var: str):
    """Differentiate a ``Slot``-keyed equation by x or y (product rule)."""
    out = {}
    step = (1, 0) if var == "x" else (0, 1)
    for s, c in eq.items():
        add_term(out, s, partial(c, var))
        add_term(out, s.derive(*step), c)
    return out


# -- the mirror: the second ranking as a symmetry of the problem ---------------
#
# Swapping x with y, and xi with eta, maps a determining system to one whose
# solutions are the fields pushed forward by (x, y) -> (y, x).  The push
# keeps brackets, so the mirrored system has the same symmetry algebra up to
# isomorphism.  Int order on the mirrored slots is ``mirror_key``, so
# completing the mirrored system, with each slot mirrored back, is
# completion under the second ranking.

_SWAP = {"x": "y", "y": "x"}


def mirror_slot(s: int) -> int:
    """Slot (u, dx, dy) to (the other unknown, dy, dx)."""
    u, dx, dy = fields(s)
    return slot(1 - u, dy, dx)


def mirror(system: Sequence[LinDiffPoly]) -> List[LinDiffPoly]:
    """Every slot mirrored, and x and y swapped in every coefficient."""
    return [{mirror_slot(s): MPoly([_SWAP.get(v, v) for v in c.vars],
                                   c.terms)
             for s, c in eq.items()} for eq in system]


# -- exact matrices over the rationals -----------------------------------------
#
# The Fraction matrix arithmetic and Faddeev-LeVerrier recursion the engine's
# integer ``linalg.charpoly`` replaced, kept as its reference.


def zeros(r: int, c: int) -> Mat:
    return [[Fraction(0)] * c for _ in range(r)]


def identity(k: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    rb = len(b)
    cb = len(b[0])
    out = zeros(len(a), cb)
    for i, row in enumerate(a):
        oi = out[i]
        for k in range(rb):
            aik = row[k]
            if aik:
                bk = b[k]
                for j in range(cb):
                    oi[j] += aik * bk[j]
    return out


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Mat, c: Fraction) -> Mat:
    return [[c * x for x in row] for row in a]


def trace(a: Mat) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def reference_charpoly(a: Mat) -> List[Fraction]:
    """Ascending coefficients of det(z I - A) without the leading 1, by the
    Faddeev-LeVerrier recursion on Fraction matrices."""
    k = len(a)
    coeffs_desc: List[Fraction] = []  # c1 .. ck with p = z^k + c1 z^(k-1) + ... + ck
    m = identity(k)
    for step in range(1, k + 1):
        am = mat_mul(a, m)
        c = -trace(am) / step
        coeffs_desc.append(c)
        m = mat_add(am, mat_scale(identity(k), c))
    if any(x for row in m for x in row):
        raise ArithmeticError("Faddeev-LeVerrier recursion failed to terminate at zero")
    return list(reversed(coeffs_desc))


# -- integer tables from Fraction data, and back -------------------------------


def lie_table(C) -> LieAlgebraTable:
    """The table of Fraction structure constants C, as numerators over the
    lcm of their denominators."""
    E = math.lcm(*(Fraction(c).denominator for row in C for vec in row
                   for c in vec))
    return LieAlgebraTable(len(C), [[[int(c * E) for c in vec] for vec in row]
                                    for row in C], E)


def fraction_table(rows):
    """A normal-form table by position, keyed by slot, with each row's
    numerators over its denominator."""
    slots = list(reference_slot_index(math.isqrt(len(rows)) - 1))
    assert len(slots) == len(rows)
    return {slots[k]: {slots[r]: Fraction(v, d) for r, v in vals.items()}
            for k, (vals, d) in enumerate(rows)}


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


def substitute(f: RatFunc, name: str, value: RatFunc) -> RatFunc:
    """f with ``value`` put for the variable ``name``, by Horner's scheme."""
    def horner(p: MPoly) -> RatFunc:
        acc = RatFunc(ZERO)
        for c in reversed(p.coeffs_in(name)):
            acc = acc * value + RatFunc(c)
        return acc

    return horner(f.num) / horner(f.den)


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
                    by_index[(i, j)] = partial(by_index[(i - 1, j)], "x")
                else:
                    by_index[(i, j)] = partial(by_index[(i, j - 1)], "y")
        for (i, j), fn in by_index.items():
            out[Slot(unk, i, j)] = plain_eval(fn, env)
    return out


def substitute_generator(eq, xi: RatFunc, eta: RatFunc) -> RatFunc:
    """Evaluate an equation on a concrete generator (xi(x,y), eta(x,y))."""
    total = RatFunc(ZERO)
    for s, c in eq.items():
        v = xi if s.unknown == XI else eta
        for _ in range(s.dx):
            v = partial(v, "x")
        for _ in range(s.dy):
            v = partial(v, "y")
        total = total + RatFunc(c) * v
    return total


def normal_form(inv: InvolutiveSystem, p):
    """Reference normal form of the ``Slot``-keyed p modulo a completed
    system, over RatFunc.

    Each equation is solved for its lead (coefficient one), and the highest
    reducible slot is eliminated by subtracting its coefficient times the
    matching derivative of the first equation whose lead divides it.  On a
    completed system the result does not depend on these choices, so it
    pins the forward-substitution table exactly.
    """
    solved = [(to_slot(e.lead), {to_slot(s): RatFunc(c, e.terms[e.lead])
                                 for s, c in e.terms.items()})
              for e in inv.eqs]
    work = {s: RatFunc(c) for s, c in p.items() if not c.is_zero()}
    while True:
        reducible = [s for s in work
                     if any(lead.divides(s) for lead, _ in solved)]
        if not reducible:
            return work
        best = max(reducible, key=default_key)
        lead, d = next((lead, eq) for lead, eq in solved
                       if lead.divides(best))
        for var, k in (("x", best.dx - lead.dx), ("y", best.dy - lead.dy)):
            for _ in range(k):
                d = lin_derive(d, var)
        c = work[best]
        for t, v in d.items():
            add_term(work, t, -(c * v))


# -- references for the determining stage ----------------------------------------
#
# The product-form determining system the engine replaced: the prolongation
# is built with polynomial coefficients in the jets, every product is formed
# in full, and the content is a gcd chain followed by a second division.


def reference_primitive(eq, top):
    """eq divided by the gcd of its coefficients, then scaled so that eq[top]
    has leading coefficient 1.  The gcd is a fold of ``polys.gcd``, smallest
    coefficients first, independent of ``polys.content``."""
    g = ZERO
    for c in sorted(eq.values(), key=lambda c: len(c.num)):
        g = poly_gcd(g, c)
        if g.is_const():
            break
    if not g.is_const():
        eq = {s: divexact(c, g) for s, c in eq.items()}
    lc = leading_coeff(eq[top])
    return {s: c * (1 / lc) for s, c in eq.items()}


def reference_prolonged_eta(n: int) -> List[Dict[Slot, MPoly]]:
    """(eta^(0), ..., eta^(n)), each step eta^(k) = D_x eta^(k-1) - y^(k) D_x xi,
    with ``MPoly`` coefficients in the jets: D_x takes each coefficient
    through the polynomial derivation of ``dx_images``, and each slot to its
    x-shift plus y' times its y-shift."""
    y1 = MPoly.variable(jet_name(1))

    def d_x(a):
        out = {}
        for s, c in a.items():
            add_term(out, s, c.derive(dx_images(c.vars)))
            add_term(out, s.derive(1, 0), c)
            add_term(out, s.derive(0, 1), c * y1)
        return out

    dxi = d_x({Slot(XI, 0, 0): MPoly.const(1)})
    etas = [{Slot(ETA, 0, 0): MPoly.const(1)}]
    for k in range(1, n + 1):
        e = d_x(etas[-1])
        yk = MPoly.variable(jet_name(k))
        for s, c in dxi.items():
            add_term(e, s, -(c * yk))
        etas.append(e)
    return etas


def invariance_expression(ode: OdeSpec):
    """Q*R times X(y^(n) + f) restricted to solutions, f = P/Q, R = Q/G, as
    one slot-linear expression with coefficients in (x, y, jets)."""
    n, P, Q = ode.n, ode.f.num, ode.f.den
    G = Q
    for v in Q.vars:
        G = poly_gcd(G, Q.derivative(v))
    R = divexact(Q, G)
    etas = reference_prolonged_eta(n)
    top = jet_name(n)
    out = {}
    for s, c in etas[n].items():
        a, b = (c.coeffs_in(top) + [ZERO])[:2]
        add_term(out, s, R * (Q * a - P * b))
    for lin, v in [({Slot(XI, 0, 0): MPoly.const(1)}, "x")] + [
            (etas[k], jet_name(k)) for k in range(n)]:
        fv = divexact(P.derivative(v) * Q - P * Q.derivative(v), G)
        for s, c in lin.items():
            add_term(out, s, c * fv)
    return out


def reference_collected(ode: OdeSpec):
    """invariance_expression collected by jet monomial, one equation per
    monomial in the order of the sorted monomial keys, none scaled."""
    jets = {jet_name(k) for k in range(1, ode.n)}
    collected = {}
    for slot, c in invariance_expression(ode).items():
        for key, coeff in c.coeffs_over(jets).items():
            collected.setdefault(key, {})[slot] = coeff
    return [collected[key] for key in sorted(collected)]


def reference_determining_system(ode: OdeSpec):
    """``reference_collected`` with each equation made primitive for its
    lead, its highest slot under ``default_key``, duplicates dropped."""
    equations, seen = [], set()
    for eq in reference_collected(ode):
        eq = reference_primitive(eq, max(eq, key=default_key))
        sig = tuple(sorted(eq.items()))
        if sig not in seen:
            seen.add(sig)
            equations.append(eq)
    return equations


def canonical_view(system: Sequence[LinDiffPoly]) -> List[LinDiffPoly]:
    """Each equation made primitive for its lead, its highest slot in int
    order, duplicates dropped: the determining system in the canonical form
    completion gives each equation it inserts."""
    equations, seen = [], set()
    for eq in system:
        eq = primitive(eq, max(eq))
        sig = tuple(sorted(eq.items()))
        if sig not in seen:
            seen.add(sig)
            equations.append(eq)
    return equations


def audit_involutive(inv: InvolutiveSystem,
                     original: Optional[Sequence[LinDiffPoly]] = None) -> bool:
    """Whether a completed system is passive and reduced: every
    cross-derivative of two equations in one unknown and every equation of
    ``original`` reduce to zero, and no term but an equation's own lead is
    a derivative of a lead."""
    eqs = inv.eqs
    for a, b in itertools.combinations(eqs, 2):
        if fields(a.lead)[0] == fields(b.lead)[0] and reduce(_cross(a, b), eqs):
            return False
    if any(reduce(eq, eqs) for eq in original or ()):
        return False
    return not any(divides(f.lead, s) for e in eqs for s in e.terms
                   for f in eqs if s != e.lead or f is not e)


# -- one independent oracle for the series stages ------------------------------
#
# A formal power-series solution at a point is a jet on which every
# derivative of every equation vanishes there (Reid, Eur. J. Appl. Math. 2,
# 1991).  The checks below hold the series basis to that.  A slot is keyed
# by (order, dx, u), whose lexicographic order is int order, so basis
# position k is ``slot_keys(N)[k]``: neither ``rank`` nor the engine's
# layout is read.  A derivative of an equation is taken at the point by
# Leibniz's rule on ``liealgebra._shifted`` Taylor data.


Key = Tuple[int, int, int]


def slot_keys(N: int) -> List[Key]:
    """(order, dx, u) of every slot of order <= N, in int order."""
    return [(o, dx, u) for o in range(N + 1) for dx in range(o + 1)
            for u in (0, 1)]


def reference_slot_index(N: int) -> Dict[Slot, int]:
    """Position of every slot of order <= N: its place among them in the
    ranking ``default_key``."""
    slots = sorted((Slot(u, i, total - i) for u in (XI, ETA)
                    for total in range(N + 1) for i in range(total + 1)),
                   key=default_key)
    return {s: k for k, s in enumerate(slots)}


def basis_values(basis) -> List[Dict[Slot, Fraction]]:
    """Each element of a series basis as its value at every slot of order
    <= N + 1, zeros included."""
    slots = list(reference_slot_index(basis.N + 1))
    out = []
    for col in basis.cols:
        values = dict.fromkeys(slots, Fraction(0))
        for k, v in col:
            values[slots[k]] = Fraction(v, basis.den)
        out.append(values)
    return out


def keyed_columns(basis) -> List[Dict[Key, int]]:
    """Each basis column's numerators by slot key."""
    keys = slot_keys(basis.N + 1)
    return [{keys[k]: v for k, v in col} for col in basis.cols]


def prolonged_rows(system: Sequence[LinDiffPoly], point: Point, K: int):
    """Each derivative of order <= K of each equation at ``point``, as
    integer weights by slot key: derived by a, an equation's term t adds
    a!/(a-b)! times the Taylor coefficient b of its coefficient to slot
    t + a - b, over one scale per equation."""
    for eq in system:
        q = max(dx + dy for _, dx, dy in map(fields, eq))
        terms = [(fields(s), _shifted(c, point, K - q)) for s, c in eq.items()]
        S = lcm(*(s for _, (_, s) in terms))
        for o in range(K - q + 1):
            for ax in range(o + 1):
                row: Dict[Key, int] = {}
                for (u, dx, dy), (T, s) in terms:
                    for (i, j), n in T.items():
                        if i <= ax and j <= o - ax:
                            key = (dx + dy + o - i - j, dx + ax - i, u)
                            row[key] = row.get(key, 0) + (
                                perm(ax, i) * perm(o - ax, j) * n * (S // s))
                yield row


MODULUS = 2 ** 61 - 1


def pointwise_rows(system: Sequence[LinDiffPoly], point: Point, K: int,
                   N: int) -> List[Dict[Key, int]]:
    """Equations mod ``MODULUS`` that cut out the series solutions of
    ``system`` at ``point``, prolonged to order K and projected to order N.

    The prolonged rows are reduced, each pivot on its row's highest slot
    and cleared from the other rows, so the rows whose pivot has order <= N
    span every combination of slots of order <= N alone.  The projected
    dimension is (N + 1)(N + 2) minus their number.
    """
    pivots: Dict[Key, Dict[Key, int]] = {}
    for row in prolonged_rows(system, point, K):
        row = {k: w % MODULUS for k, w in row.items()}
        for c in [c for c in row if c in pivots]:
            _subtract(row, row.pop(c), pivots[c])
        row = {k: w for k, w in row.items() if w}
        if row:
            top = max(row)
            scale = pow(row.pop(top), -1, MODULUS)
            row = {k: w * scale % MODULUS for k, w in row.items()}
            for r in pivots.values():
                if top in r:
                    _subtract(r, r.pop(top), row)
            pivots[top] = row
    return [{k: 1, **r} for k, r in pivots.items() if k[0] <= N]


def _subtract(row, f, piv) -> None:
    """row -= f * piv mod ``MODULUS``, in place."""
    for k, w in piv.items():
        v = (row.get(k, 0) - f * w) % MODULUS
        if v:
            row[k] = v
        else:
            row.pop(k, None)


def satisfies(rows, col: Mapping[Key, int]) -> bool:
    """Whether the values ``col`` by slot key satisfy every row."""
    return all(sum(w * col.get(k, 0) for k, w in r.items()) % MODULUS == 0
               for r in rows)


def series_faults(inv: InvolutiveSystem, basis) -> List[str]:
    """Why ``basis`` is not the delta basis of ``inv`` at its point: each
    element must hold ``den`` at its own parametric slot and 0 at the
    others, and satisfy exactly every derivative of order <= N + 1 of every
    completed equation there.  Forward substitution solves those uniquely
    from the delta data, so this pins every value."""
    cols = keyed_columns(basis)
    params = [(dx + dy, dx, u) for u, dx, dy in map(fields, basis.parametric)]
    faults = ["element %d is not delta data" % i for i, col in enumerate(cols)
              if [col.get(p, 0) for p in params]
              != [basis.den * (i == j) for j in range(len(params))]]
    for row in prolonged_rows(inv.equations, basis.point, basis.N + 1):
        faults += ["element %d misses %r" % (i, max(row))
                   for i, col in enumerate(cols)
                   if sum(w * col.get(k, 0) for k, w in row.items())]
    return faults


def sparse_structure_constants(basis) -> List[List[List[Fraction]]]:
    """Structure constants by Leibniz's rule on Fraction values keyed by
    (u, dx, dy): a^w at (p, q) times the derivative (r, t) of b^u by w's
    variable adds C(p+r, p) C(q+t, q) a^w_pq (b^u_w)_rt to [a, b]^u at
    (p+r, q+t), less the same with a and b swapped.  The coordinates are
    the values at the parametric slots."""
    at = [fields(p) for p in basis.parametric]
    top = max((dx + dy for _, dx, dy in at), default=0)
    vals = [{(u, dx, o - dx): Fraction(v, basis.den)
             for (o, dx, u), v in col.items() if o <= top + 1}
            for col in keyed_columns(basis)]

    def bracket(a, b):
        out = {}
        for f, g, sign in ((a, b, 1), (b, a, -1)):
            for (w, p, q), fv in f.items():
                for (u, r, t), gv in g.items():
                    r, t = r - (w == 0), t - (w == 1)
                    if r >= 0 and t >= 0 and p + q + r + t <= top:
                        key = (u, p + r, q + t)
                        out[key] = out.get(key, 0) + (
                            sign * comb(p + r, p) * comb(q + t, q) * fv * gv)
        return [out.get(s, 0) for s in at]

    return [[bracket(a, b) for b in vals] for a in vals]


# -- the bench inputs -------------------------------------------------------------

BENCH_DATA = pathlib.Path(__file__).resolve().parent.parent / "bench" / "data"


def _bench_items(names=("corpus", "controls", "rational")):
    """The inputs of the named bench files, read from the JSON alone."""
    for name in names:
        data = json.loads((BENCH_DATA / (name + ".json")).read_text(
            encoding="utf-8"))
        yield from data["inputs"]


@functools.lru_cache(maxsize=None)
def bench_odes():
    """(id, ode, translated ode) for every input of the corpus, controls and
    rational bench files.  The translation x -> x + b, y -> y + d is drawn
    from {1, 2}^2 by one seeded generator; b is 0 for an input marked
    ``"shift_x": false``.  A translation keeps the symmetry algebra."""
    rng = random.Random(1)
    x, y = RatFunc.variable("x"), RatFunc.variable("y")
    out = []
    for item in _bench_items():
        b, d = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        if item.get("shift_x") is False:
            b = 0
        ode = parse_ode(item["text"])
        shifted = substitute(substitute(ode.f, "x", x + b), "y", y + d)
        out.append((item["id"], ode, OdeSpec(ode.n, shifted)))
    return tuple(out)


@pytest.fixture
def ode(request):
    """The ``bench_odes`` equation that a parameter (id, variant) of
    ``bench_inputs``, ``bench_ranking_cases`` or ``bench_plain`` names, so
    collection reads only the bench files and runs no arithmetic.  Use it
    with ``indirect=["ode"]``."""
    name, variant = request.param
    plain, shifted = next((plain, shifted)
                          for ident, plain, shifted in bench_odes()
                          if ident == name)
    return shifted if variant == "shifted" else plain


def bench_plain():
    """``pytest.param((id, "plain"))`` for every bench input, with its id."""
    return [pytest.param((item["id"], "plain"), id=item["id"])
            for item in _bench_items()]


def bench_inputs():
    """``pytest.param((id, variant))`` for every input of ``bench_odes``,
    plain and translated."""
    return [pytest.param((item["id"], variant),
                         id=f"{item['id']}-{variant}")
            for item in _bench_items() for variant in ("plain", "shifted")]


def bench_ranking_cases():
    """``pytest.param((id, variant), mirrored)`` for every input of
    ``bench_odes``, plain and translated, under both rankings: the second
    ranking is the engine's on the mirrored system
    (``ranking_case_system``)."""
    return [pytest.param((item["id"], variant), mirrored,
                         id=f"{item['id']}-{variant}-{ranking}")
            for item in _bench_items() for variant in ("plain", "shifted")
            for mirrored, ranking in ((False, RANKING),
                                      (True, MIRROR_RANKING))]


def ranking_case_system(ode: OdeSpec, mirrored: bool) -> List[LinDiffPoly]:
    """The determining system of a ``bench_ranking_cases`` case."""
    detsys = determining_system(ode)
    return mirror(detsys) if mirrored else detsys


def tresse_holds(ode: OdeSpec, yy: int = 6) -> bool:
    """Lie's linearization test for a second-order equation, y'' = F(x, y, p)
    with F = -f and p = y' (Tresse 1896; Ibragimov and Magri, Nonlinear
    Dyn. 36, 2004).

    The equation is linearizable by a point transformation iff F_pppp = 0
    and I = D^2 F_pp - 4 D F_py - F_p D F_pp + 6 F_yy - 3 F_y F_pp
    + 4 F_p F_py vanishes, where D = d/dx + p d/dy + F d/dp is the total
    derivative along solutions.  ``yy`` is the coefficient of F_yy in I,
    a parameter so that a test can change it.
    """
    assert ode.n == 2
    F, p = -ode.f, RatFunc.variable("y1")

    def d(g, *names):
        for name in names:
            g = g.derive({name: RatFunc(ONE)})
        return g

    def D(g):
        return g.derive({"x": RatFunc(ONE), "y": p, "y1": F})

    if d(F, "y1", "y1", "y1", "y1"):
        return False
    Fp, Fy, Fpp, Fpy = d(F, "y1"), d(F, "y"), d(F, "y1", "y1"), d(F, "y1", "y")
    I = (D(D(Fpp)) - 4 * D(Fpy) - Fp * D(Fpp) + yy * d(F, "y", "y")
         - 3 * Fy * Fpp + 4 * Fp * Fpy)
    return I.is_zero()


def bench_texts() -> List[str]:
    """Every equation and transformation text of the bench files, and the
    printed form of each translated equation of ``bench_odes``."""
    texts = [print_ode(shifted) for _, _, shifted in bench_odes()]
    texts += [item[key] for item in _bench_items(
        ("corpus", "controls", "rational", "oracle"))
        for key in ("text", "psi", "phi", "image") if key in item]
    return texts


# -- references for the oracle ----------------------------------------------------


def reference_push_linear(p: CharPoly, T: PointTransformation) -> OracleInstance:
    """``push_linear`` by the chain of normalized rational functions it
    replaced: each u_{k+1} = D_x(u_k) / D_x(phi) is one ``total_dx`` call and
    one division, reduced at every step."""
    n = p.degree
    if n < 2:
        raise InputError("source equation must have order at least 2")
    reg = T.registry
    dphi = reg.total_dx(T.phi)
    u = [T.psi]
    for _ in range(n):
        u.append(reg.total_dx(u[-1]) / dphi)
    full = p.full_coeffs()
    eq = RatFunc(ZERO)
    for k, a in enumerate(full):
        if a:
            eq = eq + RatFunc.const(a) * u[k]
    top = jet_name(n)
    num = eq.num
    if num.degree_in(top) != 1:
        raise InternalInvariantError(
            "image equation is not linear in the highest derivative")
    low, lead = num.coeffs_in(top)
    if lead.is_zero():
        raise InternalInvariantError(
            "coefficient of the highest derivative vanished identically")
    f = RatFunc(low, lead)  # the reduction cancels shared transcendental factors
    if any(v in reg.images for v in f.variables()):
        raise NonRationalInstance(
            "image of %s under %s is outside the rational class"
            % (p, T.name))
    ode = OdeSpec(n, f)
    case = "trivial" if is_staircase_class(p) else "constant-coefficients"
    return OracleInstance(ode, p, T, case)


# -- the character-loop tokenizer ------------------------------------------------
#
# The tokenizer ``parsing._tokenize`` replaced, kept as its reference.  It
# tests ``str.isdigit``, which also holds for superscripts such as "²" that
# ``int`` rejects; the two agree on every text without such a character.


def reference_tokenize(text: str) -> List[Tuple[str, str, int]]:
    out = []
    i, nchars = 0, len(text)
    while i < nchars:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < nchars and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < nchars and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch == "'":
            j = i
            while j < nchars and text[j] == "'":
                j += 1
            out.append(("primes", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()=":
            out.append((ch, ch, i))
            i += 1
            continue
        raise OdeSyntaxError(f"unexpected character {ch!r}", i)
    out.append(("end", "", nchars))
    return out


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
