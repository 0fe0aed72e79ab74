"""Symmetry algebras: truncated series solutions, structure constants, certificate.

The involutive system's parametric slots carry the free Taylor data of its
solution space.  Fixing an expansion point and assigning delta initial data
(one parametric slot set to 1, the rest to 0) determines every other Taylor
coefficient through the solved-form equations; doing this for each parametric
slot yields a canonical basis of the symmetry algebra as truncated series.
The values come by forward substitution at the point: in ranking order, each
non-parametric slot is solved from the prolonged equation it leads, all of
whose other slots rank lower.  The table is built once, through order N+1,
so each basis element carries its derivative values one order past the
truncation order N.  It is built in Taylor mode, the power-series form of
Riquier's existence theorem (Reid, EJAM 1991): a completed equation
P_lead u_lead + sum_t P_t u_t = 0 has polynomial coefficients, and each is
shifted once to the point, giving its Taylor coefficients, over one common
scale per equation; a prolonged equation's value there is a Leibniz sum
over those integers and lower, already tabled slots, solved by putting
-P_lead(point) into the row's denominator.  Each row is integer numerators
over one positive denominator, reduced by one integer gcd.  No equation is
differentiated symbolically, no power series is divided, and no polynomial
gcd runs.  The series exist exactly where no lead coefficient vanishes:
each P_lead is shifted first, and a zero constant term raises
``SingularPoint`` before any tail is shifted.  The automatic expansion
point is the first candidate at which no lead coefficient vanishes.  The
Taylor data are read straight from the packed keys of the coefficients
(``MPoly.xy_numerators``); at the origin, where most tables are taken,
that read is the whole shift: the Taylor coefficients are the polynomial's
own terms, those above the order needed dropped.  A Leibniz sum reads only
the nonzero rows, and a slot none of whose terms reads one gets the zero
row at once.

The table, the basis and the brackets keep each slot at its rank
(``determining.rank``), its index in int order, which is completion's
ranking: slot (u, dx, dy) of order o sits at o(o + 1) + 2 dx + u, and the
slots of order <= N are the first (N + 1)(N + 2) positions whatever N is.
One read-only layout (``_layout``) through order MAX_TRUNCATION + 1 stores
every position's packed slot and its (u, order, dx, dy) beside it.  The
table is a list of rows by rank, each keyed by the ranks of its parametric
slots, filled in rank order; a Leibniz term finds its slot by that
arithmetic, and a slot finds its solving equation in per-unknown lists of
leads.  Slots are unpacked only to set up the equations, and an lcm or gcd
runs only when a denominator is not 1.

Brackets are taken directly on those values by Leibniz's rule: the value of a
bracket at order k reads the data of both fields up to order k+1, so it is
known through order N.  Its values at the parametric slots are its
coordinates in the delta basis, which gives the structure constants.

The algebra stages run on integers, from the table on.  The basis data
share one least common denominator D (every element reads the same table),
so ``SeriesBasis.cols`` holds, per element, its nonzero numerators over D
by rank, read off the table's rows in one pass; a bracket of two
elements is D^2 times the bracket.  ``LieAlgebraTable`` is built from
those numerators and keeps its constants over their least common
denominator E, and the derived algebra is kept as fraction-free
Gauss-Jordan rows of them (``linalg.integer_rref``).  Fractions are built
only for the public views, when they are read: the table's ``C`` and
``Subalgebra.basis``.  The safety nets are checked on numerators, exactly:
at every slot of order <= N the bracket must equal the combination of
basis elements named by its coordinates (closure of the solution space
under the bracket), the constants must satisfy antisymmetry and the Jacobi
identity, and the derived algebra must be closed.

The linearization certificate is then a pure function of the dimension m,
the order n, and the derived algebra: linearizable iff (n=2 and m=8), or
(n>=3 and m=n+4), or (n>=3, m in {n+1, n+2} and the derived algebra is
abelian of dimension n).  ``certify`` computes the derived algebra once and
hands it on in the certificate.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, perm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .determining import ETA, XI, fields, label, rank, slot
from .errors import InputError, InternalInvariantError, SingularPoint
from .involutive import InvolutiveSystem
from .linalg import IntRows, Vec, eliminate, integer_rref
from .polys import MPoly

Point = Tuple[Fraction, Fraction]
# A normal-form table row: integer numerators by the rank of their
# parametric slot, over one positive denominator, coprime to them.
Row = Tuple[Dict[int, int], int]

# Highest truncation order a caller may request: the series and structure
# work grows steeply with N, and nothing bounds an explicit request otherwise.
MAX_TRUNCATION = 24

_0 = Fraction(0)
_1 = Fraction(1)
_FIXED_POINTS = ((_0, _0), (_1, _1), (_1, Fraction(2)), (Fraction(2), _1),
                 (Fraction(1, 2), Fraction(1, 3)))


def expansion_points() -> Iterator[Point]:
    """Deterministic sequence of candidate expansion points.

    Five fixed points, then the rest of N^2, diagonal by diagonal
    (x + y = 0, 1, 2, ...; x ascending).  A nonzero polynomial cannot
    vanish on all of N^2, so some candidate is regular for any system.
    """
    yield from _FIXED_POINTS
    for total in itertools.count():
        for i in range(total + 1):
            at = (Fraction(i), Fraction(total - i))
            if at not in _FIXED_POINTS:
                yield at


class _Layout:
    """The slots of order <= MAX_TRUNCATION + 1, each at its rank.

    Slot (u, dx, dy) of order o sits at ``start[o] + 2 dx + u``, its rank
    (``determining.rank``), so the slots of order <= N are the first
    (N + 1)(N + 2) positions for every N.  ``slots`` gives each position's
    slot and ``meta`` its (u, order, dx, dy); ``fall`` and ``binom`` hold
    the falling factorials n!/(n-k)! and the binomials C(n, k).
    """

    def __init__(self, slots: Tuple[int, ...],
                 meta: Tuple[Tuple[int, int, int, int], ...],
                 start: Tuple[int, ...], fall: Tuple[Tuple[int, ...], ...],
                 binom: Tuple[Tuple[int, ...], ...]):
        self.slots = slots
        self.meta = meta
        self.start = start
        self.fall = fall
        self.binom = binom


@lru_cache(maxsize=None)
def _layout() -> _Layout:
    """The slot layout, built once and read-only."""
    top = MAX_TRUNCATION + 1
    meta = tuple((u, o, dx, o - dx) for o in range(top + 1)
                 for dx in range(o + 1) for u in (XI, ETA))
    return _Layout(tuple(slot(u, dx, dy) for u, _, dx, dy in meta), meta,
                   tuple(o * (o + 1) for o in range(top + 1)),
                   tuple(tuple(perm(n, k) for k in range(n + 1))
                         for n in range(top + 1)),
                   tuple(tuple(comb(n, k) for k in range(n + 1))
                         for n in range(top + 1)))


def _shifted(p: MPoly, point: Point,
             K: int) -> Tuple[Dict[Tuple[int, int], int], int]:
    """``p(x0 + u, y0 + v)`` through total degree K in (u, v).

    Returns the nonzero integer numerators by exponent (i, j) of u^i v^j
    and their common positive denominator.  With x0 = a/b and y0 = c/d, a
    term x^e y^f of p adds C(e, i) C(f, j) a^(e-i) b^(E-e+i) c^(f-j)
    d^(F-f+j) to (i, j), over p's denominator times b^E d^F, where E and F
    are p's degrees in x and y.  The exponents are read from p's packed
    keys (``MPoly.xy_numerators``); at the origin that read is the whole
    shift, p's own terms of degree <= K over p's denominator.  A
    coefficient in any variable other than x and y is an engine fault and
    raises, at every point.
    """
    terms = p.xy_numerators()
    if terms is None:
        raise InternalInvariantError(
            "coefficient %r is not a function of (x, y) alone" % (p,))
    if not any(point):
        return {(e, f): n for e, f, n in terms if e + f <= K}, p.den
    E = max((e for e, _, _ in terms), default=0)
    F = max((f for _, f, _ in terms), default=0)
    (a, b), (c, d) = ((v.numerator, v.denominator) for v in point)
    xs: Dict[Tuple[int, int], int] = {}
    for e, f, n in terms:
        for i in range(min(e, K) + 1):
            key = (i, f)
            xs[key] = xs.get(key, 0) + (
                n * comb(e, i) * a ** (e - i) * b ** (E - e + i))
    out: Dict[Tuple[int, int], int] = {}
    for (i, f), n in xs.items():
        if n:
            for j in range(min(f, K - i) + 1):
                key = (i, j)
                out[key] = out.get(key, 0) + (
                    n * comb(f, j) * c ** (f - j) * d ** (F - f + j))
    return {k: n for k, n in out.items() if n}, p.den * b ** E * d ** F


def normal_form_table(inv: InvolutiveSystem, N: int,
                      point: Point) -> List[Row]:
    """Value at ``point`` of the normal form of every slot of order <= N.

    The rows sit at the slots' ranks (``determining.rank``), each
    ``(numerators, denominator)``: the integer numerators by the rank of
    their parametric slot (nonzero only) over one positive denominator,
    coprime to them, so equal values give equal rows.  Forward
    substitution in ranking order, which is rank order, reducing each slot
    by the first equation whose lead divides it, as ``involutive.reduce``
    does.

    Taylor mode: the derivative of multi-index a of a completed equation
    P_L u_L + sum_t P_t u_t = 0 solves slot L + a.  By Leibniz's rule, with
    T_c the Taylor coefficients of the polynomial c at the point,
    P_L(point) u_{L+a} = -sum_{0 < b <= a} a!/(a-b)! T_L[b] u_{L+a-b}
    - sum_t sum_{b <= a} a!/(a-b)! T_t[b] u_{t+a-b}, and every slot on the
    right is already tabled.  Each coefficient is shifted to the point once,
    to order N - |L|, all of one equation over one common scale, so the sums
    run on integers: a term is added only when the row it reads is
    nonzero, the rows on the right are brought over the lcm of their
    denominators, the division by -P_L(point) goes into the denominator, and
    each slot takes one gcd (none when every denominator is 1); a slot with
    no nonzero term gets the zero row ({}, 1) with no lcm or gcd.  Every lead
    coefficient is checked first: if one vanishes at the point, it raises
    ``SingularPoint`` before any tail is shifted.  No equation is prolonged
    symbolically.  Every t + a must already be tabled (the lower t + a - b
    rank below it), or the guard raises.

    The slot of a Leibniz term is found by arithmetic on the rank of its
    coefficient's slot.  N is at most MAX_TRUNCATION + 1, the layout's.
    """
    if N > MAX_TRUNCATION + 1:
        raise InputError("table order %d above limit %d"
                         % (N, MAX_TRUNCATION + 1))
    # the equations a slot of order <= N can use: for the series basis, all
    leads = {}
    for e in inv.eqs:
        _, lx, ly = fields(e.lead)
        if lx + ly <= N:
            TL, _ = leads[e] = _shifted(e.terms[e.lead], point, N - lx - ly)
            if not TL.get((0, 0)):
                raise SingularPoint(
                    "singular expansion point (%s, %s): a coefficient "
                    "denominator vanishes there" % point)
    lay = _layout()
    start, meta, fall = lay.start, lay.meta, lay.fall
    # per unknown, the equations in order, each as (lead dx, lead dy,
    # P_L(point), coefficients); a coefficient is (its slot's unknown plus
    # twice its dx, its order, its terms (i, j, 2i, numerator) sorted by
    # (i, j)), the lead's first, all over one scale; the lead's constant
    # term, which multiplies the solved slot, is left out
    solvers: Tuple[list, list] = ([], [])
    for e, (TL, sL) in leads.items():
        u, lx, ly = fields(e.lead)
        shifts = [(fields(t), *_shifted(c, point, N - lx - ly))
                  for t, c in e.terms.items() if t != e.lead]
        S = lcm(sL, *(s for _, _, s in shifts))
        q0 = TL.pop((0, 0)) * (S // sL)
        coeffs = [(tu + 2 * tx, tx + ty,
                   sorted((i, j, 2 * i, n * (S // s))
                          for (i, j), n in T.items()))
                  for (tu, tx, ty), T, s in [((u, lx, ly), TL, sL)] + shifts]
        solvers[u].append((lx, ly, q0, coeffs))
    size = (N + 1) * (N + 2)
    rows: List[Optional[Row]] = [None] * size
    for k in range(size):
        u, _, dx, dy = meta[k]
        for lx, ly, q0, coeffs in solvers[u]:
            if lx <= dx and ly <= dy:
                break
        else:
            rows[k] = ({k: 1}, 1)
            continue
        ax, ay = dx - lx, dy - ly
        ax2 = 2 * ax
        for b, o, _ in coeffs[1:]:
            o += ax + ay
            if o > N or rows[b + start[o] + ax2] is None:
                raise InternalInvariantError(
                    "equation for slot %s is not solved over lower slots"
                    % label(lay.slots[k]))
        fx, fy = fall[ax], fall[ay]
        coef: Dict[int, int] = {}
        for b, o, terms in coeffs:
            b += ax2
            o += ax + ay
            for i, j, i2, n in terms:
                if i > ax:
                    break
                if j <= ay:
                    q = b + start[o - i - j] - i2
                    if rows[q][0]:
                        coef[q] = coef.get(q, 0) + fx[i] * fy[j] * n
        live = [(rows[q], w) for q, w in coef.items() if w]
        if not live:
            rows[k] = ({}, 1)
            continue
        d = 1
        for (_, dq), _ in live:
            if dq != 1:
                d = lcm(d, dq)
        out: Dict[int, int] = {}
        for (vals, dq), w in live:
            if dq != d:
                w *= d // dq
            for r, v in vals.items():
                out[r] = out.get(r, 0) + w * v
        # the value is out / (-q0 d), brought to a positive denominator
        d *= abs(q0)
        g = gcd(d, *out.values()) if d != 1 else 1
        s = g if q0 < 0 else -g
        rows[k] = ({r: v // s for r, v in out.items() if v}, d // g)
    return rows


class SeriesBasis:
    """Truncated Taylor data of the delta basis, on integers.

    Element i has initial datum 1 at ``parametric[i]`` and 0 at the other
    parametric slots.  ``cols[i]`` holds its nonzero values at the slots of
    order <= N + 1, as (rank of the slot, numerator) pairs ascending by
    rank, hence by order, over ``den``, the least common denominator of
    all the basis values; the extra order lets brackets be taken through
    order N.  An empty basis (m = 0) still has its expansion point and
    order.
    """

    def __init__(self, point: Point, N: int, parametric: Tuple[int, ...],
                 cols: Tuple[Tuple[Tuple[int, int], ...], ...], den: int):
        self.point = point
        self.N = N
        self.parametric = parametric
        self.cols = cols
        self.den = den


def check_series_request(point: Optional[Point], N: Optional[int]) -> None:
    """Refuse a `point` that is not two rationals and an `N` that is not an
    int or is above MAX_TRUNCATION (the bound below needs the system)."""
    if point is not None and not (
            isinstance(point, tuple) and len(point) == 2
            and all(isinstance(v, (int, Fraction)) for v in point)):
        raise InputError("expansion point %r is not two rationals (int or "
                         "Fraction)" % (point,))
    if N is not None and not isinstance(N, int):
        raise InputError("truncation order %r is not an int" % (N,))
    if N is not None and N > MAX_TRUNCATION:
        raise InputError("truncation order %d above limit %d" % (N, MAX_TRUNCATION))


def series_basis(inv: InvolutiveSystem,
                 point: Optional[Point] = None,
                 N: Optional[int] = None) -> SeriesBasis:
    """Delta-initial-data basis of the solution space, one per parametric slot."""
    min_n = inv.max_parametric_order() + 2
    # the default order, the minimum, has the same limit
    check_series_request(point, min_n if N is None else N)
    if N is None:
        N = min_n
    elif N < min_n:
        raise InputError("truncation order %d below required %d" % (N, min_n))
    # the first candidate whose lead coefficients are nonzero there; the
    # candidates are unbounded, so one is found
    for at in [point] if point is not None else expansion_points():
        try:
            rows = normal_form_table(inv, N + 1, at)
            break
        except SingularPoint:
            if point is not None:
                raise
    # every row over the lcm D of the row denominators; each row is coprime
    # to its denominator, so D is already the least common denominator
    params = tuple(inv.parametric)
    element = {rank(p): i for i, p in enumerate(params)}
    D = lcm(*(d for _, d in rows))
    cols: List[List[Tuple[int, int]]] = [[] for _ in params]
    for k, (vals, d) in enumerate(rows):
        if vals:
            f = D // d
            for p, v in vals.items():
                cols[element[p]].append((k, v * f))
    return SeriesBasis(at, N, params, tuple(map(tuple, cols)), D)


class LieAlgebraTable:
    """Structure constants [X_i, X_j] = sum_k C[i][j][k] X_k, on integers.

    ``num[i][j][k]`` is E * C[i][j][k] over the common denominator E,
    ``den``; the constructor divides out the factor that E shares with all
    numerators, so E is the least common denominator of the constants.
    Brackets (``bracket_numerators``) and the checks run on those integers.
    ``C``, the constants over the rationals, is built when first read.
    Two tables are equal when their m, numerators and denominator are.
    """

    def __init__(self, m: int, num: List[List[List[int]]], den: int):
        g = den
        for row in num:
            if g == 1:
                break
            g = gcd(g, *itertools.chain.from_iterable(row))
        if g > 1:
            den //= g
            num = [[[c // g for c in vec] for vec in row] for row in num]
        self.m = m
        self.num = num
        self.den = den
        self._sparse = [[[(k, c) for k, c in enumerate(vec) if c]
                         for vec in row] for row in self.num]
        self._C: Optional[List[List[List[Fraction]]]] = None

    def __eq__(self, other):
        if not isinstance(other, LieAlgebraTable):
            return NotImplemented
        return (self.m, self.num, self.den) == (other.m, other.num, other.den)

    @property
    def C(self) -> List[List[List[Fraction]]]:
        """The constants over the rationals, built when first read."""
        if self._C is None:
            E = self.den
            self._C = [[[Fraction(c, E) if c else _0 for c in vec]
                        for vec in row] for row in self.num]
        return self._C

    def bracket_numerators(self, u: Sequence[int],
                            v: Sequence[int]) -> List[int]:
        """E * [u, v] for integer coordinate vectors u, v."""
        out = [0] * self.m
        vs = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            row = self._sparse[i]
            for j, b in vs:
                f = a * b
                for k, c in row[j]:
                    out[k] += f * c
        return out

    def validate(self) -> None:
        """Exact antisymmetry and Jacobi identity; raises on violation.

        Both are checked on the numerators: Jacobi is homogeneous, so the
        scale E^2 of its terms changes nothing.
        """
        m, num, sparse = self.m, self.num, self._sparse
        for i in range(m):
            for j in range(i, m):
                if num[i][j] != [-c for c in num[j][i]]:
                    k = next(k for k in range(m)
                             if num[i][j][k] != -num[j][i][k])
                    raise InternalInvariantError(
                        "structure constants not antisymmetric at "
                        "(%d,%d,%d)" % (i, j, k))
        for i, j, k in itertools.combinations(range(m), 3):
            # [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]]
            out = [0] * m
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for l, x in sparse[b][c]:
                    for q, y in sparse[a][l]:
                        out[q] += x * y
            if any(out):
                raise InternalInvariantError(
                    "Jacobi identity fails at (%d,%d,%d)" % (i, j, k))


def structure_constants(basis: SeriesBasis) -> LieAlgebraTable:
    """Structure constants of the algebra spanned by a series basis.

    Each element is a sparse column of integers, D times its values, for
    the basis denominator D.  The bracket of two scaled fields is D^2 times
    the bracket, by Leibniz's rule on [a,b]^u = a^xi b^u_x + a^eta b^u_y -
    (a <-> b): a^w at slot (p, q) times the derivative (r, t) of b^u_w adds
    C(p+r, p) C(q+t, q) a^w_pq (b^u_w)_rt at slot (u, p+r, q+t), which is
    known through order N.  Its values at the parametric slots are the
    coordinates, over D^2; at every slot of order <= N the bracket times D
    must equal the combination of scaled basis elements they name, or it
    has left the solution space.  The finished table must satisfy
    antisymmetry and Jacobi.  Brackets are lists by rank, through order N.
    """
    m = len(basis.cols)
    if not m:
        return LieAlgebraTable(0, [], 1)
    N, D = basis.N, basis.den
    lay = _layout()
    meta, start, binom = lay.meta, lay.start, lay.binom
    # Per element: its nonzero values of order <= N, as (unknown, order, dx,
    # dy, 2 dx, numerator) and as (rank, numerator); and per derivative
    # direction x, y the nonzero derivatives, as (order, unknown plus twice
    # dx, dx, dy, numerator), by order since the column ascends by rank.
    values, cols, derivs = [], [], []
    for col in basis.cols:
        vals, low, by_x, by_y = [], [], [], []
        for k, v in col:
            u, o, dx, dy = meta[k]
            if o <= N:
                vals.append((u, o, dx, dy, 2 * dx, v))
                low.append((k, v))
            if dx:
                by_x.append((o - 1, u + 2 * dx - 2, dx - 1, dy, v))
            if dy:
                by_y.append((o - 1, u + 2 * dx, dx, dy - 1, v))
        values.append(vals)
        cols.append(low)
        derivs.append((by_x, by_y))
    coord_at = [rank(p) for p in basis.parametric]
    size = (N + 1) * (N + 2)
    num = [[[0] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            br = [0] * size
            for f, g, sign in ((i, j, 1), (j, i, -1)):
                dg = derivs[g]
                for w, o, p, q, p2, fv in values[f]:
                    fv *= sign
                    for og, b, r, t, gv in dg[w]:
                        if o + og > N:
                            break
                        br[b + start[o + og] + p2] += (
                            binom[p + r][p] * binom[q + t][q] * fv * gv)
            coords = [br[k] for k in coord_at]
            # the residual D br - sum c col, which closure makes zero
            if D != 1:
                br = [D * a for a in br]
            for c, col in zip(coords, cols):
                if c:
                    for k, v in col:
                        br[k] -= c * v
            if any(br):
                bad = next(k for k, r in enumerate(br) if r)
                raise InternalInvariantError(
                    "bracket of basis elements %d,%d leaves the solution "
                    "space at slot %s" % (i, j, label(lay.slots[bad])))
            num[i][j] = coords
            num[j][i] = [-c for c in coords]
    table = LieAlgebraTable(m, num, D * D)
    table.validate()
    return table


class Subalgebra:
    """Span of the fraction-free rref ``rows``, and whether it is abelian."""

    def __init__(self, rows: IntRows, abelian: bool):
        self.rows = rows
        self.abelian = abelian

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> List[Vec]:
        """The rref basis over the rationals: each row over its pivot."""
        return [[Fraction(a, row[c]) if a else _0 for a in row]
                for c, row in self.rows]


def derived_algebra(L: LieAlgebraTable) -> Subalgebra:
    """Span of all pairwise brackets, as fraction-free rref rows.

    The bracket of two rows must eliminate to zero against them (closure);
    the table is antisymmetric, so each pair is bracketed once, and the
    same brackets say whether the derived algebra is abelian.  With as
    many rows as L has dimensions, the derived algebra is L: closed, and
    not abelian, since its brackets span it and it is not zero.
    """
    rows = integer_rref(L.num[i][j] for i in range(L.m)
                        for j in range(i + 1, L.m))
    if L.m and len(rows) == L.m:
        return Subalgebra(rows, False)
    abelian = True
    for i, (_, u) in enumerate(rows):
        for _, v in rows[i + 1:]:
            br = L.bracket_numerators(u, v)
            if any(br):
                abelian = False
                if any(eliminate(br, rows)):
                    raise InternalInvariantError(
                        "derived algebra is not closed")
    return Subalgebra(rows, abelian)


CASE_TRIVIAL = "trivial"
CASE_CONSTANT = "constant-coefficients"
CASE_NONCONSTANT = "nonconstant-coefficients"
CASE_NONE = "none"


class Certificate:
    """Equal when the fields of ``as_dict`` are: the derived algebra that
    ``certify`` hands on is not compared."""

    def __init__(self, verdict: str, case: str, m: int, n: int,
                 derived_dimension: int, derived_abelian: bool,
                 derived: Optional[Subalgebra] = None):
        self.verdict = verdict    # "linearizable" | "not-linearizable"
        self.case = case          # trivial | constant-coefficients | nonconstant-coefficients | none
        self.m = m
        self.n = n
        self.derived_dimension = derived_dimension
        self.derived_abelian = derived_abelian
        self.derived = derived

    def __eq__(self, other):
        if not isinstance(other, Certificate):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash(tuple(self.as_dict().values()))

    @property
    def linearizable(self) -> bool:
        return self.verdict == "linearizable"

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "case": self.case,
            "m": self.m,
            "n": self.n,
            "derived_dimension": self.derived_dimension,
            "derived_abelian": self.derived_abelian,
        }


def assert_dimension_bounds(n: int, m: int) -> int:
    """The upper bound on the symmetry dimension, 8 for n = 2 and n + 4
    above; m beyond it is an engine bug and raises."""
    bound = 8 if n == 2 else n + 4
    if m > bound:
        raise InternalInvariantError(
            "symmetry dimension %d exceeds the bound %d for order %d"
            % (m, bound, n))
    return bound


def certify(n: int, L: LieAlgebraTable) -> Certificate:
    """Linearizability verdict and case tag from (n, m, derived algebra)."""
    if n < 2:
        raise ValueError("order must be at least 2")
    m = L.m
    bound = assert_dimension_bounds(n, m)
    D = derived_algebra(L)
    if m == bound:
        case = CASE_TRIVIAL
    elif n >= 3 and m in (n + 1, n + 2) and D.abelian and D.dimension == n:
        case = CASE_CONSTANT if m == n + 2 else CASE_NONCONSTANT
    else:
        case = CASE_NONE
    verdict = "not-linearizable" if case == CASE_NONE else "linearizable"
    return Certificate(verdict, case, m, n, D.dimension, D.abelian, D)
