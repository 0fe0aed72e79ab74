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
truncation order N.

Brackets are taken directly on those values by Leibniz's rule: the value of a
bracket at order k reads the data of both fields up to order k+1, so it is
known through order N.  Its values at the parametric slots are its
coordinates in the delta basis, which gives the structure constants.

The algebra stages run on integers.  All basis data share one common
denominator D (every element reads the same table), so each element is a
sparse list of integer numerators and a bracket of two of them is D^2 times
the bracket.  ``LieAlgebraTable`` likewise keeps the numerators of its
constants over their common denominator E, and the derived algebra is kept
as fraction-free Gauss-Jordan rows of them (``linalg.integer_rref``).
Fractions are built only for the public values: ``SeriesSolution.data``, the
table's ``C`` and the view ``Subalgebra.basis``.  The safety nets are checked
on numerators, exactly: at every slot of order <= N the bracket must equal
the combination of basis elements named by its coordinates (closure of the
solution space under the bracket), the constants must satisfy antisymmetry
and the Jacobi identity, and the derived algebra must be closed.

The linearization certificate is then a pure function of the dimension m,
the order n, and the derived algebra: linearizable iff (n=2 and m=8), or
(n>=3 and m=n+4), or (n>=3, m in {n+1, n+2} and the derived algebra is
abelian of dimension n).  ``certify`` computes the derived algebra once and
hands it on in the certificate.
"""
from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction
from math import comb, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .determining import ETA, XI, Slot
from .errors import InternalInvariantError, SingularPoint
from .involutive import InvolutiveSystem
from .linalg import IntRows, Vec, eliminate, integer_rref

Point = Tuple[Fraction, Fraction]

# Highest truncation order a caller may request: the series and structure
# work grows steeply with N, and nothing bounds an explicit request otherwise.
MAX_TRUNCATION = 24

# Candidate expansion points tried before giving up.
POINT_TRIES = 40

_0 = Fraction(0)
_1 = Fraction(1)


def expansion_points() -> Iterator[Point]:
    """Deterministic sequence of candidate expansion points."""
    yield (_0, _0)
    yield (_1, _1)
    yield (_1, Fraction(2))
    yield (Fraction(2), _1)
    yield (Fraction(1, 2), Fraction(1, 3))
    k = 2
    while True:
        yield (Fraction(k), Fraction(k + 1))
        k += 1


def normal_form_table(inv: InvolutiveSystem, N: int,
                      point: Point) -> Dict[Slot, Dict[Slot, Fraction]]:
    """Value at ``point`` of the normal form of every slot of order <= N.

    Forward substitution in ranking order, reducing each slot by the first
    equation whose lead divides it, as ``involutive.reduce`` does.  ``point``
    must be regular (see ``is_regular_point``).
    """
    env = {"x": point[0], "y": point[1]}
    table: Dict[Slot, Dict[Slot, Fraction]] = {}
    for s in inv.ranking.sorted(Slot(unk, i, total - i) for unk in (XI, ETA)
                                for total in range(N + 1)
                                for i in range(total + 1)):
        e = next((e for e in inv._eqs if e.lead.divides(s)), None)
        if e is None:
            table[s] = {s: _1}
            continue
        d = dict(e.derived(s.dx - e.lead.dx, s.dy - e.lead.dy))
        if d.pop(s, None) != 1 or not table.keys() >= d.keys():
            raise InternalInvariantError("equation for slot %s is not monic "
                                         "over lower slots" % s.label())
        row: Dict[Slot, Fraction] = {}
        for t, c in d.items():
            v = c.eval_all(env)
            for q, w in table[t].items():
                row[q] = row.get(q, _0) - v * w
        table[s] = {q: w for q, w in row.items() if w}
    return table


def is_regular_point(inv: InvolutiveSystem, point: Point) -> bool:
    """True when no coefficient denominator of the completed equations vanishes.

    Derivatives of an equation only have factors of its own denominators, so
    every table entry is then defined at the point.
    """
    env = {"x": point[0], "y": point[1]}
    return all(c.den.eval_all(env) for eq in inv.equations for c in eq.values())


def choose_expansion_point(inv: InvolutiveSystem) -> Point:
    """First regular point of the fixed sequence."""
    for point in itertools.islice(expansion_points(), POINT_TRIES):
        if is_regular_point(inv, point):
            return point
    raise InternalInvariantError(
        "no valid expansion point among %d candidates" % POINT_TRIES)


@dataclasses.dataclass(frozen=True)
class SeriesSolution:
    """Truncated Taylor data of one symmetry generator.

    ``data`` maps every slot of order <= N + 1 to the value of that
    derivative at the expansion point; the extra order lets brackets be
    taken through order N.
    """

    point: Point
    N: int
    parametric: Tuple[Slot, ...]
    data: Dict[Slot, Fraction]


def series_basis(inv: InvolutiveSystem,
                 point: Optional[Point] = None,
                 N: Optional[int] = None) -> List[SeriesSolution]:
    """Delta-initial-data basis of the solution space, one per parametric slot."""
    min_n = inv.max_parametric_order() + 2
    if N is None:
        N = min_n
    elif N < min_n:
        raise ValueError("truncation order %d below required %d" % (N, min_n))
    elif N > MAX_TRUNCATION:
        raise ValueError("truncation order %d above limit %d" % (N, MAX_TRUNCATION))
    if point is None:
        point = choose_expansion_point(inv)
    elif not is_regular_point(inv, point):
        raise SingularPoint(
            "singular expansion point (%s, %s): a coefficient denominator "
            "vanishes there" % (point[0], point[1]))
    ev = normal_form_table(inv, N + 1, point)
    params = tuple(inv.parametric)
    return [SeriesSolution(point, N, params,
                           {s: vals.get(p, _0) for s, vals in ev.items()})
            for p in params]


@dataclasses.dataclass
class LieAlgebraTable:
    """Structure constants C[i][j][k] with [X_i, X_j] = sum_k C[i][j][k] X_k.

    The constructor also keeps the numerators E * C over their common
    denominator E, dense and as sparse (k, numerator) rows; brackets and
    the checks run on those integers.
    """

    m: int
    C: List[List[List[Fraction]]]

    def __post_init__(self) -> None:
        E = self._den = lcm(*(c.denominator for row in self.C
                              for vec in row for c in vec if c))
        self._num = [[[c.numerator * (E // c.denominator) if c else 0
                       for c in vec] for vec in row] for row in self.C]
        self._sparse = [[[(k, c) for k, c in enumerate(vec) if c]
                         for vec in row] for row in self._num]

    def _bracket_numerators(self, u: Sequence[int],
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
        m, num, sparse = self.m, self._num, self._sparse
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if num[i][j][k] != -num[j][i][k]:
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


def _slot_index(N: int) -> Dict[Slot, int]:
    """Position of every slot of order <= N: unknown, then order, then dx."""
    return {Slot(u, i, total - i): k for k, (u, total, i) in enumerate(
        (u, total, i) for u in (XI, ETA)
        for total in range(N + 1) for i in range(total + 1))}


def structure_constants(basis: Sequence[SeriesSolution]) -> LieAlgebraTable:
    """Structure constants of the algebra spanned by a series basis.

    All data are scaled by one common denominator D, so each element is a
    sparse list of integer numerators.  The bracket of two scaled fields is
    D^2 times the bracket, by Leibniz's rule on [a,b]^u = a^xi b^u_x +
    a^eta b^u_y - (a <-> b): a^w at slot (p, q) times the derivative (r, t)
    of b^u_w adds C(p+r, p) C(q+t, q) a^w_pq (b^u_w)_rt at slot
    (u, p+r, q+t), which is known through order N.  Its values at the
    parametric slots are the coordinates; at every slot of order <= N the
    bracket times D must equal the combination of scaled basis elements they
    name, or it has left the solution space.  The finished table must
    satisfy antisymmetry and Jacobi.
    """
    m = len(basis)
    if not m:
        return LieAlgebraTable(0, [])
    N = basis[0].N
    index = _slot_index(N)
    D = lcm(*(v.denominator for sol in basis for v in sol.data.values()))
    binom = [[comb(n, k) for k in range(n + 1)] for n in range(N + 1)]
    tri = [k * (k + 1) // 2 for k in range(N + 1)]
    # Per element: its nonzero values of order <= N, as (unknown is eta,
    # order, dx, dy, numerator) and as (index, numerator); and per
    # derivative direction x, y the nonzero derivatives, as (order, index of
    # the unknown's order-0 slot, dx, dy, numerator) sorted by order.
    values, cols, derivs = [], [], []
    for sol in basis:
        nz = [(s, v.numerator * (D // v.denominator))
              for s, v in sol.data.items() if v]
        values.append([(s.unknown == ETA, s.order, s.dx, s.dy, v)
                       for s, v in nz if s.order <= N])
        cols.append([(index[s], v) for s, v in nz if s.order <= N])
        derivs.append(tuple(
            sorted((s.order - 1, index[Slot(s.unknown, 0, 0)],
                    s.dx - ex, s.dy - ey, v)
                   for s, v in nz if s.dx >= ex and s.dy >= ey)
            for ex, ey in ((1, 0), (0, 1))))
    coord_at = [index[p] for p in basis[0].parametric]
    D2 = D * D
    C = [[[_0] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            br = [0] * len(index)
            for f, g, sign in ((i, j, 1), (j, i, -1)):
                dg = derivs[g]
                for eta, o, p, q, fv in values[f]:
                    fv *= sign
                    for og, base, r, t, gv in dg[eta]:
                        if o + og > N:
                            break
                        br[base + tri[o + og] + p + r] += (
                            binom[p + r][p] * binom[q + t][q] * fv * gv)
            coords = [br[k] for k in coord_at]
            span = [0] * len(index)
            for c, col in zip(coords, cols):
                if c:
                    for k, v in col:
                        span[k] += c * v
            bad = next((k for k, (a, b) in enumerate(zip(br, span))
                        if D * a != b), None)
            if bad is not None:
                raise InternalInvariantError(
                    "bracket of basis elements %d,%d leaves the solution "
                    "space at slot %s" % (i, j, list(index)[bad].label()))
            C[i][j] = [Fraction(c, D2) if c else _0 for c in coords]
            C[j][i] = [-c for c in C[i][j]]
    table = LieAlgebraTable(m, C)
    table.validate()
    return table


@dataclasses.dataclass
class Subalgebra:
    """Span of the fraction-free rref ``rows``, and whether it is abelian."""

    rows: IntRows
    abelian: bool

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
    same brackets say whether the derived algebra is abelian.
    """
    rows = integer_rref(L._num[i][j] for i in range(L.m)
                        for j in range(i + 1, L.m))
    abelian = True
    for i, (_, u) in enumerate(rows):
        for _, v in rows[i + 1:]:
            br = L._bracket_numerators(u, v)
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


@dataclasses.dataclass(frozen=True)
class Certificate:
    verdict: str              # "linearizable" | "not-linearizable"
    case: str                 # trivial | constant-coefficients | nonconstant-coefficients | none
    m: int
    n: int
    derived_dimension: int
    derived_abelian: bool
    derived: Optional[Subalgebra] = dataclasses.field(
        default=None, compare=False, repr=False)

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


def assert_dimension_bounds(n: int, m: int) -> None:
    """Upper bounds on the symmetry dimension; violation is an engine bug."""
    bound = 8 if n == 2 else n + 4
    if m > bound:
        raise InternalInvariantError(
            "symmetry dimension %d exceeds the bound %d for order %d"
            % (m, bound, n))


def certify(n: int, L: LieAlgebraTable) -> Certificate:
    """Linearizability verdict and case tag from (n, m, derived algebra)."""
    if n < 2:
        raise ValueError("order must be at least 2")
    m = L.m
    assert_dimension_bounds(n, m)
    D = derived_algebra(L)
    dd = D.dimension
    ab = D.abelian
    if n == 2:
        lin = (m == 8)
    else:
        lin = (m == n + 4) or (m in (n + 1, n + 2) and ab and dd == n)
    if not lin:
        case = CASE_NONE
    elif (n == 2 and m == 8) or (n >= 3 and m == n + 4):
        case = CASE_TRIVIAL
    elif m == n + 2:
        case = CASE_CONSTANT
    else:
        case = CASE_NONCONSTANT
    return Certificate("linearizable" if lin else "not-linearizable",
                       case, m, n, dd, ab, D)


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
            out[Slot(unk, i, j)] = fn.eval_all(env)
    return out
