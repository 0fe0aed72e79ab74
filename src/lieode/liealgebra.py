"""Symmetry algebras: truncated series solutions, structure constants, certificate.

The involutive system's parametric slots carry the free Taylor data of its
solution space.  Fixing an expansion point and assigning delta initial data
(one parametric slot set to 1, the rest to 0) determines every other Taylor
coefficient through the solved-form equations; doing this for each parametric
slot yields a canonical basis of the symmetry algebra as truncated series.

Brackets of basis elements are computed on the truncated Taylor polynomials;
the parametric Taylor data of a bracket are exactly its coordinates in the
delta basis, which gives the structure constants.  Three safety nets are
always on: the bracket's full Taylor table must be consistent with the
solved forms (closure of the solution space under the bracket), the tables
must satisfy antisymmetry and the Jacobi identity exactly, and recomputing
one order deeper must reproduce the same constants.  The normal-form table
one order deeper (N+1) is evaluated once; restricted to order N it serves
the N pass, and in full it yields the N+1 basis and checks.

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
from math import factorial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .determining import ETA, XI, LinDiffPoly, Slot
from .errors import DegenerateInput, InternalInvariantError, SingularPoint
from .involutive import InvolutiveSystem
from .linalg import Vec, row_space_basis
from .polys import MPoly

Point = Tuple[Fraction, Fraction]

# Highest truncation order a caller may request: the series and structure
# work grows steeply with N, and nothing bounds an explicit request otherwise.
MAX_TRUNCATION = 24

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


def normal_form_table(inv: InvolutiveSystem, N: int) -> Dict[Slot, LinDiffPoly]:
    """Normal form of every slot of order <= N over the parametric slots."""
    table: Dict[Slot, LinDiffPoly] = {}
    for unk in (XI, ETA):
        for total in range(N + 1):
            for i in range(total + 1):
                s = Slot(unk, i, total - i)
                table[s] = inv.normal_form(s)
    return table


def evaluate_table(table: Dict[Slot, LinDiffPoly],
                   point: Point) -> Dict[Slot, Dict[Slot, Fraction]]:
    env = {"x": point[0], "y": point[1]}
    return {s: {q: c.eval_all(env) for q, c in nf.items()}
            for s, nf in table.items()}


def choose_expansion_point(table: Dict[Slot, LinDiffPoly],
                           tries: int = 40):
    """First point of the fixed sequence avoiding all denominator zeros."""
    for point in itertools.islice(expansion_points(), tries):
        try:
            return point, evaluate_table(table, point)
        except DegenerateInput:
            continue
    raise InternalInvariantError(
        "no valid expansion point among %d candidates" % tries)


@dataclasses.dataclass(frozen=True)
class SeriesSolution:
    """Truncated Taylor data of one symmetry generator.

    ``data`` maps every slot of order <= N to the value of that derivative
    at the expansion point; ``coords`` are the values at the parametric
    slots (the coordinates in the delta basis).
    """

    point: Point
    N: int
    parametric: Tuple[Slot, ...]
    data: Dict[Slot, Fraction]

    @property
    def coords(self) -> Tuple[Fraction, ...]:
        return tuple(self.data[p] for p in self.parametric)

    def taylor(self, unknown: str) -> MPoly:
        """Taylor polynomial in local coordinates (x - x0, y - y0)."""
        terms = {}
        for s, v in self.data.items():
            if s.unknown == unknown and v:
                terms[(s.dx, s.dy)] = v / (factorial(s.dx) * factorial(s.dy))
        return MPoly(("x", "y"), terms)


def _evaluate_at(table: Dict[Slot, LinDiffPoly],
                 point: Point) -> Dict[Slot, Dict[Slot, Fraction]]:
    try:
        return evaluate_table(table, point)
    except DegenerateInput as exc:
        raise SingularPoint(
            "singular expansion point (%s, %s): %s"
            % (point[0], point[1], exc)) from exc


def _delta_basis(point: Point, N: int, params: Tuple[Slot, ...],
                 ev: Dict[Slot, Dict[Slot, Fraction]]) -> List[SeriesSolution]:
    """One solution per parametric slot, read off an evaluated table."""
    return [SeriesSolution(point, N, params,
                           {s: vals.get(p, _0) for s, vals in ev.items()})
            for p in params]


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
    table = normal_form_table(inv, N)
    if point is None:
        point, ev = choose_expansion_point(table)
    else:
        ev = _evaluate_at(table, point)
    return _delta_basis(point, N, tuple(inv.parametric), ev)


def _truncate(p: MPoly, deg: int) -> MPoly:
    return MPoly(p.vars, {e: c for e, c in p.terms.items() if sum(e) <= deg})


def _mono_coeff(p: MPoly, dx: int, dy: int) -> Fraction:
    exps = [0] * len(p.vars)
    for name, e in (("x", dx), ("y", dy)):
        if name in p.vars:
            exps[p.vars.index(name)] = e
        elif e:
            return _0
    return p.terms.get(tuple(exps), _0)


def _bracket_taylor(a: Tuple[MPoly, MPoly], b: Tuple[MPoly, MPoly],
                    deg: int) -> Tuple[MPoly, MPoly]:
    """Commutator components of two vector fields, truncated to degree deg."""
    axi, aeta = a
    bxi, beta = b
    cxi = (axi * bxi.derivative("x") + aeta * bxi.derivative("y")
           - bxi * axi.derivative("x") - beta * axi.derivative("y"))
    ceta = (axi * beta.derivative("x") + aeta * beta.derivative("y")
            - bxi * aeta.derivative("x") - beta * aeta.derivative("y"))
    return _truncate(cxi, deg), _truncate(ceta, deg)


def _taylor_data(pair: Tuple[MPoly, MPoly], max_order: int) -> Dict[Slot, Fraction]:
    """Slot table (derivative values) of truncated Taylor components."""
    out: Dict[Slot, Fraction] = {}
    for unk, comp in ((XI, pair[0]), (ETA, pair[1])):
        for total in range(max_order + 1):
            for i in range(total + 1):
                j = total - i
                out[Slot(unk, i, j)] = (_mono_coeff(comp, i, j)
                                        * factorial(i) * factorial(j))
    return out


@dataclasses.dataclass
class LieAlgebraTable:
    """Structure constants C[i][j][k] with [X_i, X_j] = sum_k C[i][j][k] X_k."""

    m: int
    C: List[List[List[Fraction]]]

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
        out = [_0] * self.m
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                row = self.C[i][j]
                f = ui * vj
                for k in range(self.m):
                    if row[k]:
                        out[k] += f * row[k]
        return out

    def validate(self) -> None:
        """Exact antisymmetry and Jacobi identity; raises on violation."""
        m = self.m
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if self.C[i][j][k] != -self.C[j][i][k]:
                        raise InternalInvariantError(
                            "structure constants not antisymmetric at "
                            "(%d,%d,%d)" % (i, j, k))
        basis = [[_1 if t == i else _0 for t in range(m)] for i in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                for k in range(j + 1, m):
                    s = self.bracket(basis[i], self.C[j][k])
                    t = self.bracket(basis[j], self.C[k][i])
                    u = self.bracket(basis[k], self.C[i][j])
                    if any(a + b + c for a, b, c in zip(s, t, u)):
                        raise InternalInvariantError(
                            "Jacobi identity fails at (%d,%d,%d)" % (i, j, k))


def _raw_structure_constants(basis: Sequence[SeriesSolution],
                             ev: Dict[Slot, Dict[Slot, Fraction]],
                             ) -> LieAlgebraTable:
    m = len(basis)
    N = basis[0].N
    params = basis[0].parametric
    max_param_order = max((p.order for p in params), default=0)
    if N < max_param_order + 1:
        raise ValueError("truncation too low to read bracket initial data")
    tay = [(sol.taylor(XI), sol.taylor(ETA)) for sol in basis]
    C = [[[_0] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            br = _bracket_taylor(tay[i], tay[j], N - 1)
            data = _taylor_data(br, N - 1)
            # closure check: the bracket's whole Taylor table must agree
            # with the solved forms applied to its parametric data
            for s, vals in ev.items():
                if s.order > N - 1:
                    continue
                recon = sum((c * data[q] for q, c in vals.items()), _0)
                if recon != data[s]:
                    raise InternalInvariantError(
                        "bracket of basis elements %d,%d leaves the "
                        "solution space at slot %s" % (i, j, s.label()))
            coords = [data[p] for p in params]
            C[i][j] = coords
            C[j][i] = [-c for c in coords]
    table = LieAlgebraTable(m, C)
    table.validate()
    return table


def structure_constants(basis: Sequence[SeriesSolution],
                        inv: InvolutiveSystem) -> LieAlgebraTable:
    """Structure constants of the algebra spanned by a series basis.

    The normal-form table at truncation N+1 is built and evaluated at the
    basis point once.  Restricted to slots of order <= N it is the closure
    table for the basis itself; in full it gives the delta basis at N+1 and
    that basis's closure table.  Both passes check that every bracket stays
    inside the solution space and validate antisymmetry and Jacobi, and the
    N+1 constants must equal the N ones.
    """
    if not basis:
        return LieAlgebraTable(0, [])
    N = basis[0].N
    point = basis[0].point
    ev = _evaluate_at(normal_form_table(inv, N + 1), point)
    table = _raw_structure_constants(basis, ev)
    deeper = _delta_basis(point, N + 1, basis[0].parametric, ev)
    if _raw_structure_constants(deeper, ev).C != table.C:
        raise InternalInvariantError(
            "structure constants changed between truncation orders %d and %d"
            % (N, N + 1))
    return table


@dataclasses.dataclass
class Subalgebra:
    """Subspace of ``parent`` spanned by ``basis``, kept in rref."""

    parent: LieAlgebraTable
    basis: List[Vec]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[Fraction]) -> bool:
        """Eliminate v against the rref rows; in the span iff nothing is left."""
        rest = list(v)
        for row in self.basis:
            f = rest[next(k for k, c in enumerate(row) if c)]
            if f:
                rest = [a - f * b for a, b in zip(rest, row)]
        return not any(rest)


def derived_algebra(L: LieAlgebraTable) -> Subalgebra:
    """Span of all pairwise brackets, as a row-reduced canonical basis."""
    vectors = [L.C[i][j] for i in range(L.m) for j in range(i + 1, L.m)]
    sub = Subalgebra(L, row_space_basis(vectors))
    for u in sub.basis:
        for v in sub.basis:
            if not sub.contains(L.bracket(u, v)):
                raise InternalInvariantError("derived algebra is not closed")
    return sub


def is_abelian(S: Subalgebra) -> bool:
    return all(not any(S.parent.bracket(u, v))
               for i, u in enumerate(S.basis) for v in S.basis[i + 1:])


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
    ab = is_abelian(D)
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
