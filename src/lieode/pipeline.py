"""End-to-end analysis of one equation: parse, complete, certify, recover.

``analyze`` is the single entry point that the command-line interface wraps.
It runs the whole chain —

    determining system -> involutive completion -> series basis
    -> structure constants -> linearizability certificate
    -> (if constant-coefficients) characteristic-polynomial recovery

— and returns a ``RunReport`` carrying every intermediate object, so callers
can render as much or as little as they need.  ``certify`` asserts the
symmetry-dimension bounds on every run; a violation is an engine bug, not
bad input.
"""
from __future__ import annotations

import dataclasses
import time
from fractions import Fraction
from typing import Dict, List, Optional

from .determining import LinDiffPoly, determining_system
from .involutive import InvolutiveSystem, complete
from .liealgebra import (CASE_CONSTANT, CASE_NONCONSTANT, CASE_TRIVIAL,
                         Certificate, LieAlgebraTable, Point, certify,
                         series_basis, structure_constants)
from .linalg import Mat
from .parsing import OdeSpec, parse_ode
from .recovery import (AffineClass, CharPoly, affine_class, class_to_ode,
                       recovery_details)

NOTE_NONCONSTANT = "nonconstant coefficients — recovery out of scope"


@dataclasses.dataclass(frozen=True)
class RecoveryReport:
    """Constant-coefficient target, up to root maps lambda -> k*lambda + b.

    ``char_poly`` is a member of the recovered class (for the maximal
    symmetry case it is the canonical representative z^n itself);
    ``action_matrix`` records the adjoint action of the factor-space element
    that produced it, when one was needed.
    """

    char_poly: CharPoly
    affine: AffineClass
    representative_ode: str
    action_matrix: Optional[Mat] = None


@dataclasses.dataclass(frozen=True)
class RunReport:
    """Everything one analysis run produced, from raw input to verdict."""

    ode: OdeSpec
    determining: List[LinDiffPoly]
    involutive: InvolutiveSystem
    basis_point: Point
    truncation_order: int
    algebra: LieAlgebraTable
    certificate: Certificate
    recovery: Optional[RecoveryReport]
    note: Optional[str]
    timings: Dict[str, float]

    @property
    def m(self) -> int:
        return self.algebra.m

    @property
    def n(self) -> int:
        return self.ode.n


def analyze(source,
            point: Optional[Point] = None,
            max_order: Optional[int] = None) -> RunReport:
    """Run the full decision chain on an equation (text or parsed form).

    ``point`` fixes the series expansion point instead of the automatic
    choice; ``max_order`` raises the Taylor truncation order above the
    minimum the completion dictates.
    """
    timings: Dict[str, float] = {}
    t_all = time.perf_counter()

    t = time.perf_counter()
    ode = parse_ode(source) if isinstance(source, str) else source
    timings["parse"] = time.perf_counter() - t

    t = time.perf_counter()
    detsys = determining_system(ode)
    timings["determining"] = time.perf_counter() - t

    t = time.perf_counter()
    inv = complete(detsys)
    timings["completion"] = time.perf_counter() - t

    t = time.perf_counter()
    basis = series_basis(inv, point=point, N=max_order)
    timings["series"] = time.perf_counter() - t

    t = time.perf_counter()
    table = structure_constants(basis)
    timings["structure"] = time.perf_counter() - t

    t = time.perf_counter()
    cert = certify(ode.n, table)
    timings["certify"] = time.perf_counter() - t

    recovery = None
    note = None
    t = time.perf_counter()
    if cert.case in (CASE_TRIVIAL, CASE_CONSTANT):
        A, p = ((None, CharPoly((Fraction(0),) * ode.n))
                if cert.case == CASE_TRIVIAL
                else recovery_details(table, cert.derived))
        cls = affine_class(p)
        recovery = RecoveryReport(
            char_poly=p,
            affine=cls,
            representative_ode=class_to_ode(cls),
            action_matrix=A)
    elif cert.case == CASE_NONCONSTANT:
        note = NOTE_NONCONSTANT
    timings["recovery"] = time.perf_counter() - t
    timings["total"] = time.perf_counter() - t_all

    return RunReport(ode=ode, determining=detsys, involutive=inv,
                     basis_point=basis.point, truncation_order=basis.N,
                     algebra=table, certificate=cert,
                     recovery=recovery, note=note, timings=timings)
