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
from typing import Dict, List, Optional, Tuple

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
    ``action_matrix`` records the adjoint action of the basis element
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
    # the determining system as collected, one equation per jet monomial,
    # none scaled or deduplicated: completion gives each equation it
    # inserts its canonical form
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

    # every stage function is looked up when it runs, so a wrapper put on
    # this module's name (as bench/tracer.py does) sees the call
    def timed(stage: str, fn, *args, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        timings[stage] = time.perf_counter() - t
        return out

    ode = timed("parse", lambda: parse_ode(source)
                if isinstance(source, str) else source)
    detsys = timed("determining", determining_system, ode)
    inv = timed("completion", complete, detsys)
    basis = timed("series", series_basis, inv, point=point, N=max_order)
    table = timed("structure", structure_constants, basis)
    cert = timed("certify", certify, ode.n, table)
    recovery, note = timed("recovery", _recover, ode.n, table, cert)
    timings["total"] = time.perf_counter() - t_all

    return RunReport(ode=ode, determining=detsys, involutive=inv,
                     basis_point=basis.point, truncation_order=basis.N,
                     algebra=table, certificate=cert,
                     recovery=recovery, note=note, timings=timings)


def _recover(n: int, table: LieAlgebraTable, cert: Certificate
             ) -> Tuple[Optional[RecoveryReport], Optional[str]]:
    """The recovery report and the note of a certified algebra."""
    if cert.case == CASE_NONCONSTANT:
        return None, NOTE_NONCONSTANT
    if cert.case not in (CASE_TRIVIAL, CASE_CONSTANT):
        return None, None
    A, p = ((None, CharPoly((Fraction(0),) * n)) if cert.case == CASE_TRIVIAL
            else recovery_details(table, cert.derived))
    cls = affine_class(p)
    return RecoveryReport(char_poly=p, affine=cls,
                          representative_ode=class_to_ode(cls),
                          action_matrix=A), None
