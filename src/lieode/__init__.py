"""Exact symbolic linearizability analysis for scalar nonlinear ODEs.

Decides whether a quasi-linear equation y^(n) + f(x, y, ..., y^(n-1)) = 0
with rational f is point-equivalent to a linear equation, by completing the
Lie point-symmetry determining system to involutive form, reading off the
symmetry algebra, and classifying it; in the constant-coefficient case the
target's characteristic polynomial is recovered up to root maps
z -> k*z + b.  All arithmetic is exact (rational numbers throughout).
"""
from .errors import (DegenerateInput, InputError, InternalInvariantError,
                     LieOdeError, NonRationalInstance, NotQuasiLinear,
                     OdeSyntaxError, OrderTooLow, SingularPoint)
from .parsing import OdeSpec, parse_ode, print_ode
from .determining import LinDiffSystem, Slot, determining_system
from .involutive import (InvolutiveSystem, Ranking, alt_ranking,
                         audit_involutive, complete, default_ranking)
from .liealgebra import (CASE_CONSTANT, CASE_NONCONSTANT, CASE_NONE,
                         CASE_TRIVIAL, Certificate, LieAlgebraTable,
                         SeriesSolution, Subalgebra, certify, derived_algebra,
                         is_abelian, series_basis, structure_constants)
from .recovery import (AffineClass, CharPoly, affine_class, affine_equivalent,
                       class_to_ode, classify_pair, recovery_details,
                       root_affine_image, trivial_class)
from .pushforward import (OracleInstance, PointTransformation, default_corpus,
                          push_linear, shipped_transformations)
from .pipeline import RecoveryReport, RunReport, analyze

__version__ = "0.1.0"

__all__ = [
    "AffineClass", "CASE_CONSTANT", "CASE_NONCONSTANT", "CASE_NONE",
    "CASE_TRIVIAL", "Certificate", "CharPoly", "DegenerateInput",
    "InputError", "InternalInvariantError", "InvolutiveSystem",
    "LieAlgebraTable", "LieOdeError", "LinDiffSystem", "NonRationalInstance",
    "NotQuasiLinear", "OdeSpec", "OdeSyntaxError", "OracleInstance",
    "OrderTooLow", "PointTransformation", "Ranking", "RecoveryReport",
    "RunReport", "SeriesSolution", "SingularPoint", "Slot", "Subalgebra",
    "affine_class", "affine_equivalent", "alt_ranking", "analyze",
    "audit_involutive", "certify", "class_to_ode", "classify_pair",
    "complete", "default_corpus", "default_ranking", "derived_algebra",
    "determining_system", "is_abelian", "parse_ode", "print_ode",
    "push_linear", "recovery_details", "root_affine_image", "series_basis",
    "shipped_transformations", "structure_constants", "trivial_class",
]
