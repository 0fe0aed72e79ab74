"""Exact symbolic linearizability analysis for scalar nonlinear ODEs.

Decides whether a quasi-linear equation y^(n) + f(x, y, ..., y^(n-1)) = 0
with rational f is point-equivalent to a linear equation, by completing the
Lie point-symmetry determining system to involutive form, reading off the
symmetry algebra, and classifying it; in the constant-coefficient case the
target's characteristic polynomial is recovered up to root maps
z -> k*z + b.  All arithmetic is exact (rational numbers throughout).
"""
from .errors import InputError, InternalInvariantError, LieOdeError
from .parsing import parse_ode, print_ode
from .recovery import CharPoly
from .pushforward import default_corpus
from .pipeline import RunReport, analyze

__version__ = "0.1.0"

__all__ = [
    "CharPoly", "InputError", "InternalInvariantError", "LieOdeError",
    "RunReport", "analyze", "default_corpus", "parse_ode", "print_ode",
]
