"""Exception hierarchy shared across the engine.

InputError covers everything a caller can cause (bad syntax, equations
outside the accepted class, singular user-chosen expansion points); it maps
to CLI exit code 2.  InternalInvariantError marks a breach of an invariant
the engine itself guarantees and maps to exit code 3.
"""
from __future__ import annotations


class LieOdeError(Exception):
    pass


class InputError(LieOdeError):
    pass


class OdeSyntaxError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotQuasiLinear(InputError):
    pass


class OrderTooLow(InputError):
    pass


class NonRationalInstance(InputError):
    """A pushed-forward equation left the rational jet class and was discarded."""


class SingularPoint(InputError):
    """A requested expansion point meets a coefficient denominator's zero set."""


class InternalInvariantError(LieOdeError):
    pass
