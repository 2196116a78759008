"""Exception hierarchy for the qpd package.

Numerical guard violations (overflow, underflow, singular matrices) and
arguments outside their domain are reported through these types so that
callers can distinguish a divergent orbit, a degenerate system or a bad
argument from a programming error.
"""


class QPDError(Exception):
    """Base class for all qpd errors."""


class InvalidArgument(QPDError, ValueError):
    """An argument lies outside its domain (also a ValueError)."""


class DimensionMismatch(QPDError):
    """Matrix/vector dimensions do not agree."""


class WrongDimension(DimensionMismatch):
    """An operation defined only for a specific dimension received another."""


class NonFinite(QPDError):
    """A matrix or vector contains NaN or infinity."""


class NonPositiveState(QPDError):
    """A state vector has a component outside the open positive orthant."""


class OverflowGuard(QPDError):
    """An exponent argument exceeded the guard bound; the step was rejected
    rather than silently producing inf/NaN."""


class SingularMatrix(QPDError):
    """A matrix required to be invertible is singular within tolerance."""


class SingularB(SingularMatrix):
    """The exponent matrix B is singular; no canonical LV form exists."""


class SingularSystem(SingularMatrix):
    """The LV interaction matrix is singular; the fixed-point solve failed."""


class NoInteriorFixedPoint(QPDError):
    """A fixed-point candidate failed its step-residual verification."""


class GuardTermination(QPDError):
    """An orbit hit the overflow/underflow guard before the requested horizon."""


class SchemaError(QPDError):
    """A system-definition document is missing a key or has a mistyped value."""


class ParseError(QPDError):
    """A system-definition file is not UTF-8 text or not valid JSON; for
    malformed JSON the message names the line and column."""
