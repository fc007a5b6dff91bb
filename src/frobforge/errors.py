"""Exception hierarchy shared across the package."""

import math


class FrobforgeError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FrobforgeError):
    """Malformed input: bad JSON, schema violation, ill-formed chart data."""


class AlgebraError(FrobforgeError):
    """Exact-arithmetic failure: division by zero polynomial, non-monic input,
    insufficient expansion order, integrability failure."""


class NumericError(FrobforgeError):
    """Numerical failure: tolerance not achievable, root finding stalled."""


class SemisimplicityError(NumericError):
    """Coinciding canonical coordinates: the point is not in the semisimple
    stratum at the working tolerance."""


def require_positive(value: float, name: str) -> None:
    """Raise ValidationError unless ``value`` is a finite number > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and > 0, got {value!r}")
