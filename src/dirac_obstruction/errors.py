"""Exception types shared across the toolkit, and the checks on input numbers that raise them."""

import math
from numbers import Integral, Real


class DiracObstructionError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(DiracObstructionError):
    """Malformed or out-of-contract input (bad matrix, bad indices, bad file)."""


class ContextMismatchError(ValidationError):
    """Two cohomology classes living in different exterior algebras were combined."""


class BoundaryAmbiguityError(DiracObstructionError):
    """An eigenvalue sits too close to the edge of the counting window.

    The open-interval eigenvalue count is numerically unstable in that
    situation; the caller must perturb the window radius and retry.
    """


class RefinementRequiredError(DiracObstructionError):
    """A path step moves the operator farther than the crossing guard allows."""


class EndpointDegeneracyError(DiracObstructionError):
    """An open path endpoint has spectrum inside the guard interval around zero."""


def _check_int(name: str, value, low: int) -> int:
    """Return an integer argument of at least `low` as `int`.

    Python and numpy integers pass; bools, floats (2.0 included) and strings
    are refused, so no caller rounds or truncates a count silently.
    """
    # int first: the Integral ABC check costs several times more
    if isinstance(value, bool) or not isinstance(value, (int, Integral)) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_real(name: str, value, *, positive: bool | None = True) -> float:
    """Return a Python or numpy real number as `float`; bools and strings, which `float()` reads, are refused.

    A radius (`positive=True`) must then be positive and finite, a tolerance
    (`positive=False`) non-negative and finite; `positive=None` checks the type alone.
    """
    if isinstance(value, bool) or not isinstance(value, (float, int, Real)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int or Fraction past the float range
        x = math.inf
    if positive and not 0.0 < x < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    if positive is False and not 0.0 <= x < math.inf:
        raise ValidationError(f"{name} must be non-negative and finite, got {value}")
    return x
