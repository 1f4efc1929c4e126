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


def _check_real(name: str, value) -> float:
    """Return a Python or numpy real number as `float`.

    Bools and strings are refused although `float()` reads them, so no
    caller takes True or "1" for 1.0.
    """
    if isinstance(value, bool) or not isinstance(value, (float, int, Real)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_positive(name: str, value: float) -> None:
    """Reject a value that is not a positive finite number, nan included."""
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value}")


def _check_tol(name: str, value: float) -> None:
    """Reject a tolerance that is negative, infinite or nan; any of them would silently weaken its guard."""
    if not 0.0 <= value < math.inf:
        raise ValidationError(f"{name} must be non-negative and finite, got {value}")
