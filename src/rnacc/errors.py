"""Exception hierarchy shared across the package.

Everything derives from :class:`RnaError` so callers can catch one base
class. I/O failures are not wrapped; they surface as the builtin
``OSError``.
"""


class RnaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfig(RnaError, ValueError):
    """A configuration value violates its documented constraints."""


class WindowTooSmall(RnaError):
    """Fewer than two iterates: no residual can be formed."""


class DimensionMismatch(RnaError):
    """Vectors or coefficient lengths do not agree."""


class OrderingViolation(RnaError):
    """Epoch tags pushed into a buffer must be strictly increasing."""


class SingularSystem(RnaError):
    """The regularized Gram system could not be factorized.

    Raised when ``lam == 0`` and the residual Gram matrix is rank
    deficient (for example after duplicated consecutive iterates), or
    when the Gram matrix plus a positive ridge, floored at ``10 * eps``
    times its trace, is still not numerically positive definite. Use
    ``lam > 0``.
    """


class DegenerateSum(RnaError):
    """The raw solution sums to (numerically) zero.

    The affine combination is undefined in this case; a larger ``lam``
    usually removes the cancellation.
    """


class NumericalFailure(RnaError):
    """Non-finite values where finite numbers are required."""


class FormatError(RnaError):
    """A checkpoint file does not conform to the binary layout."""


def _read(name: str, value, read, requirement: str):
    """``read(value)``, or InvalidConfig if it raises TypeError, ValueError or OverflowError."""
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidConfig(f"{name} must {requirement}, got {value!r}") from None


def _require_int(name: str, value, minimum: int | None = 1) -> int:
    """``value`` as an int; InvalidConfig unless a whole number >= ``minimum`` (if any)."""
    need = "be " + {1: "a positive", 0: "a nonnegative"}.get(minimum, "an") + " integer"
    if not _read(name, value, lambda v: int(v) == v and (minimum is None or v >= minimum), need):
        raise InvalidConfig(f"{name} must {need}, got {value!r}")  # NaN and inf: _read raises
    return int(value)
