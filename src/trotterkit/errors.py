"""Exception hierarchy, and the field checks that raise StructuralError.

Every error carries a short machine-readable category that the CLI
prints as ``error:<category>: message`` on stderr.
"""

import cmath
import numbers


class TrotterkitError(Exception):
    """Base class for all library errors."""

    category = "internal"

    def __init__(self, message, category=None):
        super().__init__(message)
        if category is not None:
            self.category = category


class StructuralError(TrotterkitError):
    """Malformed inputs: wrong list lengths, bad shapes, bad field values."""

    category = "structural"


class ConsistencyError(TrotterkitError):
    """A scheme failed the consistency (or catalog gate) checks."""

    category = "consistency"


class NotFoundError(TrotterkitError):
    """Unknown scheme name or missing file."""

    category = "not-found"


class GridUnusableError(TrotterkitError):
    """Too few usable points left for a log-log order fit."""

    category = "grid"


class DimensionError(TrotterkitError):
    """Operator dimension mismatch."""

    category = "dimension"


class CapacityError(TrotterkitError):
    """Requested dense problem size exceeds the supported cap."""

    category = "capacity"


class RangeError(TrotterkitError):
    """Argument outside the supported numeric range."""

    category = "range"


class ConvergenceError(TrotterkitError):
    """Iterative root finding did not meet its residual contract."""

    category = "convergence"

    def __init__(self, message, worst_residual=None):
        super().__init__(message)
        self.worst_residual = worst_residual


def real_field(value, name):
    """value as a finite float, or a StructuralError naming the field (bools refused)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise StructuralError(f"{name!r} must be a number, got {value!r}")
    return complex_field(value, name).real


def complex_field(value, name):
    """value as a finite complex, or a StructuralError naming the field (bools refused)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise StructuralError(f"{name!r} must be a number, got {value!r}")
    try:
        z = complex(value)
        if cmath.isfinite(z):
            return z
    except OverflowError:
        pass
    raise StructuralError(f"{name!r} must be finite, got {value!r}")


def complex_list(values, name):
    """values as a tuple of `complex_field`s, or a StructuralError naming the
    field if values is not a list at all."""
    try:
        items = tuple(values)
    except TypeError:
        raise StructuralError(f"{name!r} must be a list of numbers, got {values!r}") from None
    return tuple(complex_field(x, name) for x in items)


def integer_field(value, name):
    """value as an int (8.0 gives 8), or a StructuralError naming the field (bools refused)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise StructuralError(f"{name!r} must be an integer, got {value!r}")
    return int(value)
