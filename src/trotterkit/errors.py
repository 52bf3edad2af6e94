"""Exception hierarchy.

Every error carries a short machine-readable category that the CLI
prints as ``error:<category>: message`` on stderr.
"""


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
