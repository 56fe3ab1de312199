"""Exception and warning types shared across the package."""


class PrecbootError(Exception):
    """Base class for all package errors."""


class InsufficientData(PrecbootError):
    pass


class InvalidDimension(PrecbootError):
    pass


class EmptyBlock(PrecbootError):
    pass


class DegenerateColumn(PrecbootError):
    pass


class InvalidInput(PrecbootError):
    pass


class DegenerateResiduals(PrecbootError):
    pass


class InvalidLevel(PrecbootError):
    pass


class ShapeError(PrecbootError):
    pass


class InvalidPValue(PrecbootError):
    pass


class GenerationError(PrecbootError):
    pass


class InvalidPrice(PrecbootError):
    pass


class MissingValue(PrecbootError):
    pass


class NotConverged(PrecbootError):
    """No node of a node-wise fit reached tolerance within max_iter sweeps."""


class ConvergenceWarning(UserWarning):
    """Coordinate descent hit max_iter before reaching tolerance."""


class BandwidthFallback(UserWarning):
    """Bandwidth selection fell back to the default (all columns constant)."""


class DegenerateVariance(UserWarning):
    """A long-run variance estimate was non-positive and got floored."""
