"""Exception types shared across the package."""


class FrobstratError(Exception):
    """Base class for every error raised by this package."""


class ModulusMismatch(FrobstratError):
    """Two operands carry different prime moduli."""


class InvalidParameters(FrobstratError, ValueError):
    """Arguments outside an operation's documented domain."""


class InvalidLevel(InvalidParameters):
    """Filtration level or power outside its documented range."""


class PrecisionExhausted(FrobstratError):
    """A computation pushed a nonzero coefficient past the series precision."""


class NotConvex(InvalidParameters):
    """Vertex chain whose segment slopes do not strictly decrease."""


class BadStart(InvalidParameters):
    """Polygon vertex chain that does not start at the origin."""


class EndpointMismatch(InvalidParameters):
    """Polygon comparison attempted across different endpoints."""


class UnsupportedCharacteristic(InvalidParameters):
    """Operation whose statement requires characteristic p > 2."""


class InvariantViolation(FrobstratError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class ExtrapolationWarning(UserWarning):
    """Result computed outside the reference configuration the degree
    bookkeeping was calibrated on."""
