"""Exception types shared across the package."""


class WavefieldError(Exception):
    """Base class for all package-specific errors."""


class ZeroDistance(WavefieldError, ValueError):
    """Source and receiver coincide; the free-field kernel is singular."""


class DelayExceedsFilter(WavefieldError, ValueError):
    """Propagation delay does not fit inside the requested FIR length."""


class RadiusMismatch(WavefieldError, ValueError):
    """Sensor positions are not on a common sphere."""


class EmptySignals(WavefieldError):
    """An operation received no signal data."""


class ZeroDenominator(WavefieldError):
    """A power ratio was requested against an identically-zero reference."""


class DivergenceDetected(WavefieldError):
    """Training loss became non-finite in every restart."""
