"""Exception types shared across the package."""


class ZeroDistance(ValueError):
    """Source and receiver coincide; the free-field kernel is singular."""


class DelayExceedsFilter(ValueError):
    """Propagation delay does not fit inside the requested FIR length."""


class RadiusMismatch(ValueError):
    """Sensor positions are not on a common sphere."""


class EmptySignals(Exception):
    """An operation received no signal data."""


class ZeroDenominator(Exception):
    """A power ratio was requested against an identically-zero reference."""


class DivergenceDetected(Exception):
    """Training loss became non-finite in every restart."""
