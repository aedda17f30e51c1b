"""Ground-truth physics: tonal sources, free-field propagation, FIR path models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DelayExceedsFilter, ZeroDistance
from .geometry import as_points, distances

SINC_WINDOW_HALF_WIDTH = 16  # Blackman window of 33 taps around the fractional delay


@dataclass(frozen=True)
class ToneComponent:
    frequency: float  # Hz
    amplitude: float = 1.0
    phase: float = 0.0  # rad

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")


@dataclass(frozen=True, eq=False)  # array field: compared by identity, hashable
class TonalSource:
    position: np.ndarray  # (3,), meters
    components: tuple[ToneComponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "position", as_points([self.position], "source position")[0])
        if len(self.components) == 0:
            raise ValueError("source needs at least one tone component")
        freqs = [c.frequency for c in self.components]
        if len(set(freqs)) != len(freqs):
            raise ValueError("tone frequencies must be distinct")

    def waveform(self, sample_rate: float, num_samples: int) -> np.ndarray:
        """Source signal at zero distance and unit path gain (the reference x(n))."""
        t = np.arange(num_samples) / sample_rate
        out = np.zeros(num_samples)
        for c in self.components:
            out += c.amplitude * np.sin(2.0 * np.pi * c.frequency * t + c.phase)
        return out


def _distances(source_pos: np.ndarray, receivers: np.ndarray) -> np.ndarray:
    """Distance from the source to each receiver; ZeroDistance if one coincides with it."""
    d = distances(receivers, source_pos)
    if np.any(d < 1e-9):
        raise ZeroDistance(f"a receiver is {d.min():.3g} m from the source")
    return d


def propagate_tonal(
    source: TonalSource,
    receivers: np.ndarray,
    sample_rate: float,
    num_samples: int,
    c: float,
) -> np.ndarray:
    """Free-field propagation of a tonal source with exact analytic delay.

    p(t) = sum_i A_i / (4 pi d) * sin(2 pi f_i (t - d/c) + phi_i) at each of
    the (P, 3) ``receivers`` and t = n / sample_rate; returns (P, num_samples).
    """
    d = _distances(source.position, receivers)
    nyquist = sample_rate / 2.0
    for comp in source.components:
        if comp.frequency >= nyquist:
            raise ValueError(f"tone at {comp.frequency} Hz is at or above Nyquist")
    if num_samples < 1:
        raise ValueError("signal must contain at least one sample")
    t = np.arange(num_samples) / sample_rate
    gain = 1.0 / (4.0 * np.pi * d)
    p = np.zeros((d.size, num_samples))
    tone = np.empty_like(p)  # one tone at a time, built in place
    for comp in source.components:
        np.subtract(t, (d / c)[:, None], out=tone)
        tone *= 2.0 * np.pi * comp.frequency
        tone += comp.phase
        np.sin(tone, out=tone)
        tone *= (comp.amplitude * gain)[:, None]
        p += tone
    return p


def _blackman(offset: np.ndarray, half_width: int) -> np.ndarray:
    """Blackman window evaluated at fractional offsets, zero outside +-half_width."""
    x = np.pi * offset / half_width
    w = 0.42 + 0.5 * np.cos(x) + 0.08 * np.cos(2.0 * x)
    w[np.abs(offset) > half_width] = 0.0
    return w


def make_path_fir(
    source_pos: np.ndarray,
    receivers: np.ndarray,
    sample_rate: float,
    num_taps: int,
    c: float,
) -> np.ndarray:
    """(P, num_taps) windowed-sinc fractional-delay FIRs with 1/(4 pi d) gain,
    one per (P, 3) receiver."""
    d = _distances(source_pos, receivers)
    delay = d / c * sample_rate
    if np.floor(delay.max()) >= num_taps - SINC_WINDOW_HALF_WIDTH:
        raise DelayExceedsFilter(
            f"delay of {delay.max():.1f} samples does not fit in {num_taps} taps"
        )
    offset = np.arange(num_taps) - delay[:, None]
    taps = np.sinc(offset) * _blackman(offset, SINC_WINDOW_HALF_WIDTH)
    return taps / (4.0 * np.pi * d)[:, None]
