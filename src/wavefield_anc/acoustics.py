"""Ground-truth physics: tonal sources, free-field propagation, FIR path models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DelayExceedsFilter, ZeroDistance
from .geometry import Point3

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


@dataclass(frozen=True)
class TonalSource:
    position: Point3
    components: tuple[ToneComponent, ...]

    def __post_init__(self):
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


@dataclass
class SampledSignal:
    """Uniformly sampled pressure time series."""

    sample_rate: float
    samples: np.ndarray
    start_time: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.samples.size == 0:
            raise ValueError("signal must contain at least one sample")

    def __len__(self) -> int:
        return self.samples.size

    def _check_combinable(self, other: "SampledSignal"):
        if (
            self.sample_rate != other.sample_rate
            or self.start_time != other.start_time
            or len(self) != len(other)
        ):
            raise ValueError("signals differ in rate, start time, or length")

    def __add__(self, other: "SampledSignal") -> "SampledSignal":
        self._check_combinable(other)
        return SampledSignal(self.sample_rate, self.samples + other.samples, self.start_time)

    def __sub__(self, other: "SampledSignal") -> "SampledSignal":
        self._check_combinable(other)
        return SampledSignal(self.sample_rate, self.samples - other.samples, self.start_time)


def propagate_tonal(
    source: TonalSource,
    receiver: Point3,
    sample_rate: float,
    duration: float,
    c: float,
) -> SampledSignal:
    """Free-field propagation of a tonal source with exact analytic delay.

    p(t) = sum_i A_i / (4 pi d) * sin(2 pi f_i (t - d/c) + phi_i).
    """
    d = source.position.distance_to(receiver)
    if d < 1e-9:
        raise ZeroDistance(f"receiver is {d:.3g} m from the source")
    nyquist = sample_rate / 2.0
    for comp in source.components:
        if comp.frequency >= nyquist:
            raise ValueError(f"tone at {comp.frequency} Hz is at or above Nyquist")
    n = round(duration * sample_rate)
    t = np.arange(n) / sample_rate
    gain = 1.0 / (4.0 * np.pi * d)
    p = np.zeros(n)
    for comp in source.components:
        p += comp.amplitude * gain * np.sin(
            2.0 * np.pi * comp.frequency * (t - d / c) + comp.phase
        )
    return SampledSignal(sample_rate, p)


def _blackman(offset: np.ndarray, half_width: int) -> np.ndarray:
    """Blackman window evaluated at fractional offsets, zero outside +-half_width."""
    x = np.pi * offset / half_width
    w = 0.42 + 0.5 * np.cos(x) + 0.08 * np.cos(2.0 * x)
    w[np.abs(offset) > half_width] = 0.0
    return w


def make_path_fir(
    source_pos: Point3,
    receiver_pos: Point3,
    sample_rate: float,
    num_taps: int,
    c: float,
) -> np.ndarray:
    """Taps of a windowed-sinc fractional-delay FIR with 1/(4 pi d) gain."""
    d = source_pos.distance_to(receiver_pos)
    if d < 1e-9:
        raise ZeroDistance(f"receiver is {d:.3g} m from the source")
    delay = d / c * sample_rate
    if int(np.floor(delay)) >= num_taps - SINC_WINDOW_HALF_WIDTH:
        raise DelayExceedsFilter(
            f"delay of {delay:.1f} samples does not fit in {num_taps} taps"
        )
    k = np.arange(num_taps)
    offset = k - delay
    taps = np.sinc(offset) * _blackman(offset, SINC_WINDOW_HALF_WIDTH)
    return taps / (4.0 * np.pi * d)
