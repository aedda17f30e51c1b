"""Ground-truth physics: tonal sources, free-field propagation, FIR path models."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .geometry import as_points, distances

SINC_WINDOW_HALF_WIDTH = 16  # Blackman window of 33 taps around the fractional delay
PATH_TAPS = 256  # secondary-path FIR length


def require_numbers(obj):
    """The one rule for config numbers, on the fields of the dataclass ``obj`` annotated
    ``float`` or ``int``: ValueError naming one that is a real number but not finite, TypeError
    one that is not a real number, or for ``int`` not an integer (a bool is neither). Other
    number types (numpy's, say) are stored as Python int or float, so configs write as JSON."""
    # under `from __future__ import annotations` each field's type is the annotation's text
    for field in (f for f in fields(obj) if f.type in ("float", "int")):
        name, value, integer = field.name, getattr(obj, field.name), field.type == "int"
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        # an int is finite, past float range too
        if real and not isinstance(value, numbers.Integral) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if not real or integer and not isinstance(value, numbers.Integral):
            noun = "an integer" if integer else "a number"
            raise TypeError(f"{name} must be {noun}, got {type(value).__name__} {value!r}")
        if type(value) not in (int, float):  # frozen dataclasses too
            object.__setattr__(obj, name, (int if integer else float)(value))


@dataclass(frozen=True)
class ToneComponent:
    frequency: float  # Hz
    amplitude: float = 1.0
    phase: float = 0.0  # rad

    def __post_init__(self):
        require_numbers(self)
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

    def period_samples(self, sample_rate: float) -> int:
        """sample_rate / gcd(sample_rate, tones), the fewest samples that hold whole cycles of
        every tone; ValueError naming the tones unless they are below Nyquist and they and the
        sample rate are whole hertz."""
        freqs = [c.frequency for c in self.components]
        if max(freqs) >= sample_rate / 2.0:
            raise ValueError(f"tones {freqs} Hz: {max(freqs)} Hz is at or above Nyquist")
        rates = [sample_rate, *freqs]
        if not all(float(f).is_integer() for f in rates):
            raise ValueError(
                f"tones {freqs} Hz and sample rate {sample_rate} Hz must be whole hertz"
            )
        return round(sample_rate) // math.gcd(*map(round, rates))

    def waveform(self, sample_rate: float) -> np.ndarray:
        """One period (P,) of the signal at zero distance and unit gain: the reference x(n)."""
        return _tone_sum(self, np.zeros(1), np.ones(1), sample_rate)[0]


def _tone_sum(source: TonalSource, delays: np.ndarray, gains: np.ndarray,
              sample_rate: float) -> np.ndarray:
    """(R, P) sum_i A_i gains sin(2 pi f_i (t - delays) + phi_i) at t = n / sample_rate for
    the P samples n of the sample period."""
    t = np.arange(source.period_samples(sample_rate)) / sample_rate
    p = np.zeros((delays.size, len(t)))
    tone = np.empty_like(p)  # one tone at a time, built in place
    for comp in source.components:
        np.subtract(t, delays[:, None], out=tone)
        tone *= 2.0 * np.pi * comp.frequency
        tone += comp.phase
        np.sin(tone, out=tone)
        tone *= (comp.amplitude * gains)[:, None]
        p += tone
    return p


def _tone_phasors(source: TonalSource, delays: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """(R, K) amplitudes a of _tone_sum's K tones: tone i is Im(a[:, i] e^{2 pi j f_i t})."""
    f, amp, phase = np.array([(t.frequency, t.amplitude, t.phase) for t in source.components]).T
    return amp * gains[:, None] * np.exp(1j * (phase - 2.0 * np.pi * f * delays[:, None]))


def tone_table(source: TonalSource, sample_rate: float) -> np.ndarray:
    """(2, PATH_TAPS, K) cos and sin of 2 pi f_k t / sample_rate at taps t, for the K tones."""
    omega = 2.0 * np.pi / sample_rate * np.array([t.frequency for t in source.components])
    return np.stack([trig(np.outer(np.arange(PATH_TAPS), omega)) for trig in (np.cos, np.sin)])


def fir_response(firs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(..., K) responses sum_t firs[..., t] e^{-j w_k t} of real FIRs at a tone_table's tones."""
    return firs @ table[0, : firs.shape[-1]] - 1j * (firs @ table[1, : firs.shape[-1]])


def propagate_tonal(source: TonalSource, receivers: np.ndarray, sample_rate: float,
                    c: float) -> np.ndarray:
    """Free-field propagation of a tonal source with exact analytic delay.

    p(t) = sum_i A_i / (4 pi d) * sin(2 pi f_i (t - d/c) + phi_i) at each of the (R, 3)
    ``receivers`` and t = n / sample_rate for the P samples n of one period; returns (R, P).
    """
    d = separations(source.position[None], receivers)[0]
    return _tone_sum(source, d / c, 1.0 / (4.0 * np.pi * d), sample_rate)


def _path(flat: int, d: np.ndarray, sources, receivers, kinds: tuple[str, str]) -> str:
    """Path ``flat`` of the (S, P) distances ``d``: its ends called ``kinds``, index, position."""
    ends = zip(kinds, np.unravel_index(flat, d.shape), (sources, receivers))
    return " to ".join(f"{k} {i} at {np.round(x[i], 4).tolist()}" for k, i, x in ends)


def separations(sources: np.ndarray, receivers: np.ndarray, kinds=("source", "receiver")):
    """(S, P) distances from the (S, 3) sources to the (P, 3) receivers; ValueError naming
    the shortest path, its ends called ``kinds``, when it is 0 m long."""
    d = np.stack([distances(receivers, s) for s in sources])
    if d.min() < 1e-9:
        path = _path(d.argmin(), d, sources, receivers, kinds)
        raise ValueError(f"{path}: {d.min():.3g} m apart")
    return d


def path_distances(sources: np.ndarray, receivers: np.ndarray, sample_rate: float, c: float,
                   kinds: tuple[str, str] = ("source", "receiver")) -> np.ndarray:
    """separations(sources, receivers, kinds); ValueError too unless make_path_fir can model
    every path in PATH_TAPS taps, naming the one of longest delay."""
    d = separations(sources, receivers, kinds)
    delay = d.max() / c * sample_rate
    if np.floor(delay) >= PATH_TAPS - SINC_WINDOW_HALF_WIDTH:
        path = _path(d.argmax(), d, sources, receivers, kinds)
        raise ValueError(f"{path}: {delay:.1f}-sample delay does not fit in {PATH_TAPS} taps")
    return d


def make_path_fir(
    sources: np.ndarray, receivers: np.ndarray, sample_rate: float, c: float
) -> np.ndarray:
    """(S, P, PATH_TAPS) windowed-sinc fractional-delay FIRs with 1/(4 pi d) gain, one per
    path from the (S, 3) sources to the (P, 3) receivers. The window and the sinc are
    evaluated only on the taps the window spans, at most 2 SINC_WINDOW_HALF_WIDTH + 1."""
    d = path_distances(sources, receivers, sample_rate, c)[..., None]
    offset = np.arange(PATH_TAPS) - d / c * sample_rate
    live = np.abs(offset) <= SINC_WINDOW_HALF_WIDTH  # Blackman window, zero past its half width
    x = np.pi * offset[live] / SINC_WINDOW_HALF_WIDTH
    firs = np.zeros_like(offset)
    firs[live] = np.sinc(offset[live]) * (0.42 + 0.5 * np.cos(x) + 0.08 * np.cos(2.0 * x))
    firs /= 4.0 * np.pi * d
    return firs
