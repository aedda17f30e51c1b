"""Multichannel FxLMS control loop with measured or interpolated error sensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acoustics import FirFilter, make_path_fir, propagate_tonal
from .errors import BufferTooShort, Diverged, ZeroDenominator
from .geometry import Point3
from .pinn import MlpParams, NormSpec, fundamental_period_samples, pinn_predict
from .scenario import ScenarioConfig
from .sh import DB_FLOOR, ratio_to_db

DEFAULT_FILTER_LEN = 96
DEFAULT_PATH_TAPS = 256
EPS_WINDOW = 480  # trailing samples for the per-iteration reduction ratio
WEIGHT_BOUND = 1e6

MODE_MULTIPOINT = "multipoint"
MODE_PINN = "pinn"
MODE_IDEAL = "ideal"  # ground-truth virtual primaries; interpolation oracle


@dataclass
class AncWeights:
    """Adaptive FIR weights, one vector per secondary source."""

    w: np.ndarray  # (L, filter_len)

    @staticmethod
    def zeros(num_sources: int, filter_len: int = DEFAULT_FILTER_LEN) -> "AncWeights":
        return AncWeights(np.zeros((num_sources, filter_len)))

    @property
    def filter_len(self) -> int:
        return self.w.shape[1]


@dataclass
class SecondaryPathBank:
    """FIR paths for every (secondary source, error sensor) pair."""

    filters: list[list[FirFilter]]  # indexed [source][sensor]

    @staticmethod
    def model(
        sources: list[Point3],
        sensors: list[Point3],
        sample_rate: float,
        c: float,
        num_taps: int = DEFAULT_PATH_TAPS,
    ) -> "SecondaryPathBank":
        return SecondaryPathBank(
            [[make_path_fir(s, m, sample_rate, num_taps, c) for m in sensors] for s in sources]
        )

    def taps_array(self) -> np.ndarray:
        """(L, M, num_taps) stacked taps."""
        return np.array([[f.taps for f in row] for row in self.filters])


@dataclass
class AncRunReport:
    eps_db: np.ndarray  # per-iteration ear reduction, dB
    sensor_mse: np.ndarray  # per-iteration mean-square error at the active sensors
    weights: AncWeights
    converged: bool
    iterations: int


def filtered_reference(x_buffer: np.ndarray, path: FirFilter, filter_len: int) -> np.ndarray:
    """Most recent ``filter_len`` lags of the path-filtered reference.

    ``x_buffer`` is newest-first; needs filter_len + len(taps) - 1 samples.
    """
    x_buffer = np.asarray(x_buffer, dtype=float)
    taps = path.taps
    need = filter_len + taps.size - 1
    if x_buffer.size < need:
        raise BufferTooShort(f"need {need} samples, got {x_buffer.size}")
    windows = sliding_window_view(x_buffer, taps.size)[:filter_len]
    return windows @ taps


def fxlms_step(
    weights: AncWeights,
    filtered_refs: np.ndarray,  # (L, M, filter_len)
    errors: np.ndarray,  # (M,)
    mu: float,
) -> AncWeights:
    """w_l += mu * sum_m x'_{l,m} e_m."""
    if mu <= 0:
        raise ValueError("step size must be positive")
    update = mu * np.einsum("lmn,m->ln", filtered_refs, errors)
    return AncWeights(weights.w + update)


def noise_reduction(
    ear_residuals: list[np.ndarray], ear_primaries: list[np.ndarray]
) -> tuple[float, float]:
    """Residual-to-primary power ratio over the ears; returns (ratio, dB)."""
    num = sum(float(np.sum(np.asarray(e) ** 2)) for e in ear_residuals)
    den = sum(float(np.sum(np.asarray(p) ** 2)) for p in ear_primaries)
    if den == 0.0:
        raise ZeroDenominator("ear primaries are identically zero")
    ratio = num / den
    return ratio, ratio_to_db(ratio)


def _tiled_primary(signal: np.ndarray, n: int) -> np.ndarray:
    """Periodic extension of a one-block signal to n samples."""
    reps = int(np.ceil(n / signal.size))
    return np.tile(signal, reps)[:n]


def run_anc(
    scenario: ScenarioConfig,
    mode: str = MODE_MULTIPOINT,
    iterations: int = 10_000,
    mu: float = 1e-5,
    filter_len: int = DEFAULT_FILTER_LEN,
    pinn_params: MlpParams | None = None,
    pinn_norm: NormSpec | None = None,
    path_taps: int = DEFAULT_PATH_TAPS,
) -> AncRunReport:
    """Sample-synchronous FxLMS loop; one iteration advances one sample.

    The reference is the source waveform itself. Error sensors are the
    monitoring mics (multipoint) or the virtual ears, whose primary component
    is the PINN estimate (pinn), or the true field (ideal).
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    fs = scenario.sample_rate
    c = scenario.speed_of_sound
    src = scenario.primary_source
    L = len(scenario.secondary_positions)

    if mode == MODE_MULTIPOINT:
        sensors = scenario.monitoring_positions
    elif mode in (MODE_PINN, MODE_IDEAL):
        sensors = scenario.virtual_positions
    else:
        raise ValueError(f"unknown mode {mode!r}")
    M = len(sensors)

    x = src.waveform(fs, iterations)
    # primary component seen by the error sensors
    block = scenario.num_samples
    if mode == MODE_PINN:
        if pinn_params is None:
            raise ValueError("pinn mode needs trained parameters")
        norm = pinn_norm
        if norm is None:
            norm = NormSpec(fundamental_period_samples(scenario) / fs)
        est = pinn_predict(pinn_params, norm, sensors, fs, norm.duration)
        primary = np.stack([_tiled_primary(s.samples, iterations) for s in est])
    else:
        primary = np.stack(
            [
                _tiled_primary(
                    propagate_tonal(src, m, fs, scenario.duration, c).samples, iterations
                )
                for m in sensors
            ]
        )

    paths = SecondaryPathBank.model(scenario.secondary_positions, sensors, fs, c, path_taps)
    S = paths.taps_array()  # (L, M, taps)

    # ears, for the reported reduction curve (known to the simulation, not the controller)
    ears = scenario.virtual_positions
    ear_primary = np.stack(
        [
            _tiled_primary(propagate_tonal(src, v, fs, scenario.duration, c).samples, iterations)
            for v in ears
        ]
    )
    ear_paths = SecondaryPathBank.model(scenario.secondary_positions, ears, fs, c, path_taps)
    S_ear = ear_paths.taps_array()  # (L, V, taps)

    w = np.zeros((L, filter_len))
    xbuf = np.zeros(max(filter_len, path_taps))  # newest-first reference history
    dbuf = np.zeros((L, path_taps))  # newest-first secondary outputs
    fx = np.zeros((L, M, filter_len))  # newest-first filtered reference lags

    sensor_mse = np.empty(iterations)
    ear_resid = np.empty((len(ears), iterations))
    converged = True
    n_done = iterations

    for n in range(iterations):
        xbuf[1:] = xbuf[:-1]
        xbuf[0] = x[n]
        # secondary outputs (sign keeps the textbook "+mu" update cancelling)
        d = -(w @ xbuf[:filter_len])
        dbuf[:, 1:] = dbuf[:, :-1]
        dbuf[:, 0] = d
        fx[:, :, 1:] = fx[:, :, :-1]
        fx[:, :, 0] = np.einsum("lmt,t->lm", S, xbuf[:path_taps])
        sec = np.einsum("lmt,lt->m", S, dbuf)
        e = primary[:, n] + sec
        sec_ear = np.einsum("lvt,lt->v", S_ear, dbuf)
        ear_resid[:, n] = ear_primary[:, n] + sec_ear
        sensor_mse[n] = float(np.mean(e**2))
        w = w + mu * np.einsum("lmn,m->ln", fx, e)
        if np.max(np.abs(w)) > WEIGHT_BOUND:
            converged = False
            n_done = n + 1
            break

    sensor_mse = sensor_mse[:n_done]
    ear_resid = ear_resid[:, :n_done]
    ear_primary = ear_primary[:, :n_done]

    # trailing-window power ratio at the ears
    win = min(EPS_WINDOW, n_done)
    num = np.sum(ear_resid**2, axis=0)
    den = np.sum(ear_primary**2, axis=0)
    csum_n = np.concatenate([[0.0], np.cumsum(num)])
    csum_d = np.concatenate([[0.0], np.cumsum(den)])
    idx = np.arange(1, n_done + 1)
    lo = np.maximum(idx - win, 0)
    wn = csum_n[idx] - csum_n[lo]
    wd = csum_d[idx] - csum_d[lo]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(wd > 0, wn / np.maximum(wd, 1e-300), 1.0)
    eps_db = np.maximum(10.0 * np.log10(np.maximum(ratio, 10.0 ** (DB_FLOOR / 10.0))), DB_FLOOR)

    return AncRunReport(
        eps_db=eps_db,
        sensor_mse=sensor_mse,
        weights=AncWeights(w),
        converged=converged,
        iterations=n_done,
    )


def field_grid_power(
    scenario: ScenarioConfig,
    weights: AncWeights | None,
    half_extent: float = 0.2,
    points_per_side: int = 21,
    path_taps: int = DEFAULT_PATH_TAPS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signal power on an xy-grid at z=0 under frozen controller weights.

    Returns (x, y, power) flattened row-major over the grid; power is linear
    mean-square pressure over one fundamental period after the path transient.
    ``weights=None`` gives the uncontrolled primary field.
    """
    fs = scenario.sample_rate
    c = scenario.speed_of_sound
    src = scenario.primary_source
    coords = np.linspace(-half_extent, half_extent, points_per_side)
    freqs = [comp.frequency for comp in src.components]
    fundamental = np.gcd.reduce([int(round(f)) for f in freqs])
    period = round(fs / fundamental)
    n_total = path_taps + 4 * period

    if weights is not None:
        x = src.waveform(fs, n_total)
        d = np.stack(
            [
                -np.convolve(x, wl)[:n_total]
                for wl in weights.w
            ]
        )
    grid_x, grid_y, power = [], [], []
    for gy in coords:
        for gx in coords:
            p = Point3(float(gx), float(gy), 0.0)
            total = propagate_tonal(src, p, fs, n_total / fs, c).samples
            if weights is not None:
                for ell, spos in enumerate(scenario.secondary_positions):
                    fir = make_path_fir(spos, p, fs, path_taps, c)
                    total = total + np.convolve(d[ell], fir.taps)[:n_total]
            tail = total[-period:]
            grid_x.append(float(gx))
            grid_y.append(float(gy))
            power.append(float(np.mean(tail**2)))
    return np.array(grid_x), np.array(grid_y), np.array(power)
