"""Multichannel FxLMS control loop with measured or interpolated error sensors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acoustics import make_path_fir, propagate_tonal
from .pinn import (
    MlpParams,
    NormSpec,
    fundamental_period_samples,
    periodic_extension,
    pinn_predict,
)
from .scenario import ScenarioConfig
from .sh import DB_FLOOR

FILTER_LEN = 96  # adaptive FIR taps per secondary source
PATH_TAPS = 256  # secondary-path FIR length
EPS_WINDOW = 480  # trailing samples for the per-iteration reduction ratio
WEIGHT_BOUND = 1e6
GRID_HALF_EXTENT = 0.2  # field map spans +-0.2 m in x and y
GRID_POINTS_PER_SIDE = 21

MODE_MULTIPOINT = "multipoint"
MODE_PINN = "pinn"
MODE_IDEAL = "ideal"  # ground-truth virtual primaries; interpolation oracle


@dataclass
class AncRunReport:
    eps_db: np.ndarray  # per-iteration ear reduction, dB
    sensor_mse: np.ndarray  # per-iteration mean-square error at the active sensors
    weights: np.ndarray  # (L, FILTER_LEN) controller taps, newest lag first
    converged: bool
    iterations: int


def path_firs(
    sources: np.ndarray, receivers: np.ndarray, sample_rate: float, c: float
) -> np.ndarray:
    """(len(sources), len(receivers), PATH_TAPS) FIR models of every source-receiver path."""
    return np.stack([make_path_fir(s, receivers, sample_rate, PATH_TAPS, c) for s in sources])


def _fir_sum(inputs: np.ndarray, firs: np.ndarray) -> np.ndarray:
    """out[..., n] = sum_l sum_t firs[l, ..., t] inputs[l, n - t] for n < N.

    ``inputs`` is (L, N), oldest first; ``firs`` is (L, ..., taps). Each sample is
    a dot product of the taps with the newest-first input window, summed over l.
    """
    taps = firs.shape[-1]
    newest_first = np.concatenate([inputs[:, ::-1], np.zeros((len(inputs), taps - 1))], axis=1)
    windows = sliding_window_view(newest_first, taps, axis=1)
    return np.einsum("l...t,lkt->...k", firs, windows)[..., ::-1]


def filtered_reference(x: np.ndarray, firs: np.ndarray) -> np.ndarray:
    """``x`` through every FIR of ``firs`` (..., taps), truncated to ``len(x)``.

    With the (L, M, taps) secondary paths this is the whole (L, M, N) filtered
    reference of FxLMS.
    """
    return _fir_sum(x[None], firs[None])


def fxlms_step(
    w: np.ndarray,  # (L, filter_len)
    filtered_refs: np.ndarray,  # (L, M, filter_len), newest lag first
    errors: np.ndarray,  # (M,)
    mu: float,
) -> np.ndarray:
    """Multichannel FxLMS update w_l += mu * sum_m x'_{l,m} e_m (Kuo & Morgan 1996, ch. 3)."""
    return w + mu * np.einsum("lmn,m->ln", filtered_refs, errors)


def run_anc(
    scenario: ScenarioConfig,
    mode: str = MODE_MULTIPOINT,
    iterations: int = 10_000,
    mu: float = 1e-5,
    pinn_params: MlpParams | None = None,
    pinn_norm: NormSpec | None = None,
) -> AncRunReport:
    """Sample-synchronous FxLMS loop; one iteration advances one sample.

    The reference is the source waveform itself. Error sensors are the
    monitoring mics (multipoint) or the virtual ears, whose primary component
    is the PINN estimate (pinn), or the true field (ideal).
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if mu < 0:
        raise ValueError("step size must be non-negative")
    fs = scenario.sample_rate
    c = scenario.speed_of_sound
    src = scenario.primary_source

    if mode == MODE_MULTIPOINT:
        sensors = scenario.monitoring_positions
    elif mode in (MODE_PINN, MODE_IDEAL):
        sensors = scenario.virtual_positions
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # primary component seen by the error sensors
    if mode == MODE_PINN:
        if pinn_params is None:
            raise ValueError("pinn mode needs trained parameters")
        norm = pinn_norm
        if norm is None:
            norm = NormSpec(fundamental_period_samples(scenario) / fs)
        block = pinn_predict(pinn_params, norm, sensors, fs, norm.duration)
    else:
        block = propagate_tonal(src, sensors, fs, scenario.duration, c)
    primary = periodic_extension(block, iterations)
    paths = path_firs(scenario.secondary_positions, sensors, fs, c)  # (L, M, taps)

    # Histories run newest first: position k holds step iterations - 1 - k and
    # zeros past the end stand for the samples before n = 0, so the latest
    # samples at step n are the plain slice starting at k.
    x = np.concatenate([np.zeros(FILTER_LEN - 1), src.waveform(fs, iterations)])
    fx = filtered_reference(x, paths)[..., ::-1]
    x = x[::-1].copy()
    d = np.zeros((len(paths), iterations + PATH_TAPS - 1))  # secondary outputs
    w = np.zeros((len(paths), FILTER_LEN))
    sensor_mse = np.empty(iterations)
    converged = True
    n_done = iterations

    for n in range(iterations):
        k = iterations - 1 - n
        # secondary outputs (sign keeps the textbook "+mu" update cancelling)
        d[:, k] = -(w @ x[k : k + FILTER_LEN])
        e = primary[:, n] + np.einsum("lmt,lt->m", paths, d[:, k : k + PATH_TAPS])
        sensor_mse[n] = np.mean(e**2)
        w = fxlms_step(w, fx[:, :, k : k + FILTER_LEN], e, mu)
        if np.max(np.abs(w)) > WEIGHT_BOUND:
            converged = False
            n_done = n + 1
            break

    # ears, for the reported reduction curve (known to the simulation, not the controller)
    ears = scenario.virtual_positions
    ear_primary = periodic_extension(propagate_tonal(src, ears, fs, scenario.duration, c), n_done)
    ear_resid = ear_primary + _fir_sum(
        d[:, iterations - n_done : iterations][:, ::-1],
        path_firs(scenario.secondary_positions, ears, fs, c),
    )

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
        sensor_mse=sensor_mse[:n_done],
        weights=w,
        converged=converged,
        iterations=n_done,
    )


def field_grid_power(
    scenario: ScenarioConfig, weight_sets: list[np.ndarray | None]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signal power on an xy-grid at z=0 under each set of frozen controller weights.

    Returns (x, y, power): x and y flattened row-major over the grid, power
    (len(weight_sets), grid points), linear mean-square pressure over one
    fundamental period after the path transient. A set of ``None`` gives the
    uncontrolled primary field. The grid is evaluated one row at a time, and
    each row's path FIRs serve every weight set.
    """
    fs = scenario.sample_rate
    c = scenario.speed_of_sound
    src = scenario.primary_source
    coords = np.linspace(-GRID_HALF_EXTENT, GRID_HALF_EXTENT, GRID_POINTS_PER_SIDE)
    period = fundamental_period_samples(scenario)
    n_total = PATH_TAPS + 4 * period

    # secondary outputs that reach the last period: it and the PATH_TAPS - 1 samples before it
    x = src.waveform(fs, n_total)
    outputs = [
        None if w is None else -filtered_reference(x, w)[:, -(period + PATH_TAPS - 1) :]
        for w in weight_sets
    ]
    grid_x, grid_y = (g.ravel() for g in np.meshgrid(coords, coords))
    power = np.empty((len(weight_sets), grid_x.size))
    for row in range(coords.size):
        cols = slice(row * coords.size, (row + 1) * coords.size)
        points = np.column_stack([grid_x[cols], grid_y[cols], np.zeros(coords.size)])
        primary = propagate_tonal(src, points, fs, n_total / fs, c)[:, -period:]
        firs = path_firs(scenario.secondary_positions, points, fs, c)
        for k, out in enumerate(outputs):
            tail = primary if out is None else primary + _fir_sum(out, firs)[:, -period:]
            power[k, cols] = np.mean(tail**2, axis=1)
    return grid_x, grid_y, power
