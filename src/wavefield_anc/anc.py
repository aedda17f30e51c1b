"""Multichannel FxLMS control loop driven by a given error signal, and field maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acoustics import PATH_TAPS, make_path_fir, propagate_tonal
from .geometry import as_points
from .scenario import ScenarioConfig
from .sh import ratio_to_db

FILTER_LEN = 96  # adaptive FIR taps per secondary source
EPS_WINDOW = 480  # trailing samples for the per-iteration reduction ratio
WEIGHT_BOUND = 1e6
GRID_HALF_EXTENT = 0.2  # field map spans +-0.2 m in x and y
GRID_POINTS_PER_SIDE = 21
FIR_BLOCK = 64  # outputs per matrix product in _fir_sum


@dataclass
class AncRunReport:
    eps_db: np.ndarray  # per-iteration ear reduction, dB
    sensor_mse: np.ndarray  # per-iteration mean-square error at the active sensors
    weights: np.ndarray  # (L, FILTER_LEN) controller taps, newest lag first
    ear_residual: np.ndarray  # (V, iterations) controlled pressure at the ears
    converged: bool
    iterations: int


def _tap_major(firs: np.ndarray) -> np.ndarray:
    """(L, ..., taps) FIRs as (R, taps * L) rows, ordered like a raveled (taps, L) window."""
    return np.moveaxis(firs, 0, -1).reshape(-1, firs.shape[-1] * len(firs))


def _fir_sum(history: np.ndarray, firs: np.ndarray) -> np.ndarray:
    """out[k, ...] = sum_l sum_t firs[l, ..., t] history[k + t, l] for (L, ..., taps) ``firs``
    and a (count + taps - 1, L) ``history``, out and history newest first. Only the span
    of taps that is non-zero in some FIR is multiplied: the rest are exact zeros (path
    FIRs hold ~32 live taps of PATH_TAPS). The input windows of each FIR_BLOCK outputs are
    copied contiguous for one matrix product."""
    taps = firs.shape[-1]
    live = np.flatnonzero(np.any(firs != 0, axis=tuple(range(firs.ndim - 1))))
    if not live.size:
        return np.zeros((len(history) - taps + 1, *firs.shape[1:-1]))
    t0, t1 = live[0], live[-1] + 1
    history = history[t0 : len(history) - taps + t1]
    rows = _tap_major(firs[..., t0:t1])
    windows = sliding_window_view(history.ravel(), rows.shape[1])[:: len(firs)]
    out = np.empty((len(windows), len(rows)))
    for k in range(0, len(windows), FIR_BLOCK):
        out[k : k + FIR_BLOCK] = np.ascontiguousarray(windows[k : k + FIR_BLOCK]) @ rows.T
    return out.reshape(len(windows), *firs.shape[1:-1])


def filtered_reference(x: np.ndarray, firs: np.ndarray) -> np.ndarray:
    """``x`` through every FIR of ``firs`` (..., taps), zero input before ``x[0]``, as
    (len(x), ...) newest first: with the (L, M, taps) secondary paths, the (N, L, M)
    filtered reference of FxLMS."""
    return _fir_sum(np.concatenate([x[::-1], np.zeros(firs.shape[-1] - 1)])[:, None], firs[None])


def fxlms_step(
    w: np.ndarray,  # (filter_len * L,) flat, newest lag first
    filtered_refs: np.ndarray,  # (filter_len * L, M), rows in the order of w
    errors: np.ndarray,  # (M,)
    mu: float,
    update: np.ndarray,  # (filter_len * L,) preallocated work buffer
) -> np.ndarray:
    """Multichannel FxLMS update w_l += mu * sum_m x'_{l,m} e_m (Kuo & Morgan 1996, ch. 3),
    in place through ``update``, with no temporaries: returns ``w``."""
    np.dot(filtered_refs, errors, out=update)
    update *= mu
    w += update
    return w


def run_anc(
    scenario: ScenarioConfig, sensors: np.ndarray, primary: np.ndarray, mu: float
) -> AncRunReport:
    """Sample-synchronous FxLMS loop; one iteration advances one sample.

    The reference is the source waveform itself. The error signal is ``primary`` (M, N),
    the primary field as known at the (M, 3) ``sensors`` (measured at mics, or estimated
    at virtual ones), plus the secondary sources' contribution there; the loop runs N
    iterations. The reported reduction is that of the true field at the ears. A weight
    beyond WEIGHT_BOUND, or not finite, stops the loop as diverged.
    """
    sensors = as_points(sensors, "sensors")
    primary = np.asarray(primary, dtype=float)
    if primary.ndim != 2 or len(primary) != len(sensors):
        raise ValueError(f"need one primary row per sensor: {primary.shape} at {len(sensors)}")
    if primary.shape[1] < 1:
        raise ValueError("need at least one iteration")
    if mu < 0:
        raise ValueError("step size must be non-negative")
    fs, c = scenario.sample_rate, scenario.speed_of_sound
    src = scenario.primary_source
    iterations = primary.shape[1]
    paths = make_path_fir(scenario.secondary_positions, sensors, fs, c)  # (L, M, taps)

    # Histories run newest first along their first axis: row k holds step
    # iterations - 1 - k and zeros past the end stand for the samples before
    # n = 0, so the latest samples at step n are the contiguous rows from k.
    x = np.concatenate([np.zeros(FILTER_LEN - 1), src.waveform(fs, iterations)])
    fx = filtered_reference(x, paths)  # (N + FILTER_LEN - 1, L, M)
    x = x[::-1].copy()
    y = np.zeros((iterations + PATH_TAPS - 1, len(paths)))  # sources emit -y: "+mu" descends
    w = np.zeros((FILTER_LEN, len(paths)))
    paths = -_tap_major(paths)  # (M, taps L), matching y[k : k + taps].ravel()
    errors = primary.T.copy()  # (N, M); the loop adds the secondary part
    L, M = fx.shape[1:]
    # per-step views, row k for step iterations - 1 - k: the FILTER_LEN latest inputs, the
    # PATH_TAPS latest outputs raveled, and the filtered reference as (FILTER_LEN L, M)
    x_win = sliding_window_view(x, FILTER_LEN)
    y_win = sliding_window_view(y.reshape(-1), PATH_TAPS * L)[::L]
    refs = sliding_window_view(fx.reshape(-1, M), FILTER_LEN * L, axis=0)[::L].swapaxes(1, 2)
    w_flat, secondary, update = w.reshape(-1), np.empty(M), np.empty(w.size)
    bound_sq = WEIGHT_BOUND**2 / 2

    # np.dot writes into its out= rows with no temporaries; per step, call overhead dominates
    steps = zip(x_win[::-1], y[iterations - 1 :: -1], y_win[::-1], refs[::-1], errors)
    for n, (x_recent, y_n, y_recent, refs_n, e) in enumerate(steps):
        np.dot(x_recent, w, out=y_n)
        e += np.dot(paths, y_recent, out=secondary)
        fxlms_step(w_flat, refs_n, e, mu, update)
        # below half the squared bound, the squared norm keeps every weight within it
        if not np.vdot(w, w) <= bound_sq and not np.all(np.abs(w) <= WEIGHT_BOUND):
            break
    n_done = n + 1
    del fx, refs, steps, refs_n  # the largest array and its views; the ears need only y

    # ears, for the reported reduction curve (known to the simulation, not the controller)
    ears = scenario.virtual_positions
    ear_primary = propagate_tonal(src, ears, fs, n_done, c)
    ear_firs = -make_path_fir(scenario.secondary_positions, ears, fs, c)
    ear_resid = ear_primary + _fir_sum(y[iterations - n_done :], ear_firs)[::-1].T

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
    eps_db = ratio_to_db(ratio)

    return AncRunReport(
        eps_db=eps_db,
        sensor_mse=np.mean(np.square(errors[:n_done], out=errors[:n_done]), axis=1),
        weights=w.T.copy(),
        ear_residual=ear_resid,
        converged=bool(np.all(np.abs(w) <= WEIGHT_BOUND)),
        iterations=n_done,
    )


def field_grid() -> np.ndarray:
    """The (GRID_POINTS_PER_SIDE**2, 3) field-map points in the plane z = 0, row by row."""
    coords = np.linspace(-GRID_HALF_EXTENT, GRID_HALF_EXTENT, GRID_POINTS_PER_SIDE)
    x, y = np.meshgrid(coords, coords)
    return np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])


def field_grid_power(
    scenario: ScenarioConfig, weight_sets: list[np.ndarray | None]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signal power on the field_grid under each set of frozen controller weights.

    Returns (x, y, power): x and y of the grid points, power (len(weight_sets), grid
    points), linear mean-square pressure over one fundamental period after the path
    transient. A set of ``None`` gives the uncontrolled primary field. The grid is
    evaluated one row at a time, and each row's path FIRs serve every weight set.
    """
    fs, c = scenario.sample_rate, scenario.speed_of_sound
    src = scenario.primary_source
    period = scenario.period_samples
    n_total = PATH_TAPS + 4 * period

    # newest-first secondary outputs that reach the last period: it and PATH_TAPS - 1 before,
    # from the reference samples that reach those through the controller's FILTER_LEN taps
    used = period + PATH_TAPS - 1
    x = src.waveform(fs, n_total)[-(used + FILTER_LEN - 1) :]
    outputs = [None if w is None else -filtered_reference(x, w)[:used] for w in weight_sets]
    grid = field_grid()
    power = np.empty((len(weight_sets), len(grid)))
    for row in np.split(np.arange(len(grid)), GRID_POINTS_PER_SIDE):
        primary = propagate_tonal(src, grid[row], fs, period, c, start=n_total - period)
        firs = make_path_fir(scenario.secondary_positions, grid[row], fs, c)
        for k, out in enumerate(outputs):
            tail = primary if out is None else primary + _fir_sum(out, firs)[::-1].T
            power[k, row] = np.mean(tail**2, axis=1)
    return grid[:, 0], grid[:, 1], power
