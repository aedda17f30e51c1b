"""Multichannel FxLMS control loop driven by a given error signal, and field maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acoustics import (PATH_TAPS, _tone_phasors, fir_response, make_path_fir, propagate_tonal,
                        separations, tone_table)
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
    converged: bool
    iterations: int


def _tap_major(firs: np.ndarray) -> np.ndarray:
    """(L, ..., taps) FIRs as (R, taps * L) rows, ordered like a raveled (taps, L) window."""
    return np.moveaxis(firs, 0, -1).reshape(-1, firs.shape[-1] * len(firs))


def _fir_sum(history: np.ndarray, firs: np.ndarray) -> np.ndarray:
    """out[k, ...] = sum_l sum_t firs[l, ..., t] history[k + t, l] for (L, ..., taps) ``firs``
    and a (count + taps - 1, L) ``history``, out and history newest first. Only the span
    of taps that is non-zero in some FIR (at least one tap is) is multiplied: the rest are
    exact zeros (path FIRs hold ~32 live taps of PATH_TAPS). The input windows of each
    FIR_BLOCK outputs are copied contiguous for one matrix product."""
    taps = firs.shape[-1]
    live = np.flatnonzero(np.any(firs != 0, axis=tuple(range(firs.ndim - 1))))
    t0, t1 = live[0], live[-1] + 1
    history = history[t0 : len(history) - taps + t1]
    rows = _tap_major(firs[..., t0:t1])
    windows = sliding_window_view(history.ravel(), rows.shape[1])[:: len(firs)]
    out = np.empty((len(windows), len(rows)))
    for k in range(0, len(windows), FIR_BLOCK):
        out[k : k + FIR_BLOCK] = np.ascontiguousarray(windows[k : k + FIR_BLOCK]) @ rows.T
    return out.reshape(len(windows), *firs.shape[1:-1])


def fxlms_step(
    w: np.ndarray,  # (C, filter_len * L) flat weights of C controllers, newest lag first
    controllers,  # per controller: (M, PATH_TAPS * L) path rows, (M,) buffer, its update row
    step,  # per controller: recent outputs, (filter_len * L, M) filtered reference, error
    mu: float,
    update: np.ndarray,  # (C, filter_len * L) preallocated work buffer
) -> np.ndarray:
    """One multichannel FxLMS iteration (Kuo & Morgan 1996, ch. 3) of each controller, in
    place with no temporaries: returns ``w``. Each error, the primary part on entry, gains
    the secondary part that the path rows give from the PATH_TAPS latest outputs, raveled
    newest first; then w_l += mu * sum_m x'_{l,m} e_m, through ``update``, the rows of the
    filtered reference in the order of w. Each controller's two products are its own, at
    the shapes it has alone, so stacking leaves its weights bitwise as alone."""
    for (paths, secondary, out), (recent, refs, e) in zip(controllers, step):
        # the .dot method skips np.dot's dispatch, and out by position parses faster
        np.add(e, paths.dot(recent, secondary), e)
        refs.dot(e, out)
    update *= mu
    w += update
    return w


def repeat_period(one_period: np.ndarray, count: int) -> np.ndarray:
    """(..., count) signals from one period's (..., P) samples: sample n is column n mod P."""
    return one_period[..., np.arange(count) % one_period.shape[-1]]


def run_controllers(
    scenario: ScenarioConfig, sensings: list[tuple[np.ndarray, np.ndarray]], mu: float,
    iterations: int,
) -> list[AncRunReport]:
    """Sample-synchronous FxLMS loop stepping several controllers for ``iterations`` steps;
    one iteration advances one sample of each.

    The reference is the source waveform itself. Each controller's error signal is one
    ``(sensors (M, 3), primary (M, P))`` pair of ``sensings``: one period of the primary
    field as known at the sensors (measured at mics, or estimated at virtual ones),
    repeated, plus the secondary sources' contribution there. The reported reduction is
    that of the true field at the ears. A weight beyond WEIGHT_BOUND, or not finite, stops
    its controller as diverged at that step; the others run on. The controllers share the
    reference window, one stacked product for their outputs, the update's scale and add,
    the bound check and the ear truth; each keeps its own error and update products, so its
    report is bitwise that of it running alone.
    """
    fs, c, period = scenario.sample_rate, scenario.speed_of_sound, scenario.period_samples
    src, secondaries = scenario.primary_source, scenario.secondary_positions
    C, L = len(sensings), len(secondaries)

    # Histories run newest first along their first axis: row k holds step
    # iterations - 1 - k and zeros past the end stand for the samples before
    # n = 0, so the latest samples at step n are the contiguous rows from k.
    x = np.zeros(iterations + FILTER_LEN + PATH_TAPS - 2)
    x[:iterations] = repeat_period(src.waveform(fs), iterations)[::-1]
    refs, paths, errors = [], [], []
    for sensors, primary in sensings:
        firs = make_path_fir(secondaries, sensors, fs, c)  # (L, M, taps)
        fx = _fir_sum(x[:, None], firs[None]).reshape(-1, len(sensors))  # (N + FILTER_LEN - 1) L, M
        # step n's filtered reference as (FILTER_LEN L, M) rows, in the order of w
        refs.append(sliding_window_view(fx, FILTER_LEN * L, axis=0)[::L][::-1].swapaxes(1, 2))
        paths.append(-_tap_major(firs))  # (M, taps L), matching y[c, k : k + taps].ravel()
        # (N, M), C-ordered, in one allocation; the loop adds the secondary part
        errors.append(primary.T[np.arange(iterations) % period])
    y = np.zeros((C, iterations + PATH_TAPS - 1, L))  # sources emit -y: "+mu" descends
    w = np.zeros((C, FILTER_LEN, L))
    w_flat, w_all, update = w.reshape(C, -1), w.reshape(-1), np.empty((C, FILTER_LEN * L))
    controllers = [(p, np.empty(len(p)), row) for p, row in zip(paths, update)]
    mu = np.asarray(float(mu))  # a 0-d array scales faster than a Python float
    bound_sq = WEIGHT_BOUND**2 / 2
    done = [None] * C  # per controller, (steps, weights, outputs, converged) once stopped
    # per-step views, by step: the FILTER_LEN latest inputs, the C controllers' outputs, and
    # per controller its PATH_TAPS latest outputs raveled, filtered reference and error
    y_wins = [sliding_window_view(y_c.reshape(-1), PATH_TAPS * L)[::L][::-1] for y_c in y]
    steps = zip(
        sliding_window_view(x, FILTER_LEN)[iterations - 1 :: -1],
        y.transpose(1, 0, 2)[::-1][PATH_TAPS - 1 :],
        zip(*map(zip, y_wins, refs, errors)),
    )

    # every product writes into its output rows, with no temporaries; per step, call
    # overhead dominates, so the controllers share every call that is not their own product
    for n, (x_recent, y_n, step) in enumerate(steps):
        np.matmul(x_recent, w, y_n)
        fxlms_step(w_flat, controllers, step, mu, update)
        # below half the squared bound, the squared norm keeps every weight within it
        if not w_all.dot(w_all) <= bound_sq:
            for s in np.flatnonzero(~np.all(np.abs(w) <= WEIGHT_BOUND, axis=(1, 2))):
                done[s] = (n + 1, w[s].T.copy(), y[s].copy(), False)
                # stopped: its weights, outputs and errors to come are exact zeros
                w[s], y[s], errors[s][n + 1 :] = 0.0, 0.0, 0.0
            if None not in done:
                break
    done = [d or (iterations, w_s.T.copy(), y_s, True) for d, w_s, y_s in zip(done, w, y)]
    del fx, refs, steps, step  # the filtered references and their views; the ears need y

    # ears, for the reported reduction curves (known to the simulation, not the controller)
    ears = scenario.virtual_positions
    ear_primary = repeat_period(propagate_tonal(src, ears, fs, c), max(d[0] for d in done))
    ear_firs = -make_path_fir(secondaries, ears, fs, c)
    reports = []
    for (n_done, weights, y_s, converged), errors_s in zip(done, errors):
        primary_s = ear_primary[:, :n_done]
        ear_resid = primary_s + _fir_sum(y_s[iterations - n_done :], ear_firs)[::-1].T

        # trailing-window power ratio at the ears: the residual and primary power of each
        # step, summed over the EPS_WINDOW steps to it from one cumulative sum
        power = np.column_stack([np.sum(ear_resid**2, axis=0), np.sum(primary_s**2, axis=0)])
        csum = np.cumsum(np.vstack([np.zeros(2), power]), axis=0)  # row k: the steps before k
        wn, wd = (csum[1:] - csum[np.maximum(np.arange(1, n_done + 1) - EPS_WINDOW, 0)]).T
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(wd > 0, wn / np.maximum(wd, 1e-300), 1.0)

        sensed = errors_s[:n_done]
        reports.append(AncRunReport(
            eps_db=ratio_to_db(ratio),
            sensor_mse=np.mean(np.square(sensed, out=sensed), axis=1),
            weights=weights,
            converged=converged,
            iterations=n_done,
        ))
    return reports


def run_anc(
    scenario: ScenarioConfig, sensors: np.ndarray, primary: np.ndarray, mu: float,
    iterations: int,
) -> AncRunReport:
    """run_controllers for one controller, sensing one period ``primary`` (M, P) at the
    (M, 3) ``sensors``: ``iterations`` steps, stopped as diverged by a weight beyond
    WEIGHT_BOUND or not finite."""
    return run_controllers(scenario, [(sensors, primary)], mu, iterations)[0]


def field_grid(scenario: ScenarioConfig) -> np.ndarray:
    """The (GRID_POINTS_PER_SIDE**2, 3) field-map points, row by row, in the ears' plane:
    z is that of the first ear, which field-map requires every ear to share."""
    coords = np.linspace(-GRID_HALF_EXTENT, GRID_HALF_EXTENT, GRID_POINTS_PER_SIDE)
    x, y, z = np.meshgrid(coords, coords, scenario.virtual_positions[0, 2:])
    return np.column_stack([x.ravel(), y.ravel(), z.ravel()])


def field_grid_power(scenario: ScenarioConfig, weight_sets: list[np.ndarray]) -> np.ndarray:
    """Signal power on the field_grid, uncontrolled and under each set of frozen controller
    weights: (1 + len(weight_sets), grid points), row 0 the primary field alone. Each is the
    steady state's sum_k |a_k|^2 / 2, a_k the primary's tone-k amplitude plus each secondary
    source's path response times its output -W X (W the weights' response, X the reference's)."""
    fs, c, src = scenario.sample_rate, scenario.speed_of_sound, scenario.primary_source
    grid, table = field_grid(scenario), tone_table(src, fs)
    d = separations(src.position[None], grid)[0]
    primary = _tone_phasors(src, d / c, 1.0 / (4.0 * np.pi * d))  # (G, K)
    weights = np.array([np.zeros((len(scenario.secondary_positions), FILTER_LEN)), *weight_sets])
    drives = -fir_response(weights, table) * _tone_phasors(src, np.zeros(1), np.ones(1))
    power = np.empty((len(weights), len(grid)))
    for row in np.split(np.arange(len(grid)), GRID_POINTS_PER_SIDE):
        paths = fir_response(make_path_fir(scenario.secondary_positions, grid[row], fs, c), table)
        a = primary[row] + np.einsum("lrk,wlk->wrk", paths, drives)  # (1 + W, row, K)
        power[:, row] = np.sum(a.real**2 + a.imag**2, axis=-1) / 2
    return power
