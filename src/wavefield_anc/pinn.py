"""Physics-informed interpolator: a (tau, x, y, z) -> pressure tanh MLP.

One hidden layer, closed-form derivatives throughout: input second derivatives
for the wave-equation residual, and exact parameter gradients of the combined
data + PDE loss (third-order chain rule through tanh).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from .acoustics import require_numbers
from .geometry import ball_points
from .scenario import ScenarioConfig

TIME_HALF_RANGE = 0.15  # physical time maps onto [-0.15, 0.15], like the coordinates
HIDDEN = 16
COLLOCATION_COUNT = 100  # mic positions plus ball-sampled points; more mics: the mics alone
TIME_SCALE = 100.0  # init multiplier on the time column of W1
LEARNING_RATE = 1e-2  # decays geometrically to LEARNING_RATE_END over the epochs
LEARNING_RATE_END = 1e-4
PDE_WEIGHT = 3e-8  # ramps geometrically to PDE_WEIGHT_END over the epochs
PDE_WEIGHT_END = 3e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PREDICT_BLOCK_ROWS = 8192  # inputs per pinn_predict block: a 1 MB (rows, HIDDEN) hidden array


class DivergenceDetected(Exception):
    """Training loss became non-finite in every restart."""


def unpack(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Views of the weights in the (..., 6N + 1) parameters of a 4-input, N-unit tanh network,
    or of a stack of them along the leading axes: W1 (..., N, 4) row-major, b1 (..., N),
    W2 (..., N) and b2 (...), in that order; the layout of model.txt."""
    size = params.shape[-1]
    n = (size - 1) // 6
    if n < 1 or size != 6 * n + 1:
        raise ValueError(f"{size} parameters are not 6N + 1 for N >= 1 hidden units")
    W1 = params[..., : 4 * n].reshape(*params.shape[:-1], n, 4)
    return W1, params[..., 4 * n : 5 * n], params[..., 5 * n : 6 * n], params[..., -1]


def time_axis(period: int, sample_rate: float) -> tuple[np.ndarray, float]:
    """The network's time inputs tau for the ``period`` samples of one period at
    ``sample_rate``, its [0, period / sample_rate] mapped onto +-TIME_HALF_RANGE, and the
    scale d(tau)/dt; the wave speed in (tau, meters) coordinates is c / scale."""
    scale = 2.0 * TIME_HALF_RANGE / (period / sample_rate)
    return np.arange(period) / sample_rate * scale - TIME_HALF_RANGE, scale


@dataclass
class TrainConfig:
    """Training budget and seeds.

    Over the ``epochs`` the learning rate decays geometrically from
    LEARNING_RATE to LEARNING_RATE_END and the PDE weight ramps geometrically
    from PDE_WEIGHT to PDE_WEIGHT_END. ``restarts`` independent seeds from
    ``seed`` on are trained and the winner is picked by data loss plus a small
    interior wave-equation residual penalty (spatial-overfit guard).
    """

    epochs: int = 50_000
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        require_numbers(self)
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainReport:
    history: list[tuple[int, float, float]]  # epoch, L_data, L_pde
    final_data_loss: float
    restart_scores: list[float | None]  # None: diverged
    best_restart: int
    diverged_restarts: list[tuple[int, int]]  # restart, epoch


def glorot_init(seed: int, N: int = HIDDEN) -> np.ndarray:
    """Glorot-normal weights (std sqrt(2/(fan_in+fan_out))), zero biases; (6N + 1,)."""
    params = np.zeros(6 * N + 1)
    W1, _, W2, _ = unpack(params)
    rng = default_rng(seed)
    W1[...] = rng.normal(0.0, np.sqrt(2.0 / (4 + N)), size=(N, 4))
    W2[...] = rng.normal(0.0, np.sqrt(2.0 / (N + 1)), size=N)
    return params


def mlp_forward(params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Network output (..., B) at the (..., B, 4) ``inputs``; a (R, 6N + 1) stack of networks
    gives (R, B), from (B, 4) inputs or its own (R, B, 4)."""
    W1, b1, W2, b2 = unpack(params)
    h = np.asarray(inputs, dtype=float) @ W1.swapaxes(-1, -2)
    h += b1[..., None, :]  # in place: h is the largest array
    return (np.tanh(h, out=h) @ W2[..., None])[..., 0] + b2[..., None]


def _with_ones(inputs: np.ndarray) -> np.ndarray:
    """(..., 4) inputs with the ones column of the bias b1 appended; (..., 5) pass through."""
    u = np.asarray(inputs, dtype=float)
    return u if u.shape[-1] == 5 else np.concatenate([u, np.ones(u.shape[:-1] + (1,))], axis=-1)


def _wave_terms(params: np.ndarray, C: np.ndarray, c_eff: float) -> tuple[np.ndarray, ...]:
    """The wave-equation residual R (..., A) at the (..., A, 5) ones-column inputs ``C``, with
    the terms its parameter gradients reuse: WeT, the (..., 5, N) transpose of the extended
    input weights We = [W1 | b1]; the operator coefficients a; g = (We * We) @ a (..., N);
    and tanh^2 and tanh'' of the hidden layer (..., A, N). Each unit's input second
    derivatives are We_ki^2 tanh'', so R = tanh'' @ (W2 * g)."""
    W1, b1, W2, _ = unpack(params)
    We = np.concatenate([W1, b1[..., None]], axis=-1)  # (..., N, 5)
    WeT = np.ascontiguousarray(We.swapaxes(-1, -2))  # contiguous operands: faster products
    a_vec = np.array([-1.0, c_eff**2, c_eff**2, c_eff**2, 0.0])  # the bias column: 0
    g = (We * We) @ a_vec  # (..., N) signed quadratic form of input weights
    Hc = np.tanh(C @ WeT)
    Hc2 = Hc * Hc
    hpp = -2.0 * Hc * (1.0 - Hc2)
    R = (hpp @ (W2 * g)[..., None])[..., 0]  # (..., A)
    return WeT, a_vec, g, Hc2, hpp, R


def pde_residual(params: np.ndarray, inputs: np.ndarray, c_eff: float) -> np.ndarray:
    """Wave-equation residual c_eff^2 * Laplacian - d^2/dtau^2 at each of the (..., B, 4)
    ``inputs``; (..., B), the leading axes those of a stack of networks."""
    if c_eff <= 0:
        raise ValueError("c_eff must be positive")
    return _wave_terms(params, _with_ones(inputs), c_eff)[-1]


def loss_and_grads(
    params: np.ndarray,
    mic_inputs: np.ndarray,  # (B, 4), or (B, 5) with the ones column
    mic_targets: np.ndarray,  # (B,)
    colloc_inputs: np.ndarray,  # (A, 4) or (A, 5); (R, A, .) for a stack of R networks
    pde_weight: float,
    c_eff: float,
) -> tuple[float | np.ndarray, float | np.ndarray, np.ndarray]:
    """Data + PDE loss and its exact parameter gradients.

    Returns (L_data, L_pde, grads) where grads has the shape and layout of the
    parameters and differentiates L_data + pde_weight * L_pde; for a stack of R
    networks the losses are (R,). The bias b1 is the weight of a ones input column,
    so one product gives the gradients of W1 and b1 together.
    """
    C = _with_ones(colloc_inputs)
    WeT, a_vec, g, Hc2, hpp, R = _wave_terms(params, C, c_eff)
    _, _, W2, b2 = unpack(params)

    # data term: mean squared error at the measured points, in place over (..., B, N)
    U = _with_ones(mic_inputs)
    H = U @ WeT
    np.tanh(H, out=H)
    pred = (H @ W2[..., None])[..., 0] + b2[..., None]
    resid = pred - mic_targets
    L_data = np.mean(resid**2, axis=-1)
    dLdp = 2.0 * resid / U.shape[-2]
    gW2 = (dLdp[..., None, :] @ H)[..., 0, :]
    gb2 = dLdp.sum(axis=-1, keepdims=True)
    H *= H
    np.subtract(1.0, H, out=H)  # tanh' = 1 - tanh^2
    gWeT = W2[..., None, :] * ((np.ascontiguousarray(U.T) * dLdp[..., None, :]) @ H)  # (..., 5, N)

    # PDE term: mean squared wave-equation residual at collocation points
    hppp = -2.0 + 8.0 * Hc2 - 6.0 * Hc2 * Hc2
    L_pde = np.mean(R**2, axis=-1)
    dLdR = 2.0 * R / C.shape[-2]
    T = (dLdR[..., None, :] @ hpp)[..., 0, :]  # (..., N)
    gW2 += pde_weight * T * g
    gWeT += pde_weight * (
        (W2 * g)[..., None, :] * (C.swapaxes(-1, -2) @ (dLdR[..., None] * hppp))
        + (W2 * T)[..., None, :] * 2.0 * a_vec[:, None] * WeT
    )

    gW1 = gWeT[..., :4, :].swapaxes(-1, -2).reshape(*gW2.shape[:-1], -1)  # row-major (N, 4)
    return L_data, L_pde, np.concatenate([gW1, gWeT[..., 4, :], gW2, gb2], axis=-1)


def adam_step(
    params: np.ndarray, grads: np.ndarray, moments: np.ndarray, t: int, lr: float
) -> np.ndarray:
    """Bias-corrected Adam update number ``t``, counting from 1, with step size ``lr``,
    elementwise on the whole parameter array (any leading restart axis). Updates ``params``
    and their first and second ``moments``, a (2, ...) stack shaped like them, in place:
    returns ``params``."""
    beta1, beta2 = ADAM_BETA1, ADAM_BETA2
    m, v = moments
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * np.square(grads)
    step = lr * (m / (1.0 - beta1**t))  # lr * m_hat / (sqrt(v_hat) + eps), in that order
    step /= np.sqrt(v / (1.0 - beta2**t)) + ADAM_EPS
    params -= step
    return params


def make_collocation_positions(scenario: ScenarioConfig, seed: int) -> np.ndarray:
    """The Q mic positions, then COLLOCATION_COUNT - Q seeded samples of the ball of radius
    scenario.mic_radius, none when the mics are that many; (max(COLLOCATION_COUNT, Q), 3)."""
    mics = scenario.monitoring_positions
    extra = max(COLLOCATION_COUNT - len(mics), 0)
    return np.vstack([mics, ball_points(scenario.mic_radius, extra, seed=seed)])


def _grid_inputs(tau: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(P * T, 4) network inputs: the T times ``tau`` at each of the (P, 3) points in turn."""
    inputs = np.empty((len(points), len(tau), 4))
    inputs[..., 0] = tau
    inputs[..., 1:] = np.asarray(points, dtype=float)[:, None, :]
    return inputs.reshape(-1, 4)


VALIDATION_SEED_OFFSET = 104_729
VALIDATION_POINTS = 200
PDE_SCORE_WEIGHT = 1e-6


def train_pinn(
    scenario: ScenarioConfig,
    mic_signals: np.ndarray,
    cfg: TrainConfig,
) -> tuple[np.ndarray, TrainReport]:
    """Adam training on the data + PDE loss; deterministic per cfg.seed.

    Fits ``mic_signals``, one fundamental period (Q, P) of the tonal field at the Q mics
    (the signals are periodic, so nothing is lost and the narrow time window keeps the
    oscillation count within reach of the small network). Targets are RMS-normalized during
    training and the output layer rescaled afterwards, so the fit is invariant
    to the source level. The cfg.restarts seeds train together as one stack,
    each with its own initial weights, collocation points and time draws, and
    the one with the lowest data loss + interior wave-equation residual
    penalty is kept; the residual term rejects seeds that fit the mic samples
    but oscillate between them. A restart whose loss goes non-finite is left
    out of the selection; DivergenceDetected only when every restart does.
    """
    targets = np.asarray(mic_signals, dtype=float)
    period = scenario.period_samples
    if targets.shape != (len(scenario.monitoring_positions), period):
        raise ValueError(f"need one period per monitoring microphone, got {targets.shape}")
    fs = scenario.sample_rate
    tau, scale = time_axis(period, fs)
    c_eff = scenario.speed_of_sound / scale

    # summed in one fixed (column-major) order, whatever the layout of mic_signals
    rms = float(np.sqrt(np.mean(np.ascontiguousarray(targets.T) ** 2))) or 1.0
    inputs = _with_ones(_grid_inputs(tau, scenario.monitoring_positions))  # (B, 5)
    targets_flat = targets.ravel() / rms

    seeds = range(cfg.seed, cfg.seed + cfg.restarts)
    params = np.stack([glorot_init(s) for s in seeds])
    unpack(params)[0][..., 0] *= TIME_SCALE  # resolve the tones' time oscillation at init
    xyz = [make_collocation_positions(scenario, s) for s in seeds]
    A = len(xyz[0])
    colloc = np.ones((cfg.restarts, A, 5))  # tau (redrawn every epoch), x, y, z, 1
    colloc[..., 1:4] = xyz
    rngs = [default_rng(s) for s in seeds]
    moments = np.zeros((2, *params.shape))
    history = []
    if cfg.epochs == 0:  # no epoch records the fit: the untrained network's data loss
        final = loss_and_grads(params, inputs, targets_flat, colloc, 0.0, c_eff)[0]
    diverged: dict[int, int] = {}  # restart -> first epoch with a non-finite loss

    lr_ratio = LEARNING_RATE_END / LEARNING_RATE
    lam_ratio = PDE_WEIGHT_END / PDE_WEIGHT if PDE_WEIGHT > 0 else 1.0
    denom = max(cfg.epochs - 1, 1)
    with np.errstate(all="ignore"):  # a diverging restart stays in its own slice
        for epoch in range(cfg.epochs):
            frac = epoch / denom
            lr = LEARNING_RATE * lr_ratio**frac
            lam = PDE_WEIGHT * lam_ratio**frac
            for r, rng in enumerate(rngs):
                colloc[r, :, 0] = rng.uniform(-TIME_HALF_RANGE, TIME_HALF_RANGE, size=A)
            L_data, L_pde, grads = loss_and_grads(params, inputs, targets_flat, colloc, lam, c_eff)
            for r in np.flatnonzero(~(np.isfinite(L_data) & np.isfinite(L_pde))):
                diverged.setdefault(int(r), epoch)
            if len(diverged) == cfg.restarts:
                raise DivergenceDetected(f"non-finite loss in every restart by epoch {epoch}")
            adam_step(params, grads, moments, epoch + 1, lr)
            if epoch % 100 == 0:
                history.append((epoch, L_data, L_pde))
            final = L_data

        # held-out interior points for the restart-selection residual score
        val_seed = cfg.seed + VALIDATION_SEED_OFFSET
        val_rng = default_rng(val_seed)
        val_xyz = ball_points(scenario.mic_radius, VALIDATION_POINTS, seed=val_seed)
        val_tau = val_rng.uniform(-TIME_HALF_RANGE, TIME_HALF_RANGE, size=VALIDATION_POINTS)
        val_points = np.column_stack([val_tau, val_xyz])
        resid = pde_residual(params, val_points, c_eff)  # (restarts, VALIDATION_POINTS)
        scores = final + PDE_SCORE_WEIGHT * np.mean(resid**2, axis=-1)
    scores = [None if r in diverged else float(s) for r, s in enumerate(scores)]
    best = min((s, r) for r, s in enumerate(scores) if s is not None)[1]
    history = [(e, float(d[best]), float(p[best])) for e, d, p in history]
    report = TrainReport(history, float(final[best]), scores, best, sorted(diverged.items()))
    params = params[best].copy()  # not a view
    _, _, W2, b2 = unpack(params)
    W2 *= rms  # undo the target normalization: the output layer is linear
    b2 *= rms
    return params, report


def pinn_predict(
    params: np.ndarray,
    points: np.ndarray,
    period: int,
    sample_rate: float,
) -> np.ndarray:
    """The network's signal over one period at each of the (R, 3) points; (R, period).

    The network models one period, ``period`` samples, of a periodic field: it is evaluated
    on that period's time_axis, in blocks of PREDICT_BLOCK_ROWS inputs. Blocks start at
    multiples of it and none is one row (numpy rounds a one-row product otherwise), so
    outputs are bitwise one single-threaded pass's.
    """
    tau, _ = time_axis(period, sample_rate)
    out = np.empty(len(points) * period)
    bounds = [0, *range(PREDICT_BLOCK_ROWS, out.size - 1, PREDICT_BLOCK_ROWS), out.size]
    for start, stop in zip(bounds, bounds[1:]):
        skip = start % period  # rows of its first point that the previous block evaluated
        grid = _grid_inputs(tau, points[start // period : -(-stop // period)])
        out[start:stop] = mlp_forward(params, grid[skip : skip + stop - start])
    return out.reshape(len(points), period)


def save_params(params: np.ndarray, period: int, sample_rate: float, path: str | Path):
    """Flat text format: N, row-major W1, b1, W2, b2, then the time map's constants: the
    duration of the ``period`` samples at ``sample_rate`` and TIME_HALF_RANGE."""
    values = [*params, period / sample_rate, TIME_HALF_RANGE]
    hidden = str(len(unpack(params)[1]))
    Path(path).write_text("\n".join([hidden, *(f"{v:.17g}" for v in values)]) + "\n")


def load_params(path: str | Path, period: int, sample_rate: float) -> np.ndarray:
    """The parameters save_params wrote to ``path``; ValueError naming it unless it holds
    6N + 4 lines, N >= 1 on the first, all finite, and a time map of ``period`` samples at
    ``sample_rate`` and TIME_HALF_RANGE."""
    lines = Path(path).read_text().splitlines()
    try:
        n = int(lines[0]) if lines else 0
        values = np.array([float(v) for v in lines[1:]])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if n < 1 or len(lines) != 6 * n + 4:
        raise ValueError(f"{path}: {len(lines)} lines for N = {n}; a model has 6N + 4, N >= 1")
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: line {np.argmin(np.isfinite(values)) + 2} is not finite")
    duration, half_range = values[-2:].tolist()
    if duration != period / sample_rate:
        raise ValueError(f"{path}: a period of {duration!r} s, not {period} / {sample_rate} s")
    if half_range != TIME_HALF_RANGE:
        raise ValueError(f"{path}: time half-range {half_range!r}, not {TIME_HALF_RANGE}")
    return values[:-2]
