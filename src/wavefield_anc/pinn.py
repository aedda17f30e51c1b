"""Physics-informed interpolator: a (tau, x, y, z) -> pressure tanh MLP.

One hidden layer, closed-form derivatives throughout: input second derivatives
for the wave-equation residual, and exact parameter gradients of the combined
data + PDE loss (third-order chain rule through tanh).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DivergenceDetected
from .geometry import ball_points
from .scenario import MIC_RADIUS, ScenarioConfig

TIME_HALF_RANGE = 0.15  # physical time maps onto [-0.15, 0.15], like the coordinates
HIDDEN = 16
COLLOCATION_COUNT = 100  # mic positions plus ball-sampled points
TIME_SCALE = 100.0  # init multiplier on the time column of W1
LEARNING_RATE = 1e-2  # decays geometrically to LEARNING_RATE_END over the epochs
LEARNING_RATE_END = 1e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MlpParams:
    """Weights of the 4-input, one-hidden-layer tanh network, or of a stack of R
    networks with a leading restart axis on every field."""

    W1: np.ndarray  # (N, 4) or (R, N, 4)
    b1: np.ndarray  # (N,) or (R, N)
    W2: np.ndarray  # (N,) or (R, N)
    b2: float | np.ndarray  # float or (R,)

    @property
    def hidden(self) -> int:
        return self.W1.shape[-2]

    def __iter__(self):
        return iter((self.W1, self.b1, self.W2, self.b2))

    def __getitem__(self, r: int) -> "MlpParams":
        """Network ``r`` of a stack."""
        return MlpParams(*(f[r] for f in self))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.W1.ravel(), self.b1, self.W2, [self.b2]])

    @staticmethod
    def from_vector(vec: np.ndarray, hidden: int) -> "MlpParams":
        n = hidden
        W1, b1, W2 = vec[: 4 * n].reshape(n, 4), vec[4 * n : 5 * n], vec[5 * n : 6 * n]
        return MlpParams(W1.copy(), b1.copy(), W2.copy(), float(vec[6 * n]))


@dataclass(frozen=True)
class NormSpec:
    """Affine map from physical time [0, duration] onto the network time axis."""

    duration: float
    half_range: float = TIME_HALF_RANGE

    @property
    def scale(self) -> float:
        """d(tau)/dt."""
        return 2.0 * self.half_range / self.duration

    def to_tau(self, t) -> np.ndarray:
        return np.asarray(t) * self.scale - self.half_range

    def c_eff(self, c: float) -> float:
        """Wave speed in (tau, meters) coordinates: c * dt/dtau."""
        return c / self.scale


@dataclass
class TrainConfig:
    """Training schedule.

    The learning rate decays geometrically from LEARNING_RATE to
    LEARNING_RATE_END and the PDE weight ramps geometrically from
    ``pde_weight`` to ``pde_weight_end`` over the epoch budget. ``restarts``
    independent seeds are trained and the winner is picked by data loss plus a
    small interior wave-equation residual penalty (spatial-overfit guard).
    """

    epochs: int = 50_000
    pde_weight: float = 3e-8
    pde_weight_end: float = 3e-7
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.pde_weight < 0 or self.pde_weight_end < 0 or self.restarts < 1:
            raise ValueError("bad training configuration")


@dataclass
class AdamState:
    m: MlpParams
    v: MlpParams
    t: int = 0

    @staticmethod
    def zeros(params: MlpParams) -> "AdamState":
        zero = MlpParams(*(np.zeros_like(f) for f in params))
        return AdamState(zero, zero, 0)


@dataclass
class TrainReport:
    history: list[tuple[int, float, float]] = field(default_factory=list)  # epoch, L_data, L_pde
    initial_data_loss: float = 0.0
    final_data_loss: float = 0.0
    norm: NormSpec | None = None  # time map the winning model was trained under
    restart_scores: list[float | None] = field(default_factory=list)  # None: diverged
    best_restart: int = 0
    diverged_restarts: list[tuple[int, int]] = field(default_factory=list)  # restart, epoch


def glorot_init(seed: int, N: int = HIDDEN) -> MlpParams:
    """Glorot-normal weights (std sqrt(2/(fan_in+fan_out))), zero biases."""
    if N < 1:
        raise ValueError("need at least one hidden unit")
    rng = np.random.default_rng(seed)
    W1 = rng.normal(0.0, np.sqrt(2.0 / (4 + N)), size=(N, 4))
    W2 = rng.normal(0.0, np.sqrt(2.0 / (N + 1)), size=N)
    return MlpParams(W1=W1, b1=np.zeros(N), W2=W2, b2=0.0)


def mlp_forward(params: MlpParams, inputs: np.ndarray) -> np.ndarray:
    """Network output for inputs of shape (B, 4) or (4,)."""
    u = np.atleast_2d(np.asarray(inputs, dtype=float))
    h = u @ params.W1.T
    h += params.b1  # in place: h is the largest array
    out = np.tanh(h, out=h) @ params.W2 + params.b2
    return out if np.asarray(inputs).ndim > 1 else float(out[0])


def mlp_second_derivs(params: MlpParams, inputs: np.ndarray) -> np.ndarray:
    """Pure second partials wrt each of the four inputs; shape (B, 4) or (4,)."""
    u = np.atleast_2d(np.asarray(inputs, dtype=float))
    h = np.tanh(u @ params.W1.T + params.b1)
    hpp = -2.0 * h * (1.0 - h * h)  # tanh''
    d2 = (params.W2 * hpp) @ (params.W1**2)  # (B, 4)
    return d2 if np.asarray(inputs).ndim > 1 else d2[0]


def pde_residual(params: MlpParams, inputs: np.ndarray, c_eff: float) -> np.ndarray | float:
    """Wave-equation residual c_eff^2 * Laplacian - d^2/dtau^2 at each input."""
    if c_eff <= 0:
        raise ValueError("c_eff must be positive")
    d2 = np.atleast_2d(mlp_second_derivs(params, inputs))
    res = c_eff**2 * d2[:, 1:].sum(axis=1) - d2[:, 0]
    return res if np.asarray(inputs).ndim > 1 else float(res[0])


def _with_ones(inputs: np.ndarray) -> np.ndarray:
    """(..., 4) inputs with the ones column of the bias b1 appended; (..., 5) pass through."""
    u = np.asarray(inputs, dtype=float)
    return u if u.shape[-1] == 5 else np.concatenate([u, np.ones(u.shape[:-1] + (1,))], axis=-1)


def loss_and_grads(
    params: MlpParams,
    mic_inputs: np.ndarray,  # (B, 4), or (B, 5) with the ones column
    mic_targets: np.ndarray,  # (B,)
    colloc_inputs: np.ndarray,  # (A, 4) or (A, 5); (R, A, .) for a stack of R networks
    pde_weight: float,
    c_eff: float,
) -> tuple[float | np.ndarray, float | np.ndarray, MlpParams]:
    """Data + PDE loss and its exact parameter gradients.

    Returns (L_data, L_pde, grads) where grads has the shape of the parameters
    and differentiates L_data + pde_weight * L_pde; for a stack of R networks
    the losses are (R,). The bias b1 is the weight of a ones input column, so
    one product gives the gradients of W1 and b1 together.
    """
    We = np.concatenate([params.W1, params.b1[..., None]], axis=-1)  # (..., N, 5)
    WeT = We.swapaxes(-1, -2)
    W2 = params.W2

    # data term: mean squared error at the measured points, in place over (..., B, N)
    U = _with_ones(mic_inputs)
    H = U @ WeT
    np.tanh(H, out=H)
    pred = (H @ W2[..., None])[..., 0] + np.asarray(params.b2)[..., None]
    resid = pred - mic_targets
    L_data = np.mean(resid**2, axis=-1)
    dLdp = 2.0 * resid / U.shape[-2]
    gW2 = (dLdp[..., None, :] @ H)[..., 0, :]
    gb2 = dLdp.sum(axis=-1)
    H *= H
    np.subtract(1.0, H, out=H)  # tanh' = 1 - tanh^2
    gWeT = W2[..., None, :] * ((U.T * dLdp[..., None, :]) @ H)  # (..., 5, N)

    # PDE term: mean squared wave-equation residual at collocation points
    C = _with_ones(colloc_inputs)
    a_vec = np.array([-1.0, c_eff**2, c_eff**2, c_eff**2, 0.0])  # the bias column: 0
    g = (We * We) @ a_vec  # (..., N) signed quadratic form of input weights
    Hc = np.tanh(C @ WeT)
    Hc2 = Hc * Hc
    hpp = -2.0 * Hc * (1.0 - Hc2)
    hppp = -2.0 + 8.0 * Hc2 - 6.0 * Hc2 * Hc2
    R = (hpp @ (W2 * g)[..., None])[..., 0]  # (..., A)
    L_pde = np.mean(R**2, axis=-1)
    dLdR = 2.0 * R / C.shape[-2]
    T = (dLdR[..., None, :] @ hpp)[..., 0, :]  # (..., N)
    gW2 += pde_weight * T * g
    gWeT += pde_weight * (
        (W2 * g)[..., None, :] * (C.swapaxes(-1, -2) @ (dLdR[..., None] * hppp))
        + (W2 * T)[..., None, :] * 2.0 * a_vec[:, None] * WeT
    )

    gWe = gWeT.swapaxes(-1, -2)
    return L_data, L_pde, MlpParams(gWe[..., :4], gWe[..., 4], gW2, gb2)


def adam_step(
    params: MlpParams, grads: MlpParams, state: AdamState, lr: float
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update with step size ``lr``, elementwise on every
    parameter array (any leading restart axis)."""
    t = state.t + 1
    beta1, beta2 = ADAM_BETA1, ADAM_BETA2
    new = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g**2
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new.append((p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v))
    p, m, v = (MlpParams(*f) for f in zip(*new))
    return p, AdamState(m, v, t)


def make_collocation_positions(
    scenario: ScenarioConfig, count: int, seed: int
) -> np.ndarray:
    """Mic positions plus seeded ball samples inside the monitoring sphere; (count, 3)."""
    mics = scenario.monitoring_positions
    extra = count - len(mics)
    if extra < 0:
        raise ValueError("collocation count smaller than the mic count")
    return np.vstack([mics, ball_points(MIC_RADIUS, extra, seed=seed)])


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
) -> tuple[MlpParams, TrainReport]:
    """Adam training on the data + PDE loss; deterministic per cfg.seed.

    Fits one fundamental period of the tonal field (the signals are periodic,
    so nothing is lost and the narrow time window keeps the oscillation count
    within reach of the small network). Targets are RMS-normalized during
    training and the output layer rescaled afterwards, so the fit is invariant
    to the source level. The cfg.restarts seeds train together as one stack,
    each with its own initial weights, collocation points and time draws, and
    the one with the lowest data loss + interior wave-equation residual
    penalty is kept; the residual term rejects seeds that fit the mic samples
    but oscillate between them. A restart whose loss goes non-finite is left
    out of the selection; DivergenceDetected only when every restart does.
    """
    mic_signals = np.asarray(mic_signals, dtype=float)
    if mic_signals.ndim != 2 or len(mic_signals) != len(scenario.monitoring_positions):
        raise ValueError("need one signal row per monitoring microphone")
    period = scenario.period_samples
    if mic_signals.shape[1] < period:
        raise ValueError("mic signals shorter than one fundamental period")
    fs = scenario.sample_rate
    norm = NormSpec(period / fs)
    c_eff = norm.c_eff(scenario.speed_of_sound)

    targets = mic_signals[:, :period]
    rms = float(np.sqrt(np.mean(targets**2))) or 1.0
    tau = norm.to_tau(np.arange(period) / fs)
    inputs = _with_ones(_grid_inputs(tau, scenario.monitoring_positions))  # (B, 5)
    targets_flat = targets.ravel() / rms

    seeds, A = range(cfg.seed, cfg.seed + cfg.restarts), COLLOCATION_COUNT
    params = MlpParams(*(np.stack(f) for f in zip(*(glorot_init(s) for s in seeds))))
    params.W1[..., 0] *= TIME_SCALE  # resolve the tones' time oscillation at init
    colloc = np.ones((cfg.restarts, A, 5))  # tau (redrawn every epoch), x, y, z, 1
    colloc[..., 1:4] = [make_collocation_positions(scenario, A, s) for s in seeds]
    rngs = [np.random.default_rng(s) for s in seeds]
    state = AdamState.zeros(params)
    history = []
    initial = final = np.zeros(cfg.restarts)
    diverged: dict[int, int] = {}  # restart -> first epoch with a non-finite loss

    lr_ratio = LEARNING_RATE_END / LEARNING_RATE
    lam_ratio = cfg.pde_weight_end / cfg.pde_weight if cfg.pde_weight > 0 else 1.0
    denom = max(cfg.epochs - 1, 1)
    with np.errstate(all="ignore"):  # a diverging restart stays in its own slice
        for epoch in range(cfg.epochs):
            frac = epoch / denom
            lr = LEARNING_RATE * lr_ratio**frac
            lam = cfg.pde_weight * lam_ratio**frac
            for r, rng in enumerate(rngs):
                colloc[r, :, 0] = rng.uniform(-norm.half_range, norm.half_range, size=A)
            L_data, L_pde, grads = loss_and_grads(params, inputs, targets_flat, colloc, lam, c_eff)
            for r in np.flatnonzero(~(np.isfinite(L_data) & np.isfinite(L_pde))):
                diverged.setdefault(int(r), epoch)
            if len(diverged) == cfg.restarts:
                raise DivergenceDetected(f"non-finite loss in every restart by epoch {epoch}")
            if epoch == 0:
                initial = L_data
            params, state = adam_step(params, grads, state, lr)
            if epoch % 100 == 0:
                history.append((epoch, L_data, L_pde))
            final = L_data

        # held-out interior points for the restart-selection residual score
        val_rng = np.random.default_rng(cfg.seed + VALIDATION_SEED_OFFSET)
        val_xyz = ball_points(MIC_RADIUS, VALIDATION_POINTS, seed=cfg.seed + VALIDATION_SEED_OFFSET)
        val_tau = val_rng.uniform(-norm.half_range, norm.half_range, size=VALIDATION_POINTS)
        val_points = np.column_stack([val_tau, val_xyz])
        resid = np.stack([pde_residual(params[r], val_points, c_eff) for r in range(cfg.restarts)])
        scores = final + PDE_SCORE_WEIGHT * np.mean(resid**2, axis=-1)
    scores = [None if r in diverged else float(s) for r, s in enumerate(scores)]
    best = min((s, r) for r, s in enumerate(scores) if s is not None)[1]
    history = [(e, float(d[best]), float(p[best])) for e, d, p in history]
    report = TrainReport(history, float(initial[best]), float(final[best]), norm, scores, best)
    report.diverged_restarts = sorted(diverged.items())
    params = params[best]
    # undo the target normalization; the output layer is linear in (W2, b2)
    params.W2 *= rms
    params.b2 *= rms
    return params, report


def pinn_predict(
    params: MlpParams,
    norm: NormSpec,
    points: np.ndarray,
    sample_rate: float,
    num_samples: int,
) -> np.ndarray:
    """The network's signal at each of the (P, 3) points; (P, num_samples).

    The network models one period, ``norm.duration``, of a periodic field: it is
    evaluated on that period's time grid and repeated to ``num_samples``.
    """
    period = round(norm.duration * sample_rate)
    inputs = _grid_inputs(norm.to_tau(np.arange(period) / sample_rate), points)
    one_period = mlp_forward(params, inputs).reshape(len(points), period)
    return np.tile(one_period, -(-num_samples // period))[:, :num_samples]


def save_params(params: MlpParams, norm: NormSpec, path: str | Path):
    """Flat text format: N, row-major W1, b1, W2, b2, then the time-map constants."""
    lines = [str(params.hidden)]
    for v in params.to_vector():
        lines.append(f"{v:.17g}")
    lines.append(f"{norm.duration:.17g}")
    lines.append(f"{norm.half_range:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_params(path: str | Path) -> tuple[MlpParams, NormSpec]:
    lines = Path(path).read_text().split()
    n = int(lines[0])
    dim = 6 * n + 1
    vec = np.array([float(v) for v in lines[1 : 1 + dim]])
    duration, half_range = float(lines[1 + dim]), float(lines[2 + dim])
    return MlpParams.from_vector(vec, n), NormSpec(duration, half_range)
