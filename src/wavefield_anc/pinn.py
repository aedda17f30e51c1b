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


@dataclass
class MlpParams:
    """Weights of the 4-input, one-hidden-layer tanh network."""

    W1: np.ndarray  # (N, 4)
    b1: np.ndarray  # (N,)
    W2: np.ndarray  # (N,)
    b2: float

    @property
    def hidden(self) -> int:
        return self.W1.shape[0]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.W1.ravel(), self.b1, self.W2, [self.b2]])

    @staticmethod
    def from_vector(vec: np.ndarray, hidden: int) -> "MlpParams":
        n = hidden
        return MlpParams(
            W1=vec[: 4 * n].reshape(n, 4).copy(),
            b1=vec[4 * n : 5 * n].copy(),
            W2=vec[5 * n : 6 * n].copy(),
            b2=float(vec[6 * n]),
        )

    def copy(self) -> "MlpParams":
        return MlpParams(self.W1.copy(), self.b1.copy(), self.W2.copy(), self.b2)


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

    The learning rate decays geometrically from ``learning_rate`` to
    ``learning_rate_end`` and the PDE weight ramps geometrically from
    ``pde_weight`` to ``pde_weight_end`` over the epoch budget. ``restarts``
    independent seeds are trained and the winner is picked by data loss plus a
    small interior wave-equation residual penalty (spatial-overfit guard).
    """

    epochs: int = 50_000
    learning_rate: float = 1e-2
    learning_rate_end: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    pde_weight: float = 3e-8
    pde_weight_end: float = 3e-7
    hidden: int = 16
    collocation_count: int = 100  # mic positions plus ball-sampled points
    restarts: int = 3
    time_scale: float = 100.0  # init multiplier on the time column of W1
    seed: int = 0
    c_eff: float | None = None  # None: derive from the scenario and NormSpec

    def __post_init__(self):
        if self.epochs < 0 or self.learning_rate <= 0 or self.learning_rate_end <= 0:
            raise ValueError("bad training configuration")
        if self.pde_weight < 0 or self.pde_weight_end < 0 or self.restarts < 1:
            raise ValueError("bad training configuration")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros(dim: int) -> "AdamState":
        return AdamState(np.zeros(dim), np.zeros(dim), 0)


@dataclass
class TrainReport:
    history: list[tuple[int, float, float]] = field(default_factory=list)  # epoch, L_data, L_pde
    initial_data_loss: float = 0.0
    final_data_loss: float = 0.0
    norm: NormSpec | None = None  # time map the winning model was trained under
    restart_scores: list[float] = field(default_factory=list)
    best_restart: int = 0


def glorot_init(seed: int, N: int = 16) -> MlpParams:
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


def loss_and_grads(
    params: MlpParams,
    mic_inputs: np.ndarray,  # (B, 4)
    mic_targets: np.ndarray,  # (B,)
    colloc_inputs: np.ndarray,  # (A, 4)
    pde_weight: float,
    c_eff: float,
) -> tuple[float, float, MlpParams]:
    """Data + PDE loss and its exact parameter gradients.

    Returns (L_data, L_pde, grads) where grads has the shape of the parameters
    and differentiates L_data + pde_weight * L_pde.
    """
    W1, b1, W2 = params.W1, params.b1, params.W2
    gW1 = np.zeros_like(W1)
    gb1 = np.zeros_like(b1)
    gW2 = np.zeros_like(W2)
    gb2 = 0.0

    # data term: mean squared error at the measured points
    U = np.atleast_2d(mic_inputs)
    tgt = np.asarray(mic_targets, dtype=float)
    B = U.shape[0]
    H = np.tanh(U @ W1.T + b1)
    pred = H @ W2 + params.b2
    resid = pred - tgt
    L_data = float(np.mean(resid**2))
    dLdp = 2.0 * resid / B
    gW2 += H.T @ dLdp
    gb2 += float(dLdp.sum())
    delta = dLdp[:, None] * W2 * (1.0 - H * H)  # (B, N)
    gb1 += delta.sum(axis=0)
    gW1 += delta.T @ U

    # PDE term: mean squared wave-equation residual at collocation points
    C = np.atleast_2d(colloc_inputs)
    A = C.shape[0]
    a_vec = np.array([-1.0, c_eff**2, c_eff**2, c_eff**2])
    g = (W1**2) @ a_vec  # (N,) signed quadratic form of input weights
    Hc = np.tanh(C @ W1.T + b1)
    Hc2 = Hc * Hc
    hpp = -2.0 * Hc * (1.0 - Hc2)
    hppp = -2.0 + 8.0 * Hc2 - 6.0 * Hc2 * Hc2
    R = hpp @ (W2 * g)  # (A,)
    L_pde = float(np.mean(R**2))
    dLdR = 2.0 * R / A
    lam = pde_weight
    gW2 += lam * (dLdR @ hpp) * g
    S = dLdR @ hppp  # (N,) weighted tanh''' sums
    T = dLdR @ hpp
    gb1 += lam * W2 * S * g
    gW1 += lam * (
        (W2 * g)[:, None] * ((dLdR[:, None] * hppp).T @ C)
        + (W2 * T)[:, None] * 2.0 * a_vec[None, :] * W1
    )

    grads = MlpParams(gW1, gb1, gW2, gb2)
    return L_data, L_pde, grads


def adam_step(
    params: MlpParams,
    grads: MlpParams,
    state: AdamState,
    cfg: TrainConfig,
    learning_rate: float | None = None,
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update; ``learning_rate`` overrides the config."""
    lr = cfg.learning_rate if learning_rate is None else learning_rate
    p = params.to_vector()
    gvec = grads.to_vector()
    t = state.t + 1
    m = cfg.adam_beta1 * state.m + (1.0 - cfg.adam_beta1) * gvec
    v = cfg.adam_beta2 * state.v + (1.0 - cfg.adam_beta2) * gvec**2
    m_hat = m / (1.0 - cfg.adam_beta1**t)
    v_hat = v / (1.0 - cfg.adam_beta2**t)
    p = p - lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return MlpParams.from_vector(p, params.hidden), AdamState(m, v, t)


def make_collocation_positions(
    scenario: ScenarioConfig, count: int, seed: int
) -> np.ndarray:
    """Mic positions plus seeded ball samples inside the monitoring sphere; (count, 3)."""
    mics = scenario.monitoring_positions
    extra = count - len(mics)
    if extra < 0:
        raise ValueError("collocation count smaller than the mic count")
    return np.vstack([mics, ball_points(MIC_RADIUS, extra, seed=seed)])


def fundamental_period_samples(scenario: ScenarioConfig) -> int:
    """Samples in one period of the tone set's greatest common divisor frequency.

    Falls back to the full scenario length when the frequencies are not close
    to integers (no usable common period).
    """
    freqs = [c.frequency for c in scenario.primary_source.components]
    rounded = [int(round(f)) for f in freqs]
    if any(r <= 0 or abs(f - r) > 1e-9 for f, r in zip(freqs, rounded)):
        return scenario.num_samples
    fund = int(np.gcd.reduce(rounded))
    return min(round(scenario.sample_rate / fund), scenario.num_samples)


def periodic_extension(block: np.ndarray, n: int) -> np.ndarray:
    """The (..., B) one-period signals repeated along their last axis to n samples."""
    reps = int(np.ceil(n / block.shape[-1]))
    return np.tile(block, reps)[..., :n]


def _grid_inputs(tau: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(P * T, 4) network inputs: the T times ``tau`` at each of the (P, 3) points in turn."""
    inputs = np.empty((len(points), len(tau), 4))
    inputs[..., 0] = tau
    inputs[..., 1:] = np.asarray(points, dtype=float)[:, None, :]
    return inputs.reshape(-1, 4)


VALIDATION_SEED_OFFSET = 104_729
VALIDATION_POINTS = 200
PDE_SCORE_WEIGHT = 1e-6


def _train_single(
    seed: int,
    cfg: TrainConfig,
    scenario: ScenarioConfig,
    norm: NormSpec,
    inputs: np.ndarray,
    targets_flat: np.ndarray,
    c_eff: float,
) -> tuple[MlpParams, TrainReport]:
    params = glorot_init(seed, cfg.hidden)
    params.W1[:, 0] *= cfg.time_scale  # resolve the tones' time oscillation at init
    colloc_xyz = make_collocation_positions(scenario, cfg.collocation_count, seed)
    A = colloc_xyz.shape[0]
    rng = np.random.default_rng(seed)
    state = AdamState.zeros(params.to_vector().size)
    report = TrainReport(norm=norm)

    lr_ratio = cfg.learning_rate_end / cfg.learning_rate
    lam_ratio = cfg.pde_weight_end / cfg.pde_weight if cfg.pde_weight > 0 else 1.0
    denom = max(cfg.epochs - 1, 1)
    for epoch in range(cfg.epochs):
        frac = epoch / denom
        lr = cfg.learning_rate * lr_ratio**frac
        lam = cfg.pde_weight * lam_ratio**frac
        colloc_tau = rng.uniform(-norm.half_range, norm.half_range, size=A)
        colloc = np.column_stack([colloc_tau, colloc_xyz])
        L_data, L_pde, grads = loss_and_grads(params, inputs, targets_flat, colloc, lam, c_eff)
        if not (np.isfinite(L_data) and np.isfinite(L_pde)):
            raise DivergenceDetected(f"non-finite loss at epoch {epoch}")
        if epoch == 0:
            report.initial_data_loss = L_data
        params, state = adam_step(params, grads, state, cfg, learning_rate=lr)
        if epoch % 100 == 0:
            report.history.append((epoch, L_data, L_pde))
        report.final_data_loss = L_data
    return params, report


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
    to the source level. Runs cfg.restarts seeds and keeps the one with the
    lowest data loss + interior wave-equation residual penalty; the residual
    term rejects seeds that fit the mic samples but oscillate between them.
    """
    mic_signals = np.asarray(mic_signals, dtype=float)
    if mic_signals.ndim != 2 or len(mic_signals) != len(scenario.monitoring_positions):
        raise ValueError("need one signal row per monitoring microphone")
    period = fundamental_period_samples(scenario)
    if mic_signals.shape[1] < period:
        raise ValueError("mic signals shorter than one fundamental period")
    fs = scenario.sample_rate
    norm = NormSpec(period / fs)
    c_eff = cfg.c_eff if cfg.c_eff is not None else norm.c_eff(scenario.speed_of_sound)

    targets = mic_signals[:, :period]
    rms = float(np.sqrt(np.mean(targets**2)))
    if rms == 0.0:
        rms = 1.0
    inputs = _grid_inputs(norm.to_tau(np.arange(period) / fs), scenario.monitoring_positions)
    targets_flat = targets.ravel() / rms

    # held-out interior points for the restart-selection residual score
    val_rng = np.random.default_rng(cfg.seed + VALIDATION_SEED_OFFSET)
    val_xyz = ball_points(MIC_RADIUS, VALIDATION_POINTS, seed=cfg.seed + VALIDATION_SEED_OFFSET)
    val_tau = val_rng.uniform(-norm.half_range, norm.half_range, size=VALIDATION_POINTS)
    val_points = np.column_stack([val_tau, val_xyz])

    best: tuple[float, MlpParams, TrainReport] | None = None
    scores = []
    for r in range(cfg.restarts):
        params, report = _train_single(
            cfg.seed + r, cfg, scenario, norm, inputs, targets_flat, c_eff
        )
        resid = pde_residual(params, val_points, c_eff)
        score = report.final_data_loss + PDE_SCORE_WEIGHT * float(np.mean(np.asarray(resid) ** 2))
        scores.append(score)
        if best is None or score < best[0]:
            best = (score, params, report)
            best[2].best_restart = r
    _, params, report = best
    report.restart_scores = scores
    # undo the target normalization; the output layer is linear in (W2, b2)
    params.W2 *= rms
    params.b2 *= rms
    return params, report


def pinn_predict(
    params: MlpParams,
    norm: NormSpec,
    points: np.ndarray,
    sample_rate: float,
    duration: float,
) -> np.ndarray:
    """Evaluate the network on the time grid at each of the (P, 3) points; (P, T)."""
    T = round(duration * sample_rate)
    inputs = _grid_inputs(norm.to_tau(np.arange(T) / sample_rate), points)
    return mlp_forward(params, inputs).reshape(len(points), T)


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
