"""Oracle checks shared by the tests and ``validate``: acceptance criteria 4, 6 and 7, Adam.

Each function recomputes one check's figures at fixed seeds and sizes and returns
them by name. ``LIMITS`` holds the bound on each figure, which the tests assert and
``validate`` applies.
"""

from __future__ import annotations

import operator

import numpy as np

from .acoustics import TonalSource, ToneComponent, propagate_tonal
from .anc import run_anc
from .geometry import cart_to_sph, sphere_points
from .pinn import adam_step, glorot_init, loss_and_grads, mlp_forward, pde_residual
from .scenario import ScenarioConfig
from .sh import real_sh, sh_fit, spherical_bessel_j

# figure -> (comparison, bound) it must satisfy
LIMITS = {
    "gradient_max_rel_err": ("<", 1e-4),
    "wave_operator_max_rel_err": ("<", 1e-6),
    "pde_loss_rel_gap": ("<", 1e-12),
    "fxlms_converged": ("==", True),
    "fxlms_reduction_db": ("<", -40.0),
    "fxlms_zero_fixed_point": ("==", True),
    "sh_gram_max_err": ("<=", 1e-3),
    "sh_mode_coeff_err": ("<", 1e-6),
    "sh_other_coeff_max": ("<", 1e-6),
    "j1_at_1_err": ("<", 1e-6),
    "adam_scalar_err": ("<", 0.1),
}
_COMPARE = {"<": operator.lt, "<=": operator.le, "==": operator.eq}


def check(name: str, value) -> dict:
    """A figure with its bound from ``LIMITS`` and whether it meets it."""
    op, bound = LIMITS[name]
    return {"value": value, "bound": f"{op} {bound}", "pass": bool(_COMPARE[op](value, bound))}


def derivative_figures() -> dict[str, float]:
    """Criterion 4: worst relative error of the analytic loss gradients (central
    differences) and of the wave operator c^2 Laplacian - d^2/dtau^2 that ``pde_residual``
    applies (fourth-order stencil on ``mlp_forward``), and the worst relative gap between
    the PDE loss that training minimises and the mean square of ``pde_residual``."""
    rng = np.random.default_rng(17)
    worst_grad = worst_gap = 0.0
    lam, c_eff = 0.7, 2.0
    for trial in range(20):
        p = glorot_init(trial, 6)
        U = rng.normal(scale=0.5, size=(5, 4))
        tgt = rng.normal(size=5)
        C = rng.normal(scale=0.5, size=(4, 4))
        _, L_pde, grads = loss_and_grads(p, U, tgt, C, lam, c_eff)
        mean_sq = np.mean(pde_residual(p, C, c_eff) ** 2)
        worst_gap = max(worst_gap, abs(L_pde - mean_sq) / max(mean_sq, 1e-300))
        # every parameter moved by +h, then by -h: one stack of 2P networks, as training runs
        h = 1e-5
        shifts = h * np.eye(p.size)
        ld, lp, _ = loss_and_grads(np.vstack([p + shifts, p - shifts]), U, tgt, C, lam, c_eff)
        hi, lo = np.split(ld + lam * lp, 2)
        fd = (hi - lo) / (2 * h)
        rel = np.abs(fd - grads) / np.maximum(np.maximum(np.abs(fd), np.abs(grads)), 1e-8)
        worst_grad = max(worst_grad, float(rel.max()))

    worst_op, h = 0.0, 1e-3
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h**2)  # fourth-order central
    steps = np.arange(2.0, -3.0, -1.0)[:, None, None] * h * np.eye(4)  # (5 steps, 4 axes, 4)
    operator_coeffs = np.array([-1.0, c_eff**2, c_eff**2, c_eff**2])  # d^2/dtau^2, d^2/dx_i^2
    for trial in range(20):
        p = glorot_init(200 + trial, 8)
        u = rng.normal(scale=0.5, size=4)
        fd = operator_coeffs @ (stencil @ mlp_forward(p, (u + steps).reshape(-1, 4)).reshape(5, 4))
        res = pde_residual(p, u[None], c_eff)[0]
        worst_op = max(worst_op, abs(fd - res) / max(abs(fd), abs(res), 1e-6))
    return {
        "gradient_max_rel_err": float(worst_grad),
        "wave_operator_max_rel_err": float(worst_op),
        "pde_loss_rel_gap": float(worst_gap),
    }


def fxlms_figures() -> dict:
    """Criterion 6: single-channel single-tone FxLMS, sensor reduction after 5000
    steps, and whether a silent primary leaves the weights bitwise zero."""

    def control(amplitude: float, iterations: int):
        """One 400 Hz tone, controlled on its measured signal at the one mic."""
        source = TonalSource((0.6, 0.8, 1.0), (ToneComponent(400.0, amplitude, 0.3),))
        sc = ScenarioConfig(
            primary_source=source,
            secondary_positions=[(0.0, 0.5, 0.0)],
            monitoring_positions=[(0.0, 0.1, 0.0)],
            virtual_positions=[(0.0, 0.12, 0.0)],
        )
        mic = sc.monitoring_positions
        measured = propagate_tonal(source, mic, sc.sample_rate, sc.speed_of_sound)
        return run_anc(sc, mic, measured, 1e-5, iterations)

    rep = control(40.0, 5000)
    fixed = control(0.0, 300)
    return {
        "fxlms_converged": rep.converged,
        "fxlms_reduction_db": float(
            10 * np.log10(rep.sensor_mse[-480:].mean() / rep.sensor_mse[:50].mean())
        ),
        "fxlms_zero_fixed_point": bool(np.all(fixed.weights == 0.0)),
    }


def sh_figures() -> dict[str, float]:
    """Criterion 7: SH Gram-matrix error by quadrature, pure-mode fit round trip,
    and |j_1(1) - 0.3011687|."""
    nth, nph = 80, 160
    theta = (np.arange(nth) + 0.5) * np.pi / nth
    phi = np.arange(nph) * 2 * np.pi / nph
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    w = np.sin(TH) * (np.pi / nth) * (2 * np.pi / nph)
    Y = real_sh(3, TH, PH)
    gram = np.einsum("abi,abj,ab->ij", Y, Y, w)

    positions = sphere_points(0.26, 16)
    _, theta, phi = cart_to_sph(positions)
    mode = 2  # (u, v) = (1, 0)
    signals = np.repeat(real_sh(1, theta, phi)[:, mode, None], 8, axis=1)
    coeffs = sh_fit(positions, signals, 1, 24_000.0).coeffs[:, 0]
    return {
        "sh_gram_max_err": float(np.max(np.abs(gram - np.eye(len(gram))))),
        "sh_mode_coeff_err": float(abs(coeffs[mode] - 1.0)),
        "sh_other_coeff_max": float(np.max(np.abs(np.delete(coeffs, mode)))),
        "j1_at_1_err": float(abs(spherical_bessel_j(1, 1.0)[1] - 0.3011687)),
    }


def adam_figures() -> dict[str, float]:
    """Adam on (b2 - 3)^2 from b2 = 0 at step size 0.1: |b2 - 3| after 200 steps. The
    network has one hidden unit, 7 parameters, and the gradient is on b2 only."""
    p, g, moments = np.zeros(7), np.zeros(7), np.zeros((2, 7))
    for t in range(1, 201):
        g[-1] = 2.0 * (p[-1] - 3.0)
        adam_step(p, g, moments, t, 0.1)
    return {"adam_scalar_err": float(abs(p[-1] - 3.0))}
