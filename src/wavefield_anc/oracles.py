"""Oracle checks of acceptance criteria 4, 6 and 7, shared by the tests and ``validate``.

Each function recomputes one criterion's figures at fixed seeds and sizes and
returns them by name. ``LIMITS`` holds the bound that ``tests/test_acceptance.py``
asserts on each figure.
"""

from __future__ import annotations

import operator

import numpy as np

from .acoustics import TonalSource, ToneComponent, propagate_tonal
from .anc import run_anc
from .geometry import cart_to_sph, sphere_points
from .pinn import MlpParams, glorot_init, loss_and_grads, mlp_forward, mlp_second_derivs
from .scenario import ScenarioConfig
from .sh import ShIndex, real_sh, sh_fit, sh_indices, spherical_bessel_j

# figure -> (comparison, bound) it must satisfy
LIMITS = {
    "gradient_max_rel_err": ("<", 1e-4),
    "second_deriv_max_rel_err": ("<", 1e-6),
    "fxlms_converged": ("==", True),
    "fxlms_reduction_db": ("<", -40.0),
    "fxlms_zero_fixed_point": ("==", True),
    "sh_gram_max_err": ("<=", 1e-3),
    "sh_mode_coeff_err": ("<", 1e-6),
    "sh_other_coeff_max": ("<", 1e-6),
    "j1_at_1_err": ("<", 1e-6),
}
_COMPARE = {"<": operator.lt, "<=": operator.le, "==": operator.eq}


def check(name: str, value) -> dict:
    """A figure with its bound from ``LIMITS`` and whether it meets it."""
    op, bound = LIMITS[name]
    return {"value": value, "bound": f"{op} {bound}", "pass": bool(_COMPARE[op](value, bound))}


def derivative_figures() -> dict[str, float]:
    """Criterion 4: worst relative error of the analytic loss gradients (central
    differences) and input second derivatives (fourth-order stencil)."""
    rng = np.random.default_rng(17)
    worst_grad = 0.0
    for trial in range(20):
        p = glorot_init(trial, 6)
        U = rng.normal(scale=0.5, size=(5, 4))
        tgt = rng.normal(size=5)
        C = rng.normal(scale=0.5, size=(4, 4))
        lam, c_eff = 0.7, 2.0
        _, _, grads = loss_and_grads(p, U, tgt, C, lam, c_eff)
        g = grads.to_vector()
        vec0 = p.to_vector()
        h = 1e-5
        for i in range(vec0.size):
            vals = []
            for sgn in (1.0, -1.0):
                v = vec0.copy()
                v[i] += sgn * h
                ld, lp, _ = loss_and_grads(MlpParams.from_vector(v, 6), U, tgt, C, lam, c_eff)
                vals.append(ld + lam * lp)
            fd = (vals[0] - vals[1]) / (2 * h)
            worst_grad = max(worst_grad, abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8))

    worst_d2 = 0.0
    for trial in range(20):
        p = glorot_init(200 + trial, 8)
        u = rng.normal(scale=0.5, size=4)
        d2 = mlp_second_derivs(p, u)
        h = 1e-3
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            # fourth-order central stencil keeps truncation below the 1e-6 bar
            fd = (
                -mlp_forward(p, u + 2 * e)
                + 16 * mlp_forward(p, u + e)
                - 30 * mlp_forward(p, u)
                + 16 * mlp_forward(p, u - e)
                - mlp_forward(p, u - 2 * e)
            ) / (12 * h**2)
            worst_d2 = max(worst_d2, abs(fd - d2[i]) / max(abs(fd), abs(d2[i]), 1e-6))
    return {"gradient_max_rel_err": float(worst_grad), "second_deriv_max_rel_err": float(worst_d2)}


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
        measured = propagate_tonal(source, mic, sc.sample_rate, iterations, sc.speed_of_sound)
        return run_anc(sc, mic, measured, 1e-5)

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
    idxs = sh_indices(3)
    Y = np.stack([real_sh(ix, TH, PH) for ix in idxs])
    gram = np.einsum("iab,jab,ab->ij", Y, Y, w)

    positions = sphere_points(0.26, 16)
    _, theta, phi = cart_to_sph(positions)
    signals = np.repeat(real_sh(ShIndex(1, 0), theta, phi)[:, None], 8, axis=1)
    coeffs = sh_fit(positions, signals, 1, 24_000.0, reg=1e-9).coeffs[:, 0]
    mode = ShIndex(1, 0).flat
    return {
        "sh_gram_max_err": float(np.max(np.abs(gram - np.eye(len(idxs))))),
        "sh_mode_coeff_err": float(abs(coeffs[mode] - 1.0)),
        "sh_other_coeff_max": float(np.max(np.abs(np.delete(coeffs, mode)))),
        "j1_at_1_err": float(abs(spherical_bessel_j(1, 1.0) - 0.3011687)),
    }
