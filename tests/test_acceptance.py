"""Acceptance gate: the eight release criteria with their stated tolerances.

Criteria 1-3 exercise the full desk-scale pipeline (shared trained model from
conftest); 4-8 are fast oracle checks.
"""

import time

import numpy as np
import pytest

import wavefield_anc as wa
from wavefield_anc.acoustics import propagate_tonal
from wavefield_anc.anc import field_grid_power
from wavefield_anc.experiments import (
    DEFAULT_RADII,
    ExperimentSpec,
    ear_disk_mask,
    run_anc_convergence,
    run_controls,
)
from wavefield_anc.geometry import sphere_points
from wavefield_anc.oracles import derivative_figures, fxlms_figures, sh_figures
from wavefield_anc.pinn import (
    AdamState,
    TrainConfig,
    adam_step,
    glorot_init,
    loss_and_grads,
    pde_residual,
    pinn_predict,
)
from wavefield_anc.scenario import MIC_RADIUS, default_scenario
from wavefield_anc.sh import interpolation_error, max_order, ratio_to_db, sh_fit, sh_interpolate


def test_criterion_1_interpolation_dominance(scenario, mic_signals, trained):
    """eps_pinn < eps_sh at every swept radius; mean margin over [0.2, 0.4] >= 4 dB."""
    params, report = trained
    sc = scenario
    fs, c = sc.sample_rate, sc.speed_of_sound
    f_max = max(comp.frequency for comp in sc.primary_source.components)
    series = sh_fit(sc.monitoring_positions, mic_signals, max_order(f_max, MIC_RADIUS, c), fs)
    margins = {}
    for r_s in DEFAULT_RADII:
        pts = sphere_points(r_s, 400)
        truth = propagate_tonal(sc.primary_source, pts, fs, sc.num_samples, c)
        eps_sh = ratio_to_db(interpolation_error(truth, sh_interpolate(series, pts, c)))
        estimate = pinn_predict(params, report.norm, pts, fs, sc.num_samples)
        eps_nn = ratio_to_db(interpolation_error(truth, estimate))
        assert eps_nn < eps_sh, f"PINN not below SH at r_s={r_s}: {eps_nn} vs {eps_sh}"
        margins[r_s] = eps_sh - eps_nn
    band = [m for r, m in margins.items() if 0.2 - 1e-9 <= r <= 0.4 + 1e-9]
    assert np.mean(band) >= 4.0, f"mean margin {np.mean(band):.2f} dB < 4 dB"


def test_criterion_2_anc_steady_state_gap(scenario, trained):
    """PINN-assisted beats multiple-point by >= 8 dB over the last 1000 of 10000."""
    params, report = trained
    t0 = time.time()
    mp, pn = run_controls(scenario, params, report.norm)
    elapsed = time.time() - t0
    assert mp.converged and pn.converged
    gap = mp.eps_db[-1000:].mean() - pn.eps_db[-1000:].mean()
    assert gap >= 8.0, f"steady-state gap {gap:.2f} dB < 8 dB"
    assert elapsed < 120.0, f"ANC runtime {elapsed:.0f}s exceeds 2 min"


def test_criterion_3_ear_region_field_map(scenario, trained):
    """Mean residual power in the r=0.03 m ear disks >= 5 dB lower for PINN mode."""
    params, report = trained
    mp, pn = run_controls(scenario, params, report.norm)
    gx, gy, (p_mp, p_pn) = field_grid_power(scenario, [mp.weights, pn.weights])
    mask = ear_disk_mask(gx, gy, scenario.virtual_positions)
    gap = 10.0 * np.log10(np.mean(p_mp[mask]) / np.mean(p_pn[mask]))
    assert gap >= 5.0, f"ear-disk gap {gap:.2f} dB < 5 dB"


def test_criterion_4_gradient_and_second_derivative_oracles():
    """Analytic grads within 1e-4 and second derivs within 1e-6 of finite differences."""
    figures = derivative_figures()
    worst_grad = figures["gradient_max_rel_err"]
    assert worst_grad < 1e-4, f"gradient max relative error {worst_grad:.3g}"
    worst_d2 = figures["second_deriv_max_rel_err"]
    assert worst_d2 < 1e-6, f"second-derivative max relative error {worst_d2:.3g}"


def test_criterion_5_wave_equation_residual_oracle():
    """Residual on a plane-wave fit >= 10x smaller in mean square than random init."""
    rng = np.random.default_rng(1)
    c_eff = 1.0
    k = np.array([0.9, 0.5, -0.3])
    omega = c_eff * np.linalg.norm(k)
    pts = rng.uniform(-1.5, 1.5, size=(400, 4))
    target = np.sin(pts[:, 1:] @ k - omega * pts[:, 0])
    params = glorot_init(1, 32)
    st = AdamState.zeros(params)
    epochs = 25_000
    for e in range(epochs):
        lr = 1e-2 * (1e-3) ** (e / (epochs - 1))
        L, _, g = loss_and_grads(params, pts, target, pts[:1], 0.0, c_eff)
        params, st = adam_step(params, g, st, lr)
    assert L < 1e-6, f"plane-wave fit stalled at L_data={L:.3g}"
    held = rng.uniform(-1.5, 1.5, size=(50, 4))
    r_fit = np.mean(np.asarray(pde_residual(params, held, c_eff)) ** 2)
    r_rand = np.mean(np.asarray(pde_residual(glorot_init(1001, 32), held, c_eff)) ** 2)
    assert r_rand >= 10.0 * r_fit, f"residual ratio {r_rand / r_fit:.1f} < 10"


def test_criterion_6_fxlms_convergence_oracle():
    """Single-channel single-tone: >= 40 dB at the sensor within 5000 steps;
    zero-error fixed point bitwise."""
    figures = fxlms_figures()
    assert figures["fxlms_converged"]
    reduction = figures["fxlms_reduction_db"]
    assert reduction < -40.0, f"only {reduction:.1f} dB reduction in 5000 steps"
    assert figures["fxlms_zero_fixed_point"]


def test_criterion_7_sh_correctness():
    """Gram check <= 1e-3; pure-mode round trip to 1e-6; j_1(1) = 0.3011687 +- 1e-6."""
    figures = sh_figures()
    assert figures["sh_gram_max_err"] <= 1e-3
    assert figures["sh_mode_coeff_err"] < 1e-6
    assert figures["sh_other_coeff_max"] < 1e-6
    assert figures["j1_at_1_err"] < 1e-6


def test_criterion_8_determinism(tmp_path):
    """Re-running an experiment with an identical config yields byte-identical CSVs."""
    def spec(out):
        return ExperimentSpec(
            experiment="anc-convergence",
            scenario=default_scenario(0),
            train=TrainConfig(epochs=1500, restarts=1),
            out_dir=out,
        )

    b1 = run_anc_convergence(spec(tmp_path / "run1"))
    b2 = run_anc_convergence(spec(tmp_path / "run2"))
    assert (
        b1.csv_paths["anc_convergence"].read_bytes()
        == b2.csv_paths["anc_convergence"].read_bytes()
    )
    assert b1.model_path.read_bytes() == b2.model_path.read_bytes()
