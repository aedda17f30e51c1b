"""Acceptance gate: the eight release criteria with their stated tolerances.

Criteria 1-3 check the summaries that interp-sweep, anc-convergence and field-map
write when run as the CLI runs them at its defaults, all three on one trained model;
4-8 are fast oracle checks.
"""

import numpy as np
import pytest

from wavefield_anc import cli, experiments
from wavefield_anc.acoustics import propagate_tonal
from wavefield_anc.experiments import ExperimentSpec, run_anc_convergence
from wavefield_anc.oracles import derivative_figures, fxlms_figures, sh_figures
from wavefield_anc.pinn import (
    TrainConfig,
    adam_step,
    glorot_init,
    load_params,
    loss_and_grads,
    pde_residual,
)
from wavefield_anc.scenario import default_scenario

from conftest import read_summary


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """experiment -> (output directory, summary) of interp-sweep, anc-convergence and
    field-map, each run once with its CLI defaults. The sweep trains the model; the other
    two get it from a stand-in for train_pinn that checks it is asked for that same fit."""
    root = tmp_path_factory.mktemp("shipped")

    def run(experiment):
        args = cli.build_parser().parse_args([experiment, "--out", str(root / experiment)])
        spec = cli.resolve_spec(args)
        return spec, experiments.RUNNERS[experiment](spec)

    sweep_spec, sweep = run("interp-sweep")
    sc = sweep_spec.scenario
    fs, c, P = sc.sample_rate, sc.speed_of_sound, sc.period_samples
    mics = propagate_tonal(sc.primary_source, sc.monitoring_positions, fs, c)
    served = []

    def trained_by_the_sweep(scenario, mic_signals, cfg):
        assert scenario.to_dict() == sc.to_dict()
        assert cfg == TrainConfig()
        assert mic_signals.shape == mics.shape and mic_signals.tobytes() == mics.tobytes()
        served.append(cfg)
        return load_params(sweep.model_path, P, fs), sweep.report  # model.txt round-trips bitwise

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "train_pinn", trained_by_the_sweep)
        run("anc-convergence")
        run("field-map")
    assert len(served) == 2

    runs = {}
    for experiment in ("interp-sweep", "anc-convergence", "field-map"):
        runs[experiment] = root / experiment, read_summary(root / experiment / "summary.json")
        assert runs[experiment][1]["ok"], experiment
    assert len({summary["model_sha256"] for _, summary in runs.values()}) == 1
    return runs


def test_criterion_1_interpolation_dominance(shipped):
    """eps_pinn < eps_sh at every swept radius of 400 points; mean margin over [0.2, 0.4]
    >= 4 dB."""
    out, summary = shipped["interp-sweep"]
    metrics = summary["metrics"]
    defined = metrics["definitions"]["mean_margin_db_02_04"]
    assert defined == {"sweep_points": 400, "margin_band_m": [0.2, 0.4]}
    # the schedule of the fit that all three headlines rest on
    assert metrics["definitions"]["train_fit_db"] == {
        "learning_rate": [1e-2, 1e-4], "pde_weight": [3e-8, 3e-7], "pde_score_weight": 1e-6}
    rows = np.loadtxt(out / "interp_sweep.csv", delimiter=",", skiprows=1, ndmin=2)
    losing = rows[rows[:, 2] >= rows[:, 1]].tolist()
    assert metrics["pinn_below_sh_everywhere"], f"PINN not below SH: r_s, eps_sh, eps_pinn {losing}"
    margin = metrics["mean_margin_db_02_04"]
    assert margin >= 4.0, f"mean margin {margin:.2f} dB < 4 dB"


def test_criterion_2_anc_steady_state_gap(shipped):
    """PINN-assisted beats multiple-point by >= 8 dB over the last 1000 of 10000 steps at
    step size 1e-5, each step's reduction over the 480 steps to it."""
    out, summary = shipped["anc-convergence"]
    metrics = summary["metrics"]
    defined = metrics["definitions"]["steady_state_gap_db"]
    assert defined == {
        "anc_mu": 1e-5, "anc_iterations": 10_000, "eps_window": 480, "steady_state_steps": 1000
    }
    # each steady-state mean is over the last steady_state_steps rows of the written curves
    rows = np.loadtxt(out / "anc_convergence.csv", delimiter=",", skiprows=1, ndmin=2)
    steady = rows[-defined["steady_state_steps"] :].mean(axis=0)
    assert metrics["multipoint_last1000_mean_db"] == pytest.approx(steady[1], abs=1e-6)
    assert metrics["pinn_last1000_mean_db"] == pytest.approx(steady[2], abs=1e-6)
    assert metrics["multipoint_converged"] and metrics["pinn_converged"]
    gap = metrics["steady_state_gap_db"]
    assert gap >= 8.0, f"steady-state gap {gap:.2f} dB < 8 dB"
    elapsed = summary["timings"]["anc"]
    assert elapsed < 120.0, f"ANC runtime {elapsed:.0f}s exceeds 2 min"


def test_criterion_3_ear_region_field_map(shipped):
    """Mean residual power in the r=0.03 m ear disks of the 21 x 21 map over +-0.2 m >= 5 dB
    lower for PINN mode, with the weights after 10000 steps at step size 1e-5."""
    _, summary = shipped["field-map"]
    defined = summary["metrics"]["definitions"]["ear_disk_gap_db"]
    assert defined == {"ear_disk_radius_m": 0.03, "anc_mu": 1e-5, "anc_iterations": 10_000,
                       "grid_points_per_side": 21, "grid_half_extent_m": 0.2}
    gap = summary["metrics"]["ear_disk_gap_db"]
    assert gap >= 5.0, f"ear-disk gap {gap:.2f} dB < 5 dB"


def test_criterion_4_gradient_and_second_derivative_oracles():
    """Analytic grads within 1e-4 and the wave operator c^2 Laplacian - d^2/dtau^2 within
    1e-6 of finite differences; training's PDE loss is the mean square of that residual."""
    figures = derivative_figures()
    worst_grad = figures["gradient_max_rel_err"]
    assert worst_grad < 1e-4, f"gradient max relative error {worst_grad:.3g}"
    worst_op = figures["wave_operator_max_rel_err"]
    assert worst_op < 1e-6, f"wave-operator max relative error {worst_op:.3g}"
    gap = figures["pde_loss_rel_gap"]
    assert gap < 1e-12, f"L_pde differs from mean(pde_residual^2) by {gap:.3g}"


def test_criterion_5_wave_equation_residual_oracle():
    """Residual on a plane-wave fit >= 10x smaller in mean square than random init."""
    rng = np.random.default_rng(1)
    c_eff = 1.0
    k = np.array([0.9, 0.5, -0.3])
    omega = c_eff * np.linalg.norm(k)
    pts = rng.uniform(-1.5, 1.5, size=(400, 4))
    target = np.sin(pts[:, 1:] @ k - omega * pts[:, 0])
    params = glorot_init(1, 32)
    moments = np.zeros((2, *params.shape))
    epochs = 25_000
    for e in range(epochs):
        lr = 1e-2 * (1e-3) ** (e / (epochs - 1))
        L, _, g = loss_and_grads(params, pts, target, pts[:1], 0.0, c_eff)
        adam_step(params, g, moments, e + 1, lr)
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
    csv = "anc_convergence.csv"
    assert (tmp_path / "run1" / csv).read_bytes() == (tmp_path / "run2" / csv).read_bytes()
    assert b1.model_path.read_bytes() == b2.model_path.read_bytes()
