"""Experiment drivers: radius sweep, ANC convergence, field maps, self-check.

Each run writes CSV tables (one per figure), a JSON summary echoing the
resolved configuration, and the trained model file. CSV content depends only
on the config and seeds, so re-runs are byte-identical.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .acoustics import propagate_tonal
from .anc import AncRunReport, field_grid_power, run_anc
from .geometry import sphere_points
from .oracles import check, derivative_figures, fxlms_figures, sh_figures
from .pinn import (
    AdamState,
    MlpParams,
    NormSpec,
    TrainConfig,
    TrainReport,
    adam_step,
    pinn_predict,
    save_params,
    train_pinn,
)
from .scenario import MIC_RADIUS, ScenarioConfig
from .sh import interpolation_error, max_order, ratio_to_db, sh_fit, sh_interpolate

DEFAULT_RADII = tuple(np.round(np.arange(0.10, 0.401, 0.02), 10))
SWEEP_POINTS = 400
ANC_ITERATIONS = 10_000
ANC_MU = 1e-5
EAR_DISK_RADIUS = 0.03
CSV_FMT = "%.9g"


@dataclass
class ExperimentSpec:
    experiment: str  # interp-sweep | anc-convergence | field-map | validate
    scenario: ScenarioConfig
    train: TrainConfig = field(default_factory=TrainConfig)
    radii: tuple[float, ...] = DEFAULT_RADII
    out_dir: Path = Path("results")

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        radii = tuple(float(r) for r in self.radii)
        if any(r <= 0 for r in radii) or list(radii) != sorted(radii):
            raise ValueError("sweep radii must be positive and ascending")
        self.radii = radii


@dataclass
class OutputBundle:
    csv_paths: dict[str, Path]
    json_path: Path
    model_path: Path | None
    summary: dict
    ok: bool = True


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    if hasattr(obj, "__dict__"):
        return vars(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path: Path, header: list[str], rows: np.ndarray):
    lines = [",".join(header)]
    for row in np.atleast_2d(rows):
        lines.append(",".join(CSV_FMT % v for v in row))
    path.write_text("\n".join(lines) + "\n")


@contextmanager
def _stage(timings: dict[str, float], name: str):
    """Records the block's time.perf_counter seconds as ``timings[name]``."""
    t = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t


def _train_for(
    spec: ExperimentSpec, timings: dict[str, float]
) -> tuple[MlpParams, TrainReport, np.ndarray, Path]:
    """The PINN fit to the mic signals (the "train" stage), saved as model.txt."""
    sc = spec.scenario
    fs, c = sc.sample_rate, sc.speed_of_sound
    mics = propagate_tonal(sc.primary_source, sc.monitoring_positions, fs, sc.num_samples, c)
    with _stage(timings, "train"):
        params, report = train_pinn(sc, mics, spec.train)
    model_path = spec.out_dir / "model.txt"
    save_params(params, report.norm, model_path)
    return params, report, mics, model_path


def _restart_metrics(report: TrainReport) -> dict:
    """Per-restart scores (None: diverged), the winner, and (restart, epoch) per divergence."""
    return {k: getattr(report, k) for k in ("restart_scores", "best_restart", "diverged_restarts")}


def _summary_base(spec: ExperimentSpec, t0: float) -> dict:
    return {
        "experiment": spec.experiment,
        "config": {
            "scenario": spec.scenario.to_dict(),
            "train": asdict(spec.train),
            "radii": list(spec.radii),
        },
        "seeds": {"scenario": spec.scenario.rng_seed, "train": spec.train.seed},
        "wall_clock_s": round(time.time() - t0, 3),
    }


def _finish(
    spec: ExperimentSpec,
    t0: float,
    csv_paths: dict[str, Path],
    model_path: Path | None,
    metrics: dict,
    timings: dict[str, float],
    ok: bool = True,
) -> OutputBundle:
    summary = _summary_base(spec, t0)
    summary["metrics"] = metrics
    summary["timings"] = timings  # per-stage seconds
    summary["ok"] = ok
    json_path = spec.out_dir / "summary.json"
    json_path.write_text(json.dumps(summary, indent=2, default=_json_default) + "\n")
    return OutputBundle(csv_paths, json_path, model_path, summary, ok)


def run_interp_sweep(spec: ExperimentSpec) -> OutputBundle:
    """Interpolation error vs evaluation-sphere radius, SH against the PINN."""
    t0, timings = time.time(), {}
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    sc = spec.scenario
    fs, c = sc.sample_rate, sc.speed_of_sound
    params, report, mics, model_path = _train_for(spec, timings)

    f_max = max(comp.frequency for comp in sc.primary_source.components)
    U = max_order(f_max, MIC_RADIUS, c)
    rows = []
    with _stage(timings, "evaluate"):
        series = sh_fit(sc.monitoring_positions, mics, U, fs)
        for r_s in spec.radii:
            pts = sphere_points(r_s, SWEEP_POINTS)
            # PINN first, then the truth: one (SWEEP_POINTS, T) estimate alive at a time
            est = pinn_predict(params, report.norm, pts, fs, sc.num_samples)
            truth = propagate_tonal(sc.primary_source, pts, fs, sc.num_samples, c)
            eps_nn = ratio_to_db(interpolation_error(truth, est))
            del est
            eps_sh = ratio_to_db(interpolation_error(truth, sh_interpolate(series, pts, c)))
            rows.append((r_s, eps_sh, eps_nn))
    rows = np.array(rows)
    csv_path = spec.out_dir / "interp_sweep.csv"
    _write_csv(csv_path, ["r_s", "eps_sh_dB", "eps_pinn_dB"], rows)

    in_band = (rows[:, 0] >= 0.2 - 1e-9) & (rows[:, 0] <= 0.4 + 1e-9)
    metrics = {
        "pinn_below_sh_everywhere": bool(np.all(rows[:, 2] < rows[:, 1])),
        "mean_margin_db_02_04": float(np.mean(rows[in_band, 1] - rows[in_band, 2])),
        "train_final_data_loss": report.final_data_loss,
        **_restart_metrics(report),
    }
    return _finish(spec, t0, {"interp_sweep": csv_path}, model_path, metrics, timings)


def run_controls(
    sc: ScenarioConfig, params: MlpParams, norm: NormSpec
) -> tuple[AncRunReport, AncRunReport]:
    """The two controllers the paper compares, ANC_ITERATIONS steps each:
    multiple-point control on the measured mic signals, and PINN-assisted
    control on the network's estimate at the ears."""
    fs, mics, ears = sc.sample_rate, sc.monitoring_positions, sc.virtual_positions
    measured = propagate_tonal(sc.primary_source, mics, fs, ANC_ITERATIONS, sc.speed_of_sound)
    multipoint = run_anc(sc, mics, measured, ANC_MU)
    pinn = run_anc(sc, ears, pinn_predict(params, norm, ears, fs, ANC_ITERATIONS), ANC_MU)
    return multipoint, pinn


def run_anc_convergence(spec: ExperimentSpec) -> OutputBundle:
    """Ear noise-reduction curves for multiple-point and PINN-assisted control;
    ok=False when either controller diverged."""
    t0, timings = time.time(), {}
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    sc = spec.scenario
    params, report, _, model_path = _train_for(spec, timings)

    with _stage(timings, "anc"):
        mp, pn = run_controls(sc, params, report.norm)
    n = min(mp.iterations, pn.iterations)
    rows = np.column_stack([np.arange(n), mp.eps_db[:n], pn.eps_db[:n]])
    csv_path = spec.out_dir / "anc_convergence.csv"
    _write_csv(csv_path, ["iteration", "eps_dB_multipoint", "eps_dB_pinn"], rows)

    metrics = {
        "multipoint_last1000_mean_db": float(mp.eps_db[-1000:].mean()),
        "pinn_last1000_mean_db": float(pn.eps_db[-1000:].mean()),
        "steady_state_gap_db": float(mp.eps_db[-1000:].mean() - pn.eps_db[-1000:].mean()),
        "multipoint_converged": mp.converged,
        "pinn_converged": pn.converged,
        **_restart_metrics(report),
    }
    ok = mp.converged and pn.converged
    return _finish(spec, t0, {"anc_convergence": csv_path}, model_path, metrics, timings, ok)


def ear_disk_mask(x: np.ndarray, y: np.ndarray, ears: np.ndarray) -> np.ndarray:
    """Grid points within EAR_DISK_RADIUS of any of the (E, 3) ears, in the xy-plane."""
    d2 = (x[:, None] - ears[:, 0]) ** 2 + (y[:, None] - ears[:, 1]) ** 2
    return np.any(d2 <= EAR_DISK_RADIUS**2 + 1e-12, axis=1)


def run_field_map(spec: ExperimentSpec) -> OutputBundle:
    """xy-plane signal-power maps: primary, multipoint residual, PINN residual;
    ok=False when either controller diverged."""
    t0, timings = time.time(), {}
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    sc = spec.scenario
    params, report, _, model_path = _train_for(spec, timings)

    with _stage(timings, "anc"):
        mp, pn = run_controls(sc, params, report.norm)
    with _stage(timings, "field"):
        gx, gy, (p_primary, p_mp, p_pn) = field_grid_power(sc, [None, mp.weights, pn.weights])

    ref = p_primary.max()
    csv_paths = {}
    disk_means = {}
    mask = ear_disk_mask(gx, gy, sc.virtual_positions)
    for name, power in (("primary", p_primary), ("multipoint", p_mp), ("pinn", p_pn)):
        power_db = 10.0 * np.log10(np.maximum(power / ref, 1e-30))
        path = spec.out_dir / f"field_{name}.csv"
        _write_csv(path, ["x", "y", "power_dB"], np.column_stack([gx, gy, power_db]))
        csv_paths[f"field_{name}"] = path
        disk_means[name] = float(10.0 * np.log10(np.mean(power[mask]) / ref))

    metrics = {
        "ear_disk_mean_db": disk_means,
        "ear_disk_gap_db": disk_means["multipoint"] - disk_means["pinn"],
        "multipoint_converged": mp.converged,
        "pinn_converged": pn.converged,
        **_restart_metrics(report),
    }
    ok = mp.converged and pn.converged
    return _finish(spec, t0, csv_paths, model_path, metrics, timings, ok)


def _adam_scalar_check() -> dict:
    """Adam on (b2 - 3)^2 from b2 = 0 reaches 3 within 0.1 in 200 steps."""
    p = MlpParams(np.zeros((1, 4)), np.zeros(1), np.zeros(1), 0.0)
    st = AdamState.zeros(p)
    for _ in range(200):
        g = MlpParams(np.zeros((1, 4)), np.zeros(1), np.zeros(1), 2.0 * (p.b2 - 3.0))
        p, st = adam_step(p, g, st, 0.1)
    return {"value": p.b2, "target": 3.0, "tol": 0.1, "pass": abs(p.b2 - 3.0) < 0.1}


def run_validate(spec: ExperimentSpec) -> OutputBundle:
    """Release-gate oracle suite: acceptance criteria 4, 6 and 7 at the bounds the
    acceptance tests assert, plus an Adam check; ok=False when any check fails."""
    t0, timings = time.time(), {}
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    with _stage(timings, "checks"):
        figures = {**derivative_figures(), **fxlms_figures(), **sh_figures()}
        checks = {name: check(name, value) for name, value in figures.items()}
        checks["adam_scalar_convergence"] = _adam_scalar_check()
    ok = all(c["pass"] for c in checks.values())
    return _finish(spec, t0, {}, None, {"checks": checks}, timings, ok=ok)


RUNNERS = {
    "interp-sweep": run_interp_sweep,
    "anc-convergence": run_anc_convergence,
    "field-map": run_field_map,
    "validate": run_validate,
}
