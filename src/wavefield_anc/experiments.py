"""Experiment drivers: radius sweep, ANC convergence, field maps, self-check.

Each run writes CSV tables (one per figure), a JSON summary echoing the
resolved configuration, and the trained model file; a failed stage still
writes the summary. CSV content depends only on the config and seeds, so
re-runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .acoustics import path_distances, propagate_tonal, separations
from .anc import (EPS_WINDOW, GRID_HALF_EXTENT, GRID_POINTS_PER_SIDE, AncRunReport, field_grid,
                  field_grid_power, run_controllers)
from .geometry import sphere_points
from .oracles import adam_figures, check, derivative_figures, fxlms_figures, sh_figures
from .pinn import (LEARNING_RATE, LEARNING_RATE_END, PDE_SCORE_WEIGHT, PDE_WEIGHT, PDE_WEIGHT_END,
                   TrainConfig, TrainReport, pinn_predict, save_params, train_pinn)
from .scenario import ScenarioConfig
from .sh import common_radius, interpolation_error, max_order, ratio_to_db, sh_fit, sh_interpolate

DEFAULT_RADII = tuple(np.round(np.arange(0.10, 0.401, 0.02), 10))
SWEEP_POINTS = 400
MARGIN_BAND = (0.2, 0.4)  # m: the radii that criterion 1's mean margin averages over
ANC_ITERATIONS = 10_000
ANC_MU = 1e-5
STEADY_STATE_STEPS = 1000  # the last steps, whose mean reduction criterion 2 compares
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
        for path in (self.out_dir, *self.out_dir.parents):  # the runner creates the rest
            if (path.exists() or path.is_symlink()) and not path.is_dir():
                raise ValueError(f"output directory {self.out_dir}: {path} is not a directory")
        radii = tuple(float(r) for r in self.radii)
        if not radii or not all(0 < r < np.inf for r in radii) or list(radii) != sorted(radii):
            raise ValueError("sweep radii must be at least one, finite, positive and ascending")
        self.radii = radii
        sc = self.scenario
        fs, c = sc.sample_rate, sc.speed_of_sound
        if self.experiment == "interp-sweep":  # the SH baseline fits on the mics' sphere
            common_radius(sc.monitoring_positions)
        if self.experiment == "field-map":  # the map models every path to its grid too
            z = sc.virtual_positions[:, 2]
            if np.any(z != z[0]):
                raise ValueError(f"the field map lies in the ears' plane: ears at unequal z "
                                 f"{np.round(z, 4).tolist()} m")
            grid = field_grid(sc)
            path_distances(sc.secondary_positions, grid, fs, c, ("secondary source", "grid point"))
            separations(sc.primary_source.position[None], grid, ("primary source", "grid point"))
            for i, ear in enumerate(sc.virtual_positions):  # the ear-disk metric needs points
                if not ear_disk_mask(grid, ear[None]).any():
                    raise ValueError(f"ear {i} at {np.round(ear, 4).tolist()}: no field-map "
                                     f"grid point within {EAR_DISK_RADIUS} m")


class OutputBundle:
    """The record a run fills in as it goes: per-stage seconds, the model and its training
    report; once the run ends, its ``summary`` (written to ``json_path``) and ``ok``."""

    def __init__(self, spec: ExperimentSpec):
        self.spec, self.ok, self.summary = spec, False, {}
        self.timings: dict[str, float] = {}
        self.open_stage: str | None = None  # the stage running, or the one that raised
        self.json_path = spec.out_dir / "summary.json"
        self.model_path: Path | None = None
        self.report: TrainReport | None = None

    @contextmanager
    def stage(self, name: str):
        """Records the block's time.perf_counter seconds as ``timings[name]``."""
        self.open_stage, t = name, time.perf_counter()
        yield  # an exception leaves open_stage naming this stage
        self.timings[name], self.open_stage = time.perf_counter() - t, None

    def csv(self, name: str, header: list[str], rows: np.ndarray):
        """Writes ``rows`` to ``<name>.csv`` in the output directory."""
        path = self.spec.out_dir / f"{name}.csv"
        np.savetxt(path, np.atleast_2d(rows), CSV_FMT, ",", header=",".join(header), comments="")

    def train(self) -> tuple[np.ndarray, np.ndarray]:
        """The PINN fit to one period of the mic signals (the "train" stage), saved as model.txt,
        with the winning restart's loss curve, every 100 epochs, as train_history.csv."""
        sc = self.spec.scenario
        fs, c, P = sc.sample_rate, sc.speed_of_sound, sc.period_samples
        mics = propagate_tonal(sc.primary_source, sc.monitoring_positions, fs, c)
        with self.stage("train"):
            params, self.report = train_pinn(sc, mics, self.spec.train)
        save_params(params, P, fs, self.spec.out_dir / "model.txt")
        self.model_path = self.spec.out_dir / "model.txt"  # once written: the summary reads it
        history = np.reshape(self.report.history, (-1, 3))  # no rows at 0 epochs
        self.csv("train_history", ["epoch", "L_data", "L_pde"], history)
        return params, mics


def _experiment(body):
    """Makes ``body(spec, run) -> (metrics, ok)`` a runner ``spec -> OutputBundle`` that
    creates the output directory, keeps the wall clock and writes summary.json, with the
    training metrics after the body's own. When the body raises, summary.json is still
    written, with ``ok: false``, the ``failed_stage`` and the ``error``, and the exception
    propagates."""

    def runner(spec: ExperimentSpec) -> OutputBundle:
        t0, run, metrics, failure = time.time(), OutputBundle(spec), {}, {}
        spec.out_dir.mkdir(parents=True, exist_ok=True)
        try:
            metrics, run.ok = body(spec, run)
        except BaseException as exc:  # Ctrl-C too: the summary names the stage it stopped
            failure = {"failed_stage": run.open_stage, "error": f"{type(exc).__name__}: {exc}"}
            raise
        finally:
            if run.report is not None:  # restart scores (None: diverged), winner, divergences
                keys = ("restart_scores", "best_restart", "diverged_restarts")
                metrics |= {k: getattr(run.report, k) for k in keys}
                metrics["train_fit_db"] = ratio_to_db(run.report.final_data_loss)
                metrics.setdefault("definitions", {})["train_fit_db"] = {  # the schedule's ends
                    "learning_rate": [LEARNING_RATE, LEARNING_RATE_END],
                    "pde_weight": [PDE_WEIGHT, PDE_WEIGHT_END],
                    "pde_score_weight": PDE_SCORE_WEIGHT}
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            run.summary = {
                "experiment": spec.experiment,
                "config": {
                    "scenario": spec.scenario.to_dict(),
                    "train": asdict(spec.train),
                    "radii": list(spec.radii),
                },
                "environment": {  # a figure at the float64 roundoff floor follows the BLAS
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "blas": f"{blas['name']} {blas['version']}",
                    "machine": platform.machine(),
                },
                "wall_clock_s": round(time.time() - t0, 3),
                "metrics": metrics,
                "timings": run.timings,  # per-stage seconds
                "ok": run.ok,
                **failure,
            }
            if run.model_path is not None:  # the model file this run wrote, by content
                model = run.model_path.read_bytes()
                run.summary["model_sha256"] = hashlib.sha256(model).hexdigest()
            run.json_path.write_text(json.dumps(run.summary, indent=2) + "\n")
        return run

    runner.__name__ = runner.__qualname__ = body.__name__
    runner.__doc__ = body.__doc__
    return runner


@_experiment
def run_interp_sweep(spec: ExperimentSpec, run: OutputBundle) -> tuple[dict, bool]:
    """Interpolation error vs evaluation-sphere radius, SH against the PINN."""
    sc = spec.scenario
    fs, c = sc.sample_rate, sc.speed_of_sound
    params, mics = run.train()

    f_max = max(comp.frequency for comp in sc.primary_source.components)
    radius = common_radius(sc.monitoring_positions)
    U = max_order(f_max, radius, c)
    P = sc.period_samples  # the window: one period, so the SH fit's DFT bins hold every tone
    rows = []
    with run.stage("evaluate"):
        coeffs = sh_fit(sc.monitoring_positions, mics, U)
        for r_s in spec.radii:
            pts = sphere_points(r_s, SWEEP_POINTS)
            truth = propagate_tonal(sc.primary_source, pts, fs, c)
            eps_nn = ratio_to_db(interpolation_error(truth, pinn_predict(params, pts, P, fs)))
            estimate = sh_interpolate(coeffs, radius, pts, fs, c)
            eps_sh = ratio_to_db(interpolation_error(truth, estimate))
            rows.append((r_s, eps_sh, eps_nn))
    rows = np.array(rows)
    run.csv("interp_sweep", ["r_s", "eps_sh_dB", "eps_pinn_dB"], rows)

    lo, hi = MARGIN_BAND
    in_band = (rows[:, 0] >= lo - 1e-9) & (rows[:, 0] <= hi + 1e-9)
    margins = rows[in_band, 1] - rows[in_band, 2]  # none: no swept radius in the band
    metrics = {
        "pinn_below_sh_everywhere": bool(np.all(rows[:, 2] < rows[:, 1])),
        "mean_margin_db_02_04": float(np.mean(margins)) if margins.size else None,
        "window_samples": P,  # the samples every error is taken over
        "definitions": {"mean_margin_db_02_04": {
            "sweep_points": SWEEP_POINTS, "margin_band_m": list(MARGIN_BAND)}},
    }
    return metrics, True


def run_controls(spec: ExperimentSpec, run: OutputBundle) -> tuple[AncRunReport, AncRunReport]:
    """Trains the network, then steps the two controllers the paper compares together for
    ANC_ITERATIONS steps, as the "anc" stage: multiple-point control on the mic signals the
    network was fit to, and PINN-assisted control on its estimate at the ears."""
    sc = spec.scenario
    params, mics = run.train()
    with run.stage("anc"):
        estimate = pinn_predict(params, sc.virtual_positions, sc.period_samples, sc.sample_rate)
        sensings = [(sc.monitoring_positions, mics), (sc.virtual_positions, estimate)]
        multipoint, pinn = run_controllers(sc, sensings, ANC_MU, ANC_ITERATIONS)
    return multipoint, pinn


@_experiment
def run_anc_convergence(spec: ExperimentSpec, run: OutputBundle) -> tuple[dict, bool]:
    """Ear noise-reduction curves for multiple-point and PINN-assisted control;
    ok=False when either controller diverged."""
    mp, pn = run_controls(spec, run)
    n = min(mp.iterations, pn.iterations)
    rows = np.column_stack([np.arange(n), mp.eps_db[:n], pn.eps_db[:n]])
    run.csv("anc_convergence", ["iteration", "eps_dB_multipoint", "eps_dB_pinn"], rows)

    # a diverged controller has no steady state: its mean and the gap are null
    ok = mp.converged and pn.converged
    mp_db, pn_db = (float(r.eps_db[-STEADY_STATE_STEPS:].mean()) if r.converged else None
                    for r in (mp, pn))
    metrics = {
        "multipoint_last1000_mean_db": mp_db,
        "pinn_last1000_mean_db": pn_db,
        "steady_state_gap_db": mp_db - pn_db if ok else None,
        "multipoint_converged": mp.converged,
        "pinn_converged": pn.converged,
        "definitions": {"steady_state_gap_db": {"anc_mu": ANC_MU, "anc_iterations": ANC_ITERATIONS,
            "eps_window": EPS_WINDOW, "steady_state_steps": STEADY_STATE_STEPS}},
    }
    return metrics, ok


def ear_disk_mask(points: np.ndarray, ears: np.ndarray) -> np.ndarray:
    """Which of the (n, 3) points lie within EAR_DISK_RADIUS of any of the (E, 3) ears."""
    d2 = np.sum((points[:, None, :] - ears[None, :, :]) ** 2, axis=-1)
    return np.any(d2 <= EAR_DISK_RADIUS**2 + 1e-12, axis=1)


@_experiment
def run_field_map(spec: ExperimentSpec, run: OutputBundle) -> tuple[dict, bool]:
    """Signal-power maps in the ears' plane: primary, multipoint residual, PINN residual;
    ok=False when either controller diverged."""
    sc = spec.scenario
    mp, pn = run_controls(spec, run)
    with run.stage("field"):
        p_primary, p_mp, p_pn = field_grid_power(sc, [mp.weights, pn.weights])

    ref = p_primary.max()
    disk_means = {}
    grid = field_grid(sc)
    mask = ear_disk_mask(grid, sc.virtual_positions)
    ok = mp.converged and pn.converged
    maps = (("primary", p_primary, True), ("multipoint", p_mp, mp.converged),
            ("pinn", p_pn, pn.converged))
    for name, power, converged in maps:  # a diverged controller's map has no headline: null
        power_db = ratio_to_db(power / ref)
        run.csv(f"field_{name}", ["x", "y", "power_dB"], np.column_stack([grid[:, :2], power_db]))
        disk_means[name] = ratio_to_db(np.mean(power[mask]) / ref) if converged else None

    metrics = {
        "ear_disk_mean_db": disk_means,
        "ear_disk_gap_db": disk_means["multipoint"] - disk_means["pinn"] if ok else None,
        "multipoint_converged": mp.converged,
        "pinn_converged": pn.converged,
        "definitions": {"ear_disk_gap_db": {
            "ear_disk_radius_m": EAR_DISK_RADIUS, "anc_mu": ANC_MU,
            "anc_iterations": ANC_ITERATIONS, "grid_points_per_side": GRID_POINTS_PER_SIDE,
            "grid_half_extent_m": GRID_HALF_EXTENT}},
    }
    return metrics, ok


@_experiment
def run_validate(spec: ExperimentSpec, run: OutputBundle) -> tuple[dict, bool]:
    """Release-gate oracle suite: acceptance criteria 4, 6 and 7 and an Adam check, each at
    its bound in oracles.LIMITS; ok=False when any check fails."""
    with run.stage("checks"):
        figures = {**derivative_figures(), **fxlms_figures(), **sh_figures(), **adam_figures()}
        checks = {name: check(name, value) for name, value in figures.items()}
    return {"checks": checks}, all(c["pass"] for c in checks.values())


RUNNERS = {
    "interp-sweep": run_interp_sweep,
    "anc-convergence": run_anc_convergence,
    "field-map": run_field_map,
    "validate": run_validate,
}
