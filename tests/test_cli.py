import dataclasses
import json

import numpy as np
import pytest

from wavefield_anc import experiments
from wavefield_anc.acoustics import TonalSource, ToneComponent
from wavefield_anc.cli import build_parser, main, resolve_spec
from wavefield_anc.experiments import (
    DEFAULT_RADII,
    ExperimentSpec,
    run_anc_convergence,
    run_field_map,
    run_interp_sweep,
    run_validate,
)
from wavefield_anc.pinn import TrainConfig
from wavefield_anc.scenario import ScenarioConfig, default_scenario

QUICK = TrainConfig(epochs=1500, restarts=1)


def assert_records_run(summary, stages):
    """summary.json carries the restart selection and per-stage seconds."""
    assert list(summary["timings"]) == list(stages)
    assert all(t >= 0.0 for t in summary["timings"].values())
    if "train" in stages:
        metrics = summary["metrics"]
        assert len(metrics["restart_scores"]) == QUICK.restarts
        assert metrics["best_restart"] == 0 and metrics["diverged_restarts"] == []


def quick_spec(experiment, out_dir, radii=(0.1, 0.2, 0.3)):
    return ExperimentSpec(
        experiment=experiment,
        scenario=default_scenario(0),
        train=QUICK,
        radii=radii,
        out_dir=out_dir,
    )


def test_parser_defaults():
    args = build_parser().parse_args(["validate"])
    spec = resolve_spec(args)
    assert spec.experiment == "validate"
    assert spec.train.seed == 0
    assert spec.radii == DEFAULT_RADII


def test_parser_epoch_overrides():
    args = build_parser().parse_args(["interp-sweep", "--paper-scale"])
    assert resolve_spec(args).train.epochs == 500_000
    args = build_parser().parse_args(["interp-sweep", "--epochs", "123"])
    assert resolve_spec(args).train.epochs == 123


def test_missing_config_is_exit_2(tmp_path, capsys):
    code = main(["validate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_config_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["validate", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2


def test_two_coordinate_position_is_exit_2(tmp_path, capsys):
    for field in ("virtual_positions", "primary_source"):
        d = default_scenario(0).to_dict()
        if field == "primary_source":
            d[field]["position"] = [0.6, 0.8]
        else:
            d[field][1] = [0.0, -0.1]
        bad = tmp_path / f"bad_{field}.json"
        bad.write_text(json.dumps(d))
        code = main(["validate", "--config", str(bad), "--out", str(tmp_path / "v")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize(
    "freqs, duration, message",
    [
        ([333.0], 0.1, "repeat every 8000 samples"),  # 72.07 samples a cycle
        ([300.5], 0.1, "whole hertz"),
        ([301.0, 400.0], 0.1, "repeat every 24000 samples"),  # gcd 1 Hz
        ([300.0, 400.0, 500.0], 0.005, "repeat every 240 samples"),  # 120 samples held
        ([12_000.0], 0.1, "Nyquist"),
    ],
    ids=["333Hz", "300.5Hz", "301+400Hz", "short", "nyquist"],
)
def test_tone_set_without_a_period_is_exit_2(tmp_path, capsys, freqs, duration, message):
    d = default_scenario(0).to_dict()
    d["duration"] = duration
    d["primary_source"]["components"] = [
        {"frequency": f, "amplitude": 1.0, "phase": 0.0} for f in freqs
    ]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match=message):
        ScenarioConfig.load(path)
    assert main(["anc-convergence", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert str(freqs[0]) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", ["anc-convergence", "field-map"])
def test_diverged_controller_is_exit_1(tmp_path, monkeypatch, experiment):
    monkeypatch.setattr(experiments, "ANC_MU", 1e-2)  # far past the stable step size
    out = tmp_path / "o"
    assert main([experiment, "--epochs", "10", "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ok"] is False
    metrics = summary["metrics"]
    assert not (metrics["multipoint_converged"] and metrics["pinn_converged"])


def test_config_round_trip(tmp_path):
    sc = default_scenario(3)
    path = tmp_path / "scenario.json"
    sc.save(path)
    loaded = ScenarioConfig.load(path)
    assert loaded.to_dict() == sc.to_dict()
    keys = set(json.loads(path.read_text()))
    assert keys == {
        "primary_source",
        "secondary_positions",
        "monitoring_positions",
        "virtual_positions",
        "speed_of_sound",
        "sample_rate",
        "duration",
        "rng_seed",
    }


def test_array_dataclasses_compare_by_identity_and_hash():
    sc = default_scenario(0)
    assert sc == sc and sc != default_scenario(0)
    assert hash(sc.primary_source) == hash(sc.primary_source)
    assert len({sc.primary_source, sc.primary_source}) == 1
    comps = tuple(ToneComponent(2 * c.frequency) for c in sc.primary_source.components)
    moved = dataclasses.replace(sc, primary_source=TonalSource(sc.primary_source.position, comps))
    assert moved.primary_source.components == comps
    assert np.array_equal(moved.monitoring_positions, sc.monitoring_positions)


def test_validate_cli_exit_0(tmp_path, capsys):
    code = main(["validate", "--out", str(tmp_path / "v")])
    assert code == 0
    assert (tmp_path / "v" / "summary.json").exists()


def test_interp_sweep_quick(tmp_path):
    bundle = run_interp_sweep(quick_spec("interp-sweep", tmp_path / "sweep"))
    csv = bundle.csv_paths["interp_sweep"].read_text().splitlines()
    assert csv[0] == "r_s,eps_sh_dB,eps_pinn_dB"
    assert len(csv) == 4  # header + 3 radii
    summary = json.loads(bundle.json_path.read_text())
    assert summary["config"]["scenario"] == default_scenario(0).to_dict()
    assert bundle.model_path.exists()
    assert_records_run(summary, ["train", "evaluate"])


def test_anc_convergence_quick_and_deterministic(tmp_path):
    b1 = run_anc_convergence(quick_spec("anc-convergence", tmp_path / "a"))
    b2 = run_anc_convergence(quick_spec("anc-convergence", tmp_path / "b"))
    c1 = b1.csv_paths["anc_convergence"].read_bytes()
    c2 = b2.csv_paths["anc_convergence"].read_bytes()
    assert c1 == c2
    header, first = c1.decode().splitlines()[:2]
    assert header == "iteration,eps_dB_multipoint,eps_dB_pinn"
    # iteration 0: no control applied yet, both modes at ~0 dB
    it, mp0, pn0 = first.split(",")
    assert it == "0"
    assert abs(float(mp0)) < 0.5 and abs(float(pn0)) < 0.5
    assert_records_run(json.loads(b1.json_path.read_text()), ["train", "anc"])


def test_field_map_quick(tmp_path):
    bundle = run_field_map(quick_spec("field-map", tmp_path / "f"))
    for name in ("field_primary", "field_multipoint", "field_pinn"):
        lines = bundle.csv_paths[name].read_text().splitlines()
        assert lines[0] == "x,y,power_dB"
        assert len(lines) == 442
    primary = np.loadtxt(bundle.csv_paths["field_primary"], delimiter=",", skiprows=1)
    assert primary[:, 2].max() == pytest.approx(0.0, abs=1e-9)
    assert_records_run(json.loads(bundle.json_path.read_text()), ["train", "anc", "field"])


def test_run_validate_reports_checks(tmp_path):
    bundle = run_validate(quick_spec("validate", tmp_path / "v"))
    assert bundle.ok
    checks = bundle.summary["metrics"]["checks"]
    assert checks["gradient_max_rel_err"]["pass"]
    assert checks["j1_at_1_err"]["pass"]
    assert_records_run(bundle.summary, ["checks"])


def test_bad_radii_rejected(tmp_path):
    with pytest.raises(ValueError):
        quick_spec("interp-sweep", tmp_path, radii=(0.3, 0.1))
