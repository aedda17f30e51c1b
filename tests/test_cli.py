import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import wavefield_anc
from wavefield_anc import experiments
from wavefield_anc.acoustics import TonalSource, ToneComponent, propagate_tonal
from wavefield_anc.anc import repeat_period
from wavefield_anc.cli import build_parser, main, resolve_spec
from wavefield_anc.experiments import (
    DEFAULT_RADII,
    ExperimentSpec,
    run_anc_convergence,
    run_field_map,
    run_interp_sweep,
    run_validate,
)
from wavefield_anc.geometry import sphere_points
from wavefield_anc.oracles import LIMITS
from wavefield_anc.pinn import TrainConfig, load_params, make_collocation_positions, pinn_predict
from wavefield_anc.scenario import ScenarioConfig, default_scenario
from wavefield_anc.sh import interpolation_error, max_order, ratio_to_db, sh_fit, sh_interpolate

from conftest import read_summary

QUICK = TrainConfig(epochs=1500, restarts=1)


def assert_records_run(summary, stages):
    """summary.json carries the environment, per-stage seconds, no failure, and when the run
    trains, the restart selection, the fit and the model digest."""
    assert set(summary["environment"]) == {"python", "numpy", "blas", "machine"}
    assert "failed_stage" not in summary and "error" not in summary
    assert list(summary["timings"]) == list(stages)
    assert all(t >= 0.0 for t in summary["timings"].values())
    assert ("model_sha256" in summary) == ("train" in stages)
    if "train" in stages:
        metrics = summary["metrics"]
        assert len(metrics["restart_scores"]) == QUICK.restarts
        assert metrics["best_restart"] == 0 and metrics["diverged_restarts"] == []
        assert np.isfinite(metrics["train_fit_db"])


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
    args = build_parser().parse_args(["interp-sweep", "--epochs", "123"])
    assert resolve_spec(args).train.epochs == 123


def test_missing_config_is_exit_2(tmp_path, capsys):
    code = main(["validate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_a_directory_as_config_is_exit_2(tmp_path, capsys):
    """Any OSError of reading the file is a config error, not a traceback."""
    assert main(["validate", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [Errno") and str(tmp_path) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["taken", "taken/o", "link", "link/o"])
def test_an_output_path_through_a_file_is_exit_2(tmp_path, out):
    """A file or a dangling link where the output directory or one of its parents would go
    is a config error naming it, not a FileExistsError or NotADirectoryError traceback."""
    (tmp_path / "taken").write_text("a file")
    (tmp_path / "link").symlink_to(tmp_path / "nowhere")
    code = "import sys; from wavefield_anc.cli import main; sys.exit(main(sys.argv[1:]))"
    run = run_python(code, "validate", "--out", tmp_path / out)
    assert run.returncode == 2
    assert run.stderr.startswith("config error: ") and "Traceback" not in run.stderr
    assert f"{tmp_path / out.split('/')[0]} is not a directory" in run.stderr
    assert (tmp_path / "taken").read_text() == "a file" and not (tmp_path / "nowhere").exists()


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
    "key, value",
    [("speed_of_sound", "343"), ("frequency", None), ("duration", [0.1]), ("rng_seed", 1.5)],
    ids=["string-speed", "null-frequency", "list-duration", "fractional-seed"],
)
def test_mistyped_config_value_is_exit_2(tmp_path, capsys, key, value):
    d = default_scenario(0).to_dict()
    (d["primary_source"]["components"][0] if key == "frequency" else d)[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    noun = "an integer" if key == "rng_seed" else "a number"
    assert f"{key} must be {noun}, got {type(value).__name__}" in err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("speed_of_sound", float("nan")),
        ("duration", float("inf")),
        ("amplitude", float("inf")),
        ("rng_seed", float("nan")),
    ],
)
def test_non_finite_config_number_is_exit_2(tmp_path, capsys, key, value):
    """json reads NaN and Infinity; the loader rejects them, naming the key."""
    d = default_scenario(0).to_dict()
    (d["primary_source"]["components"][0] if key == "amplitude" else d)[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} must be finite, got {value!r}" in err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("speed_of_sound", float("nan")),
        ("sample_rate", float("inf")),
        ("duration", float("inf")),
        ("rng_seed", float("nan")),
        ("frequency", float("nan")),
        ("amplitude", float("nan")),
        ("amplitude", float("inf")),
        ("amplitude", float("-inf")),
        ("phase", float("inf")),
    ],
)
def test_non_finite_number_in_a_config_built_in_python_is_rejected(key, value):
    """The dataclasses hold the finiteness rule, so a config that never passes the JSON
    loader, built with dataclasses.replace, keeps to it too."""
    sc = default_scenario(0)
    with pytest.raises(ValueError, match=f"^{key} must be finite, got {value!r}$"):
        if key in ("frequency", "amplitude", "phase"):
            dataclasses.replace(sc.primary_source.components[0], **{key: value})
        else:
            dataclasses.replace(sc, **{key: value})


@pytest.mark.parametrize(
    "key, value",
    [
        ("speed_of_sound", "343"),
        ("sample_rate", None),
        ("rng_seed", True),
        ("frequency", "300"),
        ("amplitude", True),
        ("phase", [0.0]),
        ("epochs", 2.5),
        ("restarts", 1.5),
        ("seed", True),
        ("epochs", "10"),
        ("seed", np.float64(3.0)),
        ("rng_seed", 1.5),
        ("rng_seed", np.float64(2.0)),
    ],
)
def test_mistyped_number_in_a_config_built_in_python_is_rejected(key, value):
    """The dataclasses hold the type half of the number rule too: a value that is not a real
    number (a bool is not), or for TrainConfig not an integer, is named with its key, not left
    to a comparison's TypeError or to the train stage's range()."""
    sc = default_scenario(0)
    noun = "an integer" if key in ("epochs", "restarts", "seed", "rng_seed") else "a number"
    message = f"^{key} must be {noun}, got {type(value).__name__} {re.escape(repr(value))}$"
    with pytest.raises(TypeError, match=message):
        if key in ("frequency", "amplitude", "phase"):
            dataclasses.replace(sc.primary_source.components[0], **{key: value})
        elif key in ("epochs", "restarts", "seed"):
            TrainConfig(**{key: value})
        else:
            dataclasses.replace(sc, **{key: value})


def test_numpy_integers_are_integers_to_train_config(tmp_path):
    """numpy numbers are stored as Python ints, in integer fields, and floats, so a run
    configured with them writes its summary.json, and the same one as with Python numbers."""
    cfg = TrainConfig(epochs=np.int64(10), restarts=np.int32(2), seed=np.uint8(3))
    assert (cfg.epochs, cfg.restarts, cfg.seed) == (10, 2, 3)
    assert {type(v) for v in (cfg.epochs, cfg.restarts, cfg.seed)} == {int}
    tone = ToneComponent(np.float32(300.0), np.int64(10), np.float64(0.5))
    assert [type(v) for v in (tone.frequency, tone.amplitude, tone.phase)] == [float] * 3
    sc = default_scenario(0)
    numpy_sc = dataclasses.replace(sc, rng_seed=np.int64(2), speed_of_sound=np.float32(343.0))
    assert (type(numpy_sc.rng_seed), type(numpy_sc.speed_of_sound)) == (int, float)
    summaries = []
    for scenario, train in ((numpy_sc, TrainConfig(seed=np.int64(1))),
                            (dataclasses.replace(sc, rng_seed=2), TrainConfig(seed=1))):
        bundle = run_validate(ExperimentSpec("validate", scenario, train, out_dir=tmp_path / "v"))
        summaries.append(read_summary(bundle.json_path)["config"])
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("with_config", [False, True], ids=["built-in", "config"])
def test_negative_seed_is_exit_2_naming_it(tmp_path, capsys, with_config):
    """--seed is checked when the spec is resolved, before any stage runs, with a scenario
    file or without one."""
    args = ["anc-convergence", "--seed", "-1", "--epochs", "5", "--out", str(tmp_path / "o")]
    if with_config:
        default_scenario(0).save(tmp_path / "scenario.json")
        args += ["--config", str(tmp_path / "scenario.json")]
    assert main(args) == 2
    assert "config error: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize(
    "experiment, secondary, message",
    [
        (  # to the mics
            "anc-convergence",
            (0.0, 4.0, 0.0),
            "secondary source 0 at [0.0, 4.0, 0.0] to mic 0 at [-0.15, -0.15, -0.15]: "
            "290.8-sample delay does not fit",
        ),
        (  # on a grid point
            "field-map",
            (0.1, 0.1, 0.0),
            "secondary source 0 at [0.1, 0.1, 0.0] to grid point 330 at [0.1, 0.1, 0.0]: "
            "3.93e-17 m apart",
        ),
        (  # to a grid corner
            "field-map",
            (-3.23, 0.0, 0.0),
            "secondary source 0 at [-3.23, 0.0, 0.0] to grid point 20 at [0.2, -0.2, 0.0]: "
            "240.4-sample delay does not fit",
        ),
    ],
    ids=["far", "on-grid", "far-from-grid"],
)
def test_secondary_path_beyond_its_fir_is_exit_2(
    tmp_path, capsys, experiment, secondary, message
):
    d = default_scenario(0).to_dict()
    d["secondary_positions"][0] = list(secondary)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    if experiment == "field-map":  # only the field map models the paths to its grid
        ExperimentSpec("anc-convergence", ScenarioConfig.load(path), out_dir=tmp_path / "o")
    assert main([experiment, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "experiment, position, message",
    [
        (
            "anc-convergence",
            (0.15, 0.15, 0.15),
            "primary source 0 at [0.15, 0.15, 0.15] to mic 7 at [0.15, 0.15, 0.15]: 0 m apart",
        ),
        (
            "anc-convergence",
            (0.0, -0.1, 0.0),
            "primary source 0 at [0.0, -0.1, 0.0] to ear 1 at [0.0, -0.1, 0.0]: 0 m apart",
        ),
        (
            "field-map",
            (0.2, 0.2, 0.0),
            "primary source 0 at [0.2, 0.2, 0.0] to grid point 440 at [0.2, 0.2, 0.0]: 0 m apart",
        ),
    ],
    ids=["on-a-mic", "on-an-ear", "on-a-grid-point"],
)
def test_primary_source_on_a_receiver_is_exit_2(tmp_path, capsys, experiment, position, message):
    """Caught at load, before any stage runs, naming the receiver and its position."""
    d = default_scenario(0).to_dict()
    d["primary_source"]["position"] = list(position)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    if experiment == "field-map":  # only the field map propagates the primary to its grid
        ExperimentSpec("anc-convergence", ScenarioConfig.load(path), out_dir=tmp_path / "o")
        # propagated analytically, not through a PATH_TAPS FIR: 5 m (350 samples) away is valid
        far = {**d, "primary_source": {**d["primary_source"], "position": [5.0, 0.0, 0.0]}}
        ExperimentSpec("field-map", ScenarioConfig.from_dict(far), out_dir=tmp_path / "o")
    assert main([experiment, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_silent_primary_source_is_exit_2(tmp_path, capsys):
    """Every tone at amplitude 0 leaves nothing to interpolate or cancel, and the field map's
    powers relative to the primary's peak would be 0 / 0."""
    d = default_scenario(0).to_dict()
    for tone in d["primary_source"]["components"]:
        tone["amplitude"] = 0.0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    args = ["field-map", "--config", str(path), "--epochs", "5", "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert "config error: the primary source is silent" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mics_off_one_sphere_are_exit_2_for_the_sweep_only(tmp_path, capsys):
    d = default_scenario(0).to_dict()
    d["monitoring_positions"][0] = [0.2, 0.15, 0.15]  # 0.2915 m out, the others 0.2598 m
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    for experiment in ("anc-convergence", "field-map"):  # these run with any mics
        ExperimentSpec(experiment, ScenarioConfig.load(path), out_dir=tmp_path / "o")
    assert main(["interp-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "sensor radii span 0.0317 m" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("ears, named", [
    ([[0.0, 0.3, 0.0], [0.0, -0.3, 0.0]], "ear 0 at [0.0, 0.3, 0.0]"),
    ([[0.0, 0.1, 0.0], [0.1, -0.235, 0.05]], "ear 1 at [0.1, -0.235, 0.05]"),
    ([[0.0, 0.1, 0.3], [0.0, -0.1, -0.3]], "ear 0 at [0.0, 0.1, 0.3]"),
], ids=["both-off", "one-off", "off-the-plane"])
def test_ears_off_the_field_map_grid_are_exit_2_for_the_map_only(tmp_path, capsys, ears, named):
    """The map's ear-disk metric averages the grid points within EAR_DISK_RADIUS of each ear,
    in 3-D: an ear whose disk holds none would make it NaN, and one above the map's plane,
    over grid points, would be reported from points it is not near."""
    d = default_scenario(0).to_dict()
    d["virtual_positions"] = ears
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    for experiment in ("anc-convergence", "interp-sweep"):  # these run with any ears
        ExperimentSpec(experiment, ScenarioConfig.load(path), out_dir=tmp_path / "o")
    args = ["field-map", "--config", str(path), "--epochs", "5", "--out", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"config error: {named}: no field-map grid point within 0.03 m\n" in err
    assert not (tmp_path / "o").exists()


def test_one_mic_at_the_origin_is_exit_2(tmp_path, capsys):
    """The PINN's collocation points fill the ball the mics span; one mic at the origin
    spans none."""
    d = default_scenario(0).to_dict()
    d["monitoring_positions"] = [[0.0, 0.0, 0.0]]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    assert main(["anc-convergence", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "span no ball" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_more_mics_than_collocation_points_trains(tmp_path):
    """101 mics, more than COLLOCATION_COUNT: the wave equation is enforced at the mics
    alone, and the sweep runs."""
    sc = default_scenario(0)
    mics = sphere_points(sc.mic_radius, 101)
    sc = dataclasses.replace(sc, monitoring_positions=mics)
    path, out = tmp_path / "scenario.json", tmp_path / "o"
    sc.save(path)
    assert main(["interp-sweep", "--config", str(path), "--epochs", "3", "--out", str(out)]) == 0
    assert read_summary(out / "summary.json")["ok"] is True
    assert np.array_equal(make_collocation_positions(sc, seed=0), mics)


def test_sweep_above_sh_order_4_runs(tmp_path):
    """600 + 900 Hz needs SH order 5 on the mics' sphere."""
    d = default_scenario(0).to_dict()
    d["primary_source"]["components"] = [
        {"frequency": f, "amplitude": 10.0, "phase": 0.0} for f in (600.0, 900.0)
    ]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "o"
    assert main(["interp-sweep", "--config", str(path), "--epochs", "5", "--out", str(out)]) == 0
    summary = read_summary(out / "summary.json")
    assert summary["ok"] is True
    assert len((out / "interp_sweep.csv").read_text().splitlines()) == 1 + len(DEFAULT_RADII)


@pytest.mark.parametrize("experiment", ["anc-convergence", "field-map"])
def test_diverged_controller_is_exit_1(tmp_path, monkeypatch, experiment):
    monkeypatch.setattr(experiments, "ANC_MU", 1e-2)  # far past the stable step size
    out = tmp_path / "o"
    assert main([experiment, "--epochs", "10", "--out", str(out)]) == 1
    summary = read_summary(out / "summary.json")
    assert summary["ok"] is False
    metrics = summary["metrics"]
    assert not (metrics["multipoint_converged"] and metrics["pinn_converged"])


def run_python(code, *args):
    """``python -c code *args`` with this package on the path."""
    src = str(Path(wavefield_anc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cmd = [sys.executable, "-c", textwrap.dedent(code), *map(str, args)]
    return subprocess.run(cmd, env=env, capture_output=True, text=True)


def test_every_restart_diverging_fails_the_train_stage(tmp_path):
    """The interpreter prints the traceback and exits 1; summary.json names the stage."""
    code = """
        import sys
        from wavefield_anc import pinn
        from wavefield_anc.cli import main
        real = pinn.glorot_init
        def init(seed, N=16):
            params = real(seed, N)
            pinn.unpack(params)[2][:] = float("nan")
            return params
        pinn.glorot_init = init
        sys.exit(main(["anc-convergence", "--epochs", "5", "--out", sys.argv[1]]))
        """
    out = tmp_path / "o"
    run = run_python(code, out)
    assert run.returncode == 1
    assert "Traceback" in run.stderr and "DivergenceDetected" in run.stderr
    summary = read_summary(out / "summary.json")
    assert summary["ok"] is False and summary["failed_stage"] == "train"
    assert summary["error"].startswith("DivergenceDetected: non-finite loss in every restart")
    assert summary["timings"] == {} and summary["metrics"] == {}
    assert "model_sha256" not in summary
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


@pytest.mark.parametrize(
    "name, stage, stages",
    [
        ("save_params", None, ["train"]),  # between the train and anc stages
        ("run_controls", "anc", ["train"]),
        ("field_grid_power", "field", ["train", "anc"]),
    ],
)
def test_failed_stage_is_named_in_the_summary(tmp_path, monkeypatch, name, stage, stages):
    def broken(*args):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(experiments, name, broken)
    spec = quick_spec("field-map", tmp_path / "f")
    spec.train = dataclasses.replace(QUICK, epochs=10)
    with pytest.raises(RuntimeError, match="broken on purpose"):
        run_field_map(spec)
    summary = read_summary(spec.out_dir / "summary.json")
    assert summary["ok"] is False and summary["failed_stage"] == stage
    assert summary["error"] == "RuntimeError: broken on purpose"
    assert list(summary["timings"]) == stages
    assert summary["metrics"]["best_restart"] == 0  # the training figures, as trained
    model = spec.out_dir / "model.txt"
    if stage is not None:  # the model written before the failure
        assert summary["model_sha256"] == hashlib.sha256(model.read_bytes()).hexdigest()
    else:
        assert "model_sha256" not in summary and not model.exists()
    # a failure after the train stage keeps its loss curve, and nothing of the later stages
    csvs = [p.name for p in spec.out_dir.glob("*.csv")]
    assert csvs == ([] if stage is None else ["train_history.csv"])


def test_scipy_stays_off_the_import_path(tmp_path):
    """No run imports scipy, and numpy's lazily loaded submodules load at package import,
    not inside the first run."""
    code = """
        import sys
        import wavefield_anc
        from wavefield_anc.cli import main
        assert {"numpy.random", "numpy.fft"} <= set(sys.modules)
        assert "scipy" not in sys.modules
        for experiment in ("anc-convergence", "interp-sweep"):
            main([experiment, "--epochs", "2", "--out", f"{sys.argv[1]}/{experiment}"])
        assert "scipy" not in sys.modules, "a run imported scipy"
        """
    run = run_python(code, tmp_path)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "interp-sweep" / "interp_sweep.csv").exists()


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
    assert read_summary(tmp_path / "v" / "summary.json")["ok"] is True


def test_validate_fails_on_a_flipped_wave_operator(tmp_path):
    """A copy of the package whose wave operator carries +d^2/dtau^2, so that training would
    enforce c^2 Laplacian + d^2/dtau^2 = 0, fails validate on the wave-operator figure alone:
    the loss gradients stay consistent with the flipped loss."""
    copy = tmp_path / "src" / "wavefield_anc"
    shutil.copytree(Path(wavefield_anc.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    pinn_py = copy / "pinn.py"
    text = pinn_py.read_text()
    anchor = "np.array([-1.0, c_eff**2, c_eff**2, c_eff**2, 0.0])"
    assert text.count(anchor) == 1  # the one definition of the operator's coefficients
    pinn_py.write_text(text.replace(anchor, anchor.replace("-1.0", "1.0")))
    out = tmp_path / "v"
    run = subprocess.run([sys.executable, "-m", "wavefield_anc.cli", "validate", "--out", str(out)],
                         env={**os.environ, "PYTHONPATH": str(copy.parent)}, cwd=tmp_path,
                         capture_output=True, text=True)
    assert run.returncode == 1, run.stderr
    checks = read_summary(out / "summary.json")["metrics"]["checks"]
    assert {name for name, c in checks.items() if not c["pass"]} == {"wave_operator_max_rel_err"}


def test_interp_sweep_quick(tmp_path):
    bundle = run_interp_sweep(quick_spec("interp-sweep", tmp_path / "sweep"))
    csv = bundle.csv_paths["interp_sweep"].read_text().splitlines()
    assert csv[0] == "r_s,eps_sh_dB,eps_pinn_dB"
    assert len(csv) == 4  # header + 3 radii
    summary = read_summary(bundle.json_path)
    assert summary["config"]["scenario"] == default_scenario(0).to_dict()
    assert bundle.model_path.exists()
    assert_records_run(summary, ["train", "evaluate"])
    metrics = summary["metrics"]  # the fit in dB, from the loss the report gives
    assert metrics["train_fit_db"] == 10 * np.log10(bundle.report.final_data_loss)
    assert "train_final_data_loss" not in metrics
    assert metrics["window_samples"] == default_scenario(0).period_samples == 240


def with_tones(sc, freqs):
    """``sc`` with its first tones moved to ``freqs``, amplitudes and phases kept."""
    src = sc.primary_source
    tones = tuple(dataclasses.replace(t, frequency=f) for f, t in zip(freqs, src.components))
    return dataclasses.replace(sc, primary_source=TonalSource(src.position, tones))


def test_sweep_sh_baseline_free_of_window_leakage(tmp_path):
    """375 Hz repeats every 64 samples, which do not divide the scenario's 2 400: over the
    whole window the SH fit's DFT leaks and its error read +28.7 dB at 0.10 m. Over one
    period it stays below 0 dB at every radius (the SH column does not depend on training)."""
    sc = with_tones(default_scenario(0), [375.0])
    assert round(sc.duration * sc.sample_rate) % sc.period_samples != 0
    spec = ExperimentSpec("interp-sweep", sc, TrainConfig(epochs=5, restarts=1),
                          out_dir=tmp_path / "o")
    bundle = run_interp_sweep(spec)
    rows = np.loadtxt(bundle.csv_paths["interp_sweep"], delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], DEFAULT_RADII)
    assert np.all(rows[:, 1] < 0.0), rows[:, 1]
    assert bundle.summary["metrics"]["window_samples"] == 64


@pytest.mark.parametrize("freqs", [(300.0, 400.0, 500.0), (250.0, 350.0, 450.0)],
                         ids=["240-sample-period", "480-sample-period"])
def test_one_period_sweep_equals_the_full_window(tmp_path, monkeypatch, freqs):
    """Where the period divides the scenario's samples, the sweep's one-period rows equal
    the errors taken over all of them, from mics, truth and PINN at full length."""
    written = {}

    def record_csv(self, name, header, rows):
        written[name] = np.array(rows)
        real_csv(self, name, header, rows)

    real_csv = experiments.OutputBundle.csv
    monkeypatch.setattr(experiments.OutputBundle, "csv", record_csv)
    sc = with_tones(default_scenario(0), freqs)
    spec = ExperimentSpec("interp-sweep", sc, TrainConfig(epochs=25, restarts=1),
                          radii=(0.1, 0.2, 0.3), out_dir=tmp_path / "o")
    bundle = run_interp_sweep(spec)
    window = bundle.summary["metrics"]["window_samples"]
    fs, c, T = sc.sample_rate, sc.speed_of_sound, round(sc.duration * sc.sample_rate)
    assert window == sc.period_samples and T % window == 0

    params = load_params(bundle.model_path, window, fs)
    mics = repeat_period(propagate_tonal(sc.primary_source, sc.monitoring_positions, fs, c), T)
    series = sh_fit(sc.monitoring_positions, mics, max_order(max(freqs), sc.mic_radius, c), fs)
    full = []
    for r_s in spec.radii:
        pts = sphere_points(r_s, experiments.SWEEP_POINTS)
        truth = repeat_period(propagate_tonal(sc.primary_source, pts, fs, c), T)
        eps_sh = ratio_to_db(interpolation_error(truth, sh_interpolate(series, pts, c)))
        estimate = repeat_period(pinn_predict(params, pts, window, fs), T)
        eps_nn = ratio_to_db(interpolation_error(truth, estimate))
        full.append((r_s, eps_sh, eps_nn))
    np.testing.assert_allclose(written["interp_sweep"], full, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("rows", [
    [[np.nan, np.inf, -np.inf], [-0.0, 1e-300, -1e-300], [12345678901.0, 0.1, -7.0]],
    np.array([[0, -3, 2**40]]),
    [2.5, -0.0, np.nan],
    np.empty((0, 3)),
], ids=["floats", "integers", "one-row", "no-rows"])
def test_csv_bytes_are_the_per_value_join(tmp_path, rows):
    bundle = experiments.OutputBundle(quick_spec("validate", tmp_path))
    bundle.csv("t", ["a", "b", "c"], rows)
    per_value = [",".join(experiments.CSV_FMT % v for v in row) for row in np.atleast_2d(rows)]
    expected = "\n".join(["a,b,c", *per_value]) + "\n"
    assert bundle.csv_paths["t"].read_bytes() == expected.encode()


def test_anc_convergence_quick(tmp_path):
    """One run: criterion 8 in test_acceptance re-runs this spec and compares the bytes."""
    b1 = run_anc_convergence(quick_spec("anc-convergence", tmp_path / "a"))
    header, first = b1.csv_paths["anc_convergence"].read_text().splitlines()[:2]
    assert header == "iteration,eps_dB_multipoint,eps_dB_pinn"
    # iteration 0: no control applied yet, both modes at ~0 dB
    it, mp0, pn0 = first.split(",")
    assert it == "0"
    assert abs(float(mp0)) < 0.5 and abs(float(pn0)) < 0.5
    summary = read_summary(b1.json_path)
    assert_records_run(summary, ["train", "anc"])
    # the summary names the model file it came with by its content
    assert summary["model_sha256"] == hashlib.sha256(b1.model_path.read_bytes()).hexdigest()


def test_train_history_csv_is_the_winners_curve(tmp_path):
    """One row every 100 epochs, the winning restart's, byte-identical on a re-run."""
    cfg = TrainConfig(epochs=250, restarts=3, seed=4)
    spec = ExperimentSpec("interp-sweep", default_scenario(0), cfg, radii=(0.1,),
                          out_dir=tmp_path / "a")
    bundle = run_interp_sweep(spec)
    assert bundle.report.best_restart == 1  # neither the first restart nor the last
    rerun = run_interp_sweep(dataclasses.replace(spec, out_dir=tmp_path / "b"))
    text = bundle.csv_paths["train_history"].read_bytes()
    assert text == rerun.csv_paths["train_history"].read_bytes()
    rows = np.loadtxt(bundle.csv_paths["train_history"], delimiter=",", skiprows=1)
    assert text.decode().splitlines()[0] == "epoch,L_data,L_pde"
    assert rows[:, 0].tolist() == [0.0, 100.0, 200.0]
    sc = spec.scenario
    mics = propagate_tonal(sc.primary_source, sc.monitoring_positions, sc.sample_rate,
                           sc.speed_of_sound)
    winner = dataclasses.replace(cfg, restarts=1, seed=cfg.seed + bundle.report.best_restart)
    _, alone = experiments.train_pinn(sc, mics, winner)  # the winning seed trained by itself
    np.testing.assert_allclose(rows, alone.history, rtol=1e-8, atol=0.0)  # %.9g in the CSV


def test_field_map_quick(tmp_path):
    bundle = run_field_map(quick_spec("field-map", tmp_path / "f"))
    for name in ("field_primary", "field_multipoint", "field_pinn"):
        lines = bundle.csv_paths[name].read_text().splitlines()
        assert lines[0] == "x,y,power_dB"
        assert len(lines) == 442
    primary = np.loadtxt(bundle.csv_paths["field_primary"], delimiter=",", skiprows=1)
    assert primary[:, 2].max() == pytest.approx(0.0, abs=1e-9)
    assert_records_run(read_summary(bundle.json_path), ["train", "anc", "field"])


def test_run_validate_reports_checks(tmp_path):
    bundle = run_validate(quick_spec("validate", tmp_path / "v"))
    assert bundle.ok
    checks = bundle.summary["metrics"]["checks"]
    assert checks["gradient_max_rel_err"]["pass"]
    assert checks["j1_at_1_err"]["pass"]
    assert set(checks) == set(LIMITS)  # every check is bounded in LIMITS, and by that bound
    for name, record in checks.items():
        assert record["bound"] == "{} {}".format(*LIMITS[name]), name
    assert_records_run(bundle.summary, ["checks"])


def test_sweep_sh_order_follows_the_mics_radius(tmp_path, monkeypatch):
    """Corner mics on a 0.4 m sphere need SH order ceil(2 pi 500 Hz 0.4 m / c) = 4, not the
    order 3 of the default 0.26 m sphere."""
    orders, real_fit = [], experiments.sh_fit

    def recording(positions, signals, U, *args, **kwargs):
        orders.append(U)
        return real_fit(positions, signals, U, *args, **kwargs)

    monkeypatch.setattr(experiments, "sh_fit", recording)
    sc = default_scenario(0)
    sc = dataclasses.replace(sc, monitoring_positions=sc.monitoring_positions * 0.4 / sc.mic_radius)
    spec = ExperimentSpec("interp-sweep", sc, TrainConfig(epochs=2, restarts=1),
                          radii=(0.2, 0.3), out_dir=tmp_path / "o")
    assert run_interp_sweep(spec).ok
    assert orders == [4]


def test_bad_radii_rejected(tmp_path):
    for radii in [(0.3, 0.1), (), (0.2, float("nan")), (0.2, float("inf")), (float("nan"),)]:
        with pytest.raises(ValueError):
            quick_spec("interp-sweep", tmp_path, radii=radii)


def test_sweep_without_a_radius_in_the_margin_band_writes_null(tmp_path):
    """With no swept radius in [0.2, 0.4] the mean margin has nothing to average: the
    summary says null, where NaN would not parse as JSON."""
    spec = ExperimentSpec("interp-sweep", default_scenario(0), TrainConfig(epochs=2, restarts=1),
                          radii=(0.1,), out_dir=tmp_path / "o")
    run_interp_sweep(spec)
    summary = read_summary(spec.out_dir / "summary.json")
    assert summary["ok"] is True and summary["metrics"]["mean_margin_db_02_04"] is None
