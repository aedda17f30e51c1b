"""scripts/reference_runs.py: the runs it makes, and the variant scenario it writes."""

import os
import subprocess
import sys
from pathlib import Path

from wavefield_anc.scenario import ScenarioConfig, default_scenario

from conftest import read_summary

ROOT = Path(__file__).parents[1]


def test_reference_runs_write_the_compared_trees(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                          os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "reference_runs.py"),
                          str(tmp_path)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    runs = {p.parent.relative_to(tmp_path).as_posix(): read_summary(p)
            for p in tmp_path.rglob("summary.json")}
    assert sorted(runs) == [*(f"default/{e}" for e in ("anc-convergence", "field-map",
                                                         "interp-sweep", "validate")),
                            "variant/anc-convergence", "variant/field-map"]
    assert all(s["ok"] for s in runs.values())
    assert len([*tmp_path.rglob("*.csv"), *tmp_path.rglob("model.txt")]) == 19
    assert runs["default/interp-sweep"]["config"]["train"]["epochs"] == 300
    assert runs["variant/field-map"]["config"]["train"] == {"epochs": 150, "restarts": 3, "seed": 1}

    expected = default_scenario(1).to_dict()  # its tones retuned, amplitudes and phases kept
    for tone, f in zip(expected["primary_source"]["components"], (250.0, 350.0, 450.0)):
        tone["frequency"] = f
    variant = ScenarioConfig.load(tmp_path / "variant.json")
    assert variant.to_dict() == expected and variant.period_samples == 480
