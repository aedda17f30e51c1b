"""scripts/export_default_config.py and scripts/run_all_experiments.py, run as scripts."""

import os
import subprocess
import sys
from pathlib import Path

from wavefield_anc.scenario import ScenarioConfig, default_scenario

from conftest import read_summary

ROOT = Path(__file__).parents[1]


def run_script(name, *args, cwd=None):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                          os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, cwd=cwd, capture_output=True, text=True)


def test_export_default_config_writes_the_seeded_reference_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    run = run_script("export_default_config.py", path, "--seed", "3")
    assert run.returncode == 0, run.stderr
    assert ScenarioConfig.load(path).to_dict() == default_scenario(3).to_dict()


def test_run_all_experiments_writes_four_passing_summaries(tmp_path):
    run = run_script("run_all_experiments.py", "--epochs", "150", cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert len(list(tmp_path.rglob("summary.json"))) == 4
    summaries = {p.parent.name: read_summary(p) for p in tmp_path.glob("results/*/summary.json")}
    assert sorted(summaries) == ["anc-convergence", "field-map", "interp-sweep", "validate"]
    assert all(s["ok"] is True for s in summaries.values())
