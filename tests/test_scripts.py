"""scripts/export_default_config.py and scripts/run_all_experiments.py, run as scripts."""

import importlib.util
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


def test_every_mutant_applies_to_exactly_one_place():
    """scripts/mutants.py replaces each old text once: one that moved or went would leave
    its mutant unapplied, and one that occurs twice would mutate a line it does not name."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)  # the standard library only
    counts = {(file, old): (ROOT / file).read_text().count(old)
              for file, old, _, _ in mutants.MUTANTS}
    assert counts and all(n == 1 for n in counts.values()), counts
