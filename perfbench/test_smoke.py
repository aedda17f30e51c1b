"""Smoke test of the benchmark: every workload at a tiny size, traced and untraced.

    python3 -m pytest perfbench/test_smoke.py

Takes under a minute on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# a traced call that proves the wrappers reach each workload's main layer
MAIN_CALLS = {
    "sweep": "sh.sh_interpolate_calls",
    "train": "pinn.loss_and_grads_calls",
    "control": "anc.field_grid_power_calls",
}


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] != ""
        assert math.isfinite(got["value"]), m["name"]
        assert any(line.split()[:1] == [m["name"]] for line in lines[:-1]), m["name"]
    if trace:
        assert result["metrics"][MAIN_CALLS[workload]]["value"] > 0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "control", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_traced_function_fails_loudly():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import wavefield_anc.sh, spans\n"
        "del wavefield_anc.sh.sh_fit\n"
        "spans.Recorder().install()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "sh.sh_fit" in proc.stderr


def test_compare_refuses_different_environments(tmp_path):
    def write(side: str, numpy_version: str):
        (tmp_path / side).mkdir()
        result = {"workload": "train", "seed": 1, "trace": 0, "tiny": False,
                  "stamp": {"git_sha": side, "numpy": numpy_version},
                  "metrics": {m["name"]: {"value": 1.0} for m in SPEC["end_to_end"]}}
        (tmp_path / side / "train-seed1-trace0.json").write_text(json.dumps(result))

    write("parent", "2.0")
    write("change", "2.1")
    cmd = [sys.executable, str(HERE / "compare.py"), str(tmp_path / "parent"), str(tmp_path / "change")]
    assert subprocess.run(cmd, capture_output=True, timeout=60).returncode == 2
    (tmp_path / "change" / "train-seed1-trace0.json").write_text(
        (tmp_path / "change" / "train-seed1-trace0.json").read_text().replace('"2.1"', '"2.0"')
    )
    assert subprocess.run(cmd, capture_output=True, timeout=60).returncode == 0
