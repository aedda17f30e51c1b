"""scripts/compare_outputs.py on small hand-made result trees."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "compare_outputs.py"


def write_tree(root, csv="r_s,eps\n0.1,-3\n", model="2\n0.5\n", metrics=None, timings=None):
    run = root / "interp-sweep"
    run.mkdir(parents=True)
    (run / "interp_sweep.csv").write_text(csv)
    if model is not None:
        (run / "model.txt").write_text(model)
    summary = {
        "metrics": metrics or {"eps": -3.0, "scores": [1.0]},
        "timings": timings or {"train": 1.0},
        "wall_clock_s": 2.0,
    }
    (run / "summary.json").write_text(json.dumps(summary))


def compare(parent, change):
    run = subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change)], capture_output=True, text=True
    )
    return run.returncode, run.stdout


def test_identical_outputs_pass_whatever_the_timings(tmp_path):
    write_tree(tmp_path / "a")
    write_tree(tmp_path / "b", timings={"train": 9.0})
    code, out = compare(tmp_path / "a", tmp_path / "b")
    assert code == 0
    assert "2 of 2 CSV, model and config files byte-identical" in out
    assert "summary" not in out.replace("summary.json", "")


def test_a_differing_csv_or_missing_model_fails(tmp_path):
    write_tree(tmp_path / "a")
    write_tree(tmp_path / "b", csv="r_s,eps\n0.1,-3.0000001\n")
    write_tree(tmp_path / "c", model=None)
    code, out = compare(tmp_path / "a", tmp_path / "b")
    assert code == 1 and "DIFFERS interp-sweep/interp_sweep.csv" in out
    code, out = compare(tmp_path / "a", tmp_path / "c")
    assert code == 1 and "DIFFERS interp-sweep/model.txt" in out


def test_a_saved_config_is_compared_byte_for_byte(tmp_path):
    """A config that loads to the same values but is written with other bytes differs."""
    for name, text in (("a", '{"duration": 0.1}\n'), ("b", '{"duration": 0.10}\n')):
        write_tree(tmp_path / name)
        (tmp_path / name / "variant.json").write_text(text)
    code, out = compare(tmp_path / "a", tmp_path / "a")
    assert code == 0 and "3 of 3 CSV, model and config files byte-identical" in out
    code, out = compare(tmp_path / "a", tmp_path / "b")
    assert code == 1 and "DIFFERS variant.json" in out
    assert "summary.json" not in out.replace("interp-sweep/summary.json", "")


def test_summary_leaves_that_differ_are_listed_without_failing(tmp_path):
    write_tree(tmp_path / "a")
    write_tree(tmp_path / "b", metrics={"eps": -3.5, "scores": [1.0], "fit_db": -20.0})
    code, out = compare(tmp_path / "a", tmp_path / "b")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("summary")]
    assert lines == [
        "summary interp-sweep/summary.json metrics.eps: -3.0 -> -3.5 (rel 1.4e-01)",
        "summary interp-sweep/summary.json metrics.fit_db: (absent) -> -20.0",
    ]


def test_a_roundoff_move_reads_as_its_relative_size(tmp_path):
    write_tree(tmp_path / "a", metrics={"gap_db": -10.522689632078913, "ok": True, "who": "x"})
    write_tree(tmp_path / "b", metrics={"gap_db": -10.522689632078924, "ok": False, "who": "y"})
    code, out = compare(tmp_path / "a", tmp_path / "b")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("summary")]
    assert lines == [
        "summary interp-sweep/summary.json metrics.gap_db: "
        "-10.522689632078913 -> -10.522689632078924 (rel 1.0e-15)",
        "summary interp-sweep/summary.json metrics.ok: true -> false",
        'summary interp-sweep/summary.json metrics.who: "x" -> "y"',
    ]


def test_trees_without_outputs_are_an_error(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert compare(tmp_path / "a", tmp_path / "b")[0] == 2
