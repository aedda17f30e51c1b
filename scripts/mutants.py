#!/usr/bin/env python3
"""Run tier-1 against a fixed list of one-line mutants of the package: which does it kill?

    python3 scripts/mutants.py OUT.json

Each mutant replaces one old text, which must occur exactly once in its file, by a new
text. For each, this script copies src/, tests/, scripts/, perfbench/ and pyproject.toml
(everything tier-1 reads) to a temporary directory, applies the mutant there and runs
``python -m pytest -q -x`` on it, with PYTHONPATH=src and one BLAS thread. A failing run
kills the mutant; a passing one means it survived. The unmutated copy runs first, and must
pass. Prints one line per mutant and writes every result, with the first failing test, to
OUT.json. Each run takes up to one tier-1 run (about a minute), the list about 15 minutes.
Exit code 1 when the unmutated copy fails or an old text does not occur once, 2 on a
usage error.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
# fails in every mutated copy, whose old text is gone; it guards this list, not the program
LIST_CHECK = "tests/test_scripts.py::test_every_mutant_applies_to_exactly_one_place"
TIMEOUT_S = 900  # a run this long is a hang, and counts as killed

A, E = "src/wavefield_anc/anc.py", "src/wavefield_anc/experiments.py"
P = "src/wavefield_anc/pinn.py"
MUTANTS = [  # (file, old text, new text, what it breaks)
    # the headline definitions (ROADMAP item 16)
    (E, "EAR_DISK_RADIUS = 0.03", "EAR_DISK_RADIUS = 0.05", "criterion 3's ear disk"),
    (A, "EPS_WINDOW = 480", "EPS_WINDOW = 240", "every reduction curve's trailing window"),
    (E, "ANC_MU = 1e-5", "ANC_MU = 2e-5", "the step size behind criterion 2"),
    (E, "SWEEP_POINTS = 400", "SWEEP_POINTS = 100", "the points per sweep radius"),
    (E, "STEADY_STATE_STEPS = 1000", "STEADY_STATE_STEPS = 500",
     "criterion 2's steady-state window"),
    (E, "r.eps_db[-STEADY_STATE_STEPS:]", "r.eps_db[-500:]",
     "criterion 2's steady-state window, at its use"),
    (P, "PDE_SCORE_WEIGHT = 1e-6", "PDE_SCORE_WEIGHT = 0.0", "restart selection's interior check"),
    (P, "PDE_WEIGHT_END = 3e-7", "PDE_WEIGHT_END = 3e-8",
     "the PDE weight ramp's end, which summary.json records with the training schedule"),
    (E, "MARGIN_BAND = (0.2, 0.4)", "MARGIN_BAND = (0.1, 0.4)", "criterion 1's margin band"),
    (A, "GRID_POINTS_PER_SIDE = 21", "GRID_POINTS_PER_SIDE = 11", "the field map's grid"),
    # the physics
    (P, "c_eff = scenario.speed_of_sound / scale", "c_eff = 1.1 * scenario.speed_of_sound / scale",
     "the PDE's wave speed"),
    ("src/wavefield_anc/acoustics.py", "np.subtract(t, delays[:, None], out=tone)",
     "np.add(t, delays[:, None], out=tone)", "the sign of the propagation delay"),
    (A, "_fir_sum(x[:, None], firs[None])", "_fir_sum(x[:, None], np.roll(firs, 1, -1)[None])",
     "the controller's secondary-path model one sample late"),
    (A, "_fir_sum(x[:, None], firs[None])",
     "_fir_sum(x[:, None], make_path_fir(secondaries, sensors, fs, 1.05 * c)[None])",
     "the controller's secondary-path model at 1.05 c"),
    (A, "primary = _tone_phasors(src, d / c,", "primary = _tone_phasors(src, d / c + 1.0 / fs,",
     "the field map's primary one sample late"),
    ("src/wavefield_anc/sh.py", "ratio = num / den_clamped", "ratio = den_clamped / num",
     "the SH radial ratio inverted"),
    # the control loop's signal directions
    (A, "ear_primary = repeat_period(propagate_tonal(src, ears, fs, c),",
     "ear_primary = repeat_period(np.roll(propagate_tonal(src, ears, fs, c), 1, 1),",
     "the ear primary one sample late in run_controllers"),
    (A, "sliding_window_view(x, FILTER_LEN)[iterations - 1 :: -1]",
     "sliding_window_view(x, FILTER_LEN)[iterations :: -1]",
     "the reference window one step late in run_controllers"),
    (A, "del fx, refs, steps, step, ref", "del fx, refs, steps, step",
     "the loop's last filtered-reference row view kept alive through the ear stage"),
    # the load checks
    ("src/wavefield_anc/scenario.py", "if power.min() < np.finfo(float).tiny:",
     "if power.min() < 0.0:", "the silent-primary rule"),
]


def tier1(mutant=None) -> dict:
    """Tier-1 on a copy of the tree, with ``mutant`` applied if given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=ignore)
            else:
                shutil.copy2(ROOT / name, tree / name)
        if mutant:
            file, old, new, _ = mutant
            text = (tree / file).read_text()
            if text.count(old) != 1:
                sys.exit(f"error: {old!r} occurs {text.count(old)} times in {file}")
            (tree / file).write_text(text.replace(old, new))
        threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        env = {**os.environ, **threads, "PYTHONPATH": str(tree / "src")}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--deselect", LIST_CHECK]
        t = time.perf_counter()
        try:
            run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"result": "killed", "first_failure": None,
                    "pytest": f"timed out after {TIMEOUT_S} s", "seconds": TIMEOUT_S}
        failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M)
        return {"result": "killed" if run.returncode else "survived",
                "first_failure": failed[0] if failed else None,
                "pytest": (run.stdout.strip().splitlines() or [""])[-1],  # its summary line
                "seconds": round(time.perf_counter() - t, 1)}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    baseline = tier1()
    print(f"unmutated: {baseline['pytest']}", flush=True)
    if baseline["result"] != "survived":
        sys.exit(f"error: tier-1 fails on the unmutated copy: {baseline['first_failure']}")
    results = []
    for mutant in MUTANTS:
        outcome = tier1(mutant)
        file, old, new, breaks = mutant
        results.append({"file": file, "old": old, "new": new, "breaks": breaks, **outcome})
        print(f"{outcome['result']:8}  {breaks}  ({outcome['first_failure']}; "
              f"{outcome['pytest']})", flush=True)
    Path(sys.argv[1]).write_text(json.dumps(results, indent=2) + "\n")
    killed = sum(r["result"] == "killed" for r in results)
    print(f"{killed} of {len(results)} mutants killed")
