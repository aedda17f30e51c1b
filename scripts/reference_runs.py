#!/usr/bin/env python3
"""Run the result trees that a byte-identical check compares, on one BLAS thread.

    python3 scripts/reference_runs.py OUT

Through the CLI, runs the four experiments on the default scenario at --epochs 300 into
OUT/default/<experiment>; writes OUT/variant.json, default_scenario(1) with its tones set
to 250/350/450 Hz (amplitudes and phases kept), and runs anc-convergence and field-map on
it at --seed 1 --epochs 150 into OUT/variant/<experiment>. Exit code 1 when any run exits
non-zero, 2 on a usage error. To check that a change moves no output, run the parent's
package and the change's (installed from this checkout, or on PYTHONPATH=src), then
compare the trees:

    PYTHONPATH=<parent>/src python3 scripts/reference_runs.py P
    python3 scripts/reference_runs.py C
    python3 scripts/compare_outputs.py P C
"""

import os
import sys

# before numpy loads: a product split between BLAS threads can move a sum's last bits
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import dataclasses  # noqa: E402
from pathlib import Path  # noqa: E402

from wavefield_anc.acoustics import TonalSource, ToneComponent  # noqa: E402
from wavefield_anc.cli import main  # noqa: E402
from wavefield_anc.scenario import default_scenario  # noqa: E402

EXPERIMENTS = ("validate", "interp-sweep", "anc-convergence", "field-map")
VARIANT_TONES = (250.0, 350.0, 450.0)  # a 480-sample period, twice the default's


def variant_scenario():
    """default_scenario(1) with its tones at VARIANT_TONES, amplitudes and phases kept."""
    sc = default_scenario(1)
    tones = tuple(ToneComponent(f, c.amplitude, c.phase)
                  for f, c in zip(VARIANT_TONES, sc.primary_source.components))
    return dataclasses.replace(sc, primary_source=TonalSource(sc.primary_source.position, tones))


def reference_runs(out: Path) -> bool:
    """The runs in the module docstring; whether every one exited 0."""
    out.mkdir(parents=True, exist_ok=True)
    variant = out / "variant.json"
    variant_scenario().save(variant)
    runs = [[e, "--epochs", "300", "--out", str(out / "default" / e)] for e in EXPERIMENTS]
    runs += [[e, "--config", str(variant), "--seed", "1", "--epochs", "150",
              "--out", str(out / "variant" / e)] for e in ("anc-convergence", "field-map")]
    return not any([main(args) for args in runs])  # a list: every run runs


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(0 if reference_runs(Path(sys.argv[1])) else 1)
