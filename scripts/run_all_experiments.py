#!/usr/bin/env python3
"""Run the validate gate plus all three experiments into results/<name>/."""

import sys
from pathlib import Path

from wavefield_anc.cli import main

OUT = Path("results")

if __name__ == "__main__":
    extra = sys.argv[1:]  # e.g. --epochs N
    rc = 0
    for experiment in ("validate", "interp-sweep", "anc-convergence", "field-map"):
        code = main([experiment, "--out", str(OUT / experiment), *extra])
        rc = rc or code
    sys.exit(rc)
