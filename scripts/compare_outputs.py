#!/usr/bin/env python3
"""Compare the result trees of two runs of the same experiments, parent against change.

    python3 scripts/compare_outputs.py PARENT_OUT CHANGE_OUT

Byte-compares every ``*.csv``, ``model.txt`` and ``*.json`` other than ``summary.json``
(the saved configs) under either tree, matched by their path below the tree's root, and
lists the ``summary.json`` leaves whose values differ, ignoring ``timings`` and
``wall_clock_s``, each pair of numbers with its relative difference
|b - a| / max(|a|, |b|), so that a roundoff move reads as 1e-15 or so. Exit code 1 when
a compared file differs or exists on one side only, 2 when neither tree holds one;
summary differences are listed but do not fail.
"""

import json
import sys
from pathlib import Path

IGNORED = {"timings", "wall_clock_s"}


def leaves(obj, prefix=""):
    """{dotted path: JSON text} of the leaves of a parsed JSON value, without IGNORED keys."""
    if isinstance(obj, dict) and obj:
        items = [(k, v) for k, v in obj.items() if k not in IGNORED]
    elif isinstance(obj, list) and obj:
        items = list(enumerate(obj))
    else:
        return {prefix: json.dumps(obj)}
    return {p: v for k, x in items for p, v in leaves(x, f"{prefix}.{k}".lstrip(".")).items()}


def rel_change(a, b):
    """' (rel X)' for two JSON texts of numbers, the relative difference of their values;
    '' when either is absent or not a number."""
    x, y = (None if t is None else json.loads(t) for t in (a, b))
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
        return ""
    scale = max(abs(x), abs(y))
    return f" (rel {abs(y - x) / scale if scale else 0.0:.1e})"


def found(roots, *patterns):
    return sorted({p.relative_to(r) for r in roots for g in patterns for p in r.rglob(g)})


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    roots = [Path(a) for a in argv]
    outputs = [p for p in found(roots, "*.csv", "model.txt", "*.json") if p.name != "summary.json"]
    differ = [rel for rel in outputs if len({(r / rel).read_bytes() if (r / rel).is_file()
                                             else None for r in roots}) != 1]
    for rel in outputs:
        print(f"{'DIFFERS' if rel in differ else 'same   '} {rel}")
    for rel in found(roots, "summary.json"):
        a, b = (leaves(json.loads((r / rel).read_text())) if (r / rel).is_file() else {}
                for r in roots)
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                print(f"summary {rel} {key}: {a.get(key, '(absent)')} -> "
                      f"{b.get(key, '(absent)')}{rel_change(a.get(key), b.get(key))}")
    print(f"{len(outputs) - len(differ)} of {len(outputs)} CSV, model and config files "
          "byte-identical")
    return 2 if not outputs else 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
