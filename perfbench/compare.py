"""Compare end-to-end results of a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a result file written by ``run.py --trace 0`` or a
directory of them (``.perfbench/results/`` of each checkout). Runs pair up by
workload and seed. The two sets must have been measured in the same
environment: every stamp field except the source identity (git SHA, dirty flag,
source digest) must match, or the comparison is refused with exit code 2.

Per workload and metric it prints both medians, the parent's quartiles, the
pair wins, and a verdict under the rules in README.md: ``gain`` (>= 10 pairs,
the change wins >= 9/10 of them and the median gap exceeds the parent's IQR),
``regression`` (the change's median is worse by more than the metric's bound),
``unresolved`` (the parent's own spread exceeds the bound) or ``no change``.
Exit code 1 when any pairing regresses.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import ROOT, SOURCE_KEYS

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = [json.loads(f.read_text()) for f in files]
    return [r for r in results if r.get("trace") == 0 and not r.get("tiny")]


def environment(result: dict) -> dict:
    return {k: v for k, v in result["stamp"].items() if k not in SOURCE_KEYS}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            bound: float, higher_better: bool) -> str:
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    sign = 1.0 if higher_better else -1.0
    gain = sign * (c_med - p_med)  # > 0 when the change is better
    if (pairs >= MIN_PAIRS_FOR_GAIN and wins >= WIN_SHARE_FOR_GAIN * pairs
            and gain > q3 - q1):
        return "gain"
    if -gain > bound * abs(p_med):
        return "regression"
    all_better = (min(change) > max(parent)) if higher_better else (max(change) < min(parent))
    if (q3 - q1) > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "no change"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(Path(a)) for a in argv)
    if not parent or not change:
        print("error: no trace-0 result files found", file=sys.stderr)
        return 2
    envs = {json.dumps(environment(r), sort_keys=True) for r in parent + change}
    if len(envs) > 1:
        print("error: result sets come from different environments; refusing to compare:",
              file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    print(f"{'workload':8s} {'metric':22s} {'parent':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'change':>12s} {'wins':>7s}  verdict")
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        p_runs = {r["seed"]: r for r in parent if r["workload"] == workload}
        c_runs = {r["seed"]: r for r in change if r["workload"] == workload}
        seeds = sorted(p_runs.keys() & c_runs.keys())
        for m in spec["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            p_vals = [r["metrics"][name]["value"] for r in p_runs.values()]
            c_vals = [r["metrics"][name]["value"] for r in c_runs.values()]
            wins = sum(
                (c_runs[s]["metrics"][name]["value"] > p_runs[s]["metrics"][name]["value"]) == higher
                and c_runs[s]["metrics"][name]["value"] != p_runs[s]["metrics"][name]["value"]
                for s in seeds
            )
            v = verdict(p_vals, c_vals, wins, len(seeds), m["bound"], higher)
            regressed |= v == "regression"
            q1, p_med, q3 = quartiles(p_vals)
            print(f"{workload:8s} {name:22s} {p_med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{statistics.median(c_vals):12.6g} {wins:3d}/{len(seeds):<3d}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
