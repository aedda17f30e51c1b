"""Benchmark of the wavefield-anc CLI experiments: end-to-end and per-layer figures.

    python3 perfbench/run.py --workload {sweep,train,control,all} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and writes only under ``.perfbench/`` there. Each run:

1. runs ``wavefield-anc validate`` once and aborts if it fails;
2. writes the workload's scenario JSON from ``default_scenario(seed)``;
3. starts one child process at a time (``child.py``), each a fresh interpreter
   that resolves and runs the CLI experiment once, until ``--seconds`` is used;
4. checks every run: exit code 0, ``ok`` in ``summary.json``, CSVs
   byte-identical to the first run of the same package, finite result figures;
5. prints every metric with its unit, and as its last line one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` runs of the checkout's program alternate with runs of the
frozen reference copy of the package in ``reference/`` (the code this
benchmark was defined on), and the metrics are the end-to-end ones of
``BENCHMARK.json``. Times are paired: each program run is divided by the
reference run next to it, and the median ratio is scaled by the reference's
nominal time (``NOMINAL``). The host's speed drifts by tens of percent over
minutes, for every process alike; the pairing cancels that drift. With
``--trace 1`` untraced and traced program runs alternate, and the metrics are
the per-layer ones, from spans recorded around the package's public functions
(see ``spans.py``). ``--tiny`` shrinks every
workload for the smoke test. The full record, with quartiles, sample counts
and the environment stamp, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_SRC = HERE / "reference"  # frozen wavefield_anc: the timing yardstick
WORK = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # per package; set-up-only children top the samples up to this
RUN_DEADLINE_S = 170.0  # one workload, validation included, ends within this
# stamp keys that name the code under test; every other key must match to compare
SOURCE_KEYS = ("git_sha", "git_dirty", "src_sha256")


@dataclass(frozen=True)
class Workload:
    experiment: str
    epochs: int
    tiny_epochs: int
    radii: tuple[float, ...] = ()  # interp-sweep radii; () keeps the CLI default
    tiny_radii: tuple[float, ...] = ()
    tones: tuple[float, ...] = ()  # replaces the reference tone frequencies


# Why each workload exists is in README.md; sizes keep one run within ~8 s, so
# that a run holds several program/reference pairs.
WORKLOADS = {
    "sweep": Workload("interp-sweep", epochs=25, tiny_epochs=2, radii=(0.2,), tiny_radii=(0.2,)),
    "train": Workload("anc-convergence", epochs=2500, tiny_epochs=10),
    "control": Workload("field-map", epochs=150, tiny_epochs=10, tones=(250.0, 350.0, 450.0)),
}
# About the reference package's median times per workload on a 2-core x86_64
# VM, in seconds: a paired ratio of 1 reads as these values. Only the ratios
# carry information; the constants keep the figures in seconds.
NOMINAL = {
    "sweep": {"wall_s": 3.7, "cpu_s": 3.7, "setup_s": 0.45},
    "train": {"wall_s": 7.4, "cpu_s": 7.4, "setup_s": 0.45},
    "control": {"wall_s": 2.1, "cpu_s": 2.1, "setup_s": 0.45},
}


def _figures(experiment: str, out: Path) -> tuple[float, float]:
    """(PINN figure, comparator figure) in dB, lower is better, from a run's outputs."""
    if experiment == "interp-sweep":
        with open(out / "interp_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return (
            statistics.fmean(float(r["eps_pinn_dB"]) for r in rows),
            statistics.fmean(float(r["eps_sh_dB"]) for r in rows),
        )
    metrics = json.loads((out / "summary.json").read_text())["metrics"]
    if experiment == "anc-convergence":
        return metrics["pinn_last1000_mean_db"], metrics["multipoint_last1000_mean_db"]
    disk = metrics["ear_disk_mean_db"]
    return disk["pinn"], disk["multipoint"]


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _stats(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class Run:
    """One child process and what the checks made of it."""

    kind: str  # "plain", "traced" or "setup"
    side: str  # "program" (the checkout's src/) or "reference"
    record: dict | None = None
    figures: tuple[float, float] | None = None
    error: str | None = None


@dataclass
class Bench:
    name: str
    workload: Workload
    seed: int
    tiny: bool
    env: dict
    work: Path = field(init=False)
    scenario: Path = field(init=False)
    first_csvs: dict[str, dict[str, bytes]] = field(default_factory=dict)  # per side
    runs: list[Run] = field(default_factory=list)

    def __post_init__(self):
        self.work = WORK / "work" / self.name
        self.scenario = self.work / "scenario.json"

    @property
    def epochs(self) -> int:
        return self.workload.tiny_epochs if self.tiny else self.workload.epochs

    @property
    def radii(self) -> tuple[float, ...]:
        return self.workload.tiny_radii if self.tiny else self.workload.radii

    def write_scenario(self):
        """Reference scenario from the seed; the tone frequencies replaced if the workload says so."""
        import dataclasses

        from wavefield_anc.acoustics import TonalSource, ToneComponent
        from wavefield_anc.scenario import default_scenario

        sc = default_scenario(self.seed)
        if self.workload.tones:
            old = sc.primary_source.components
            if len(old) != len(self.workload.tones):
                raise ValueError("variant tone count differs from the reference")
            comps = tuple(
                ToneComponent(f, c.amplitude, c.phase) for f, c in zip(self.workload.tones, old)
            )
            sc = dataclasses.replace(
                sc, primary_source=TonalSource(sc.primary_source.position, comps)
            )
        sc.save(self.scenario)

    def spawn(self, kind: str, deadline_ns: int, side: str = "program") -> Run:
        index = len(self.runs)
        out = self.work / f"run{index}"
        record_path = self.work / f"run{index}.json"
        src = SRC if side == "program" else REFERENCE_SRC
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(src),
               "--record", str(record_path), "--spawn-ns", "0"]
        if self.radii:
            cmd += ["--radii", ",".join(str(r) for r in self.radii)]
        if kind == "traced":
            cmd.append("--trace")
        if kind == "setup":
            cmd.append("--setup-only")
        cmd += ["--", self.workload.experiment, "--config", str(self.scenario),
                "--epochs", str(self.epochs), "--out", str(out)]
        run = Run(kind, side)
        self.runs.append(run)
        timeout = (deadline_ns - _now_ns()) / 1e9
        if timeout <= 0:
            run.error = "benchmark deadline reached before the run started"
            return run
        cmd[cmd.index("--spawn-ns") + 1] = str(_now_ns())
        try:
            proc = subprocess.run(cmd, env=dict(self.env, PYTHONPATH=str(src)),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            run.error = f"killed after {timeout:.0f} s at the benchmark deadline"
            return run
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            run.error = f"exit code {proc.returncode}: {tail[0]}"
            return run
        run.record = json.loads(record_path.read_text())
        if kind != "setup":
            run.error = self.check_outputs(out, side)
            if run.error is None:
                run.figures = _figures(self.workload.experiment, out)
                if not all(math.isfinite(v) for v in run.figures):
                    run.error = f"non-finite result figures {run.figures}"
        return run

    def check_outputs(self, out: Path, side: str) -> str | None:
        summary = json.loads((out / "summary.json").read_text())
        if summary.get("ok") is not True:
            return "summary.json has ok != true"
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        if not csvs:
            return "no CSV written"
        first = self.first_csvs.setdefault(side, csvs)
        if csvs != first:
            return "CSV output differs from the first run of this workload, seed and package"
        return None

    def measure(self, seconds: float, traced: bool, deadline_ns: int):
        """Runs until `seconds` are used.

        Untraced: program and reference alternate, at least program, reference,
        program (two program runs for the CSV check). Traced: plain and traced
        program runs alternate, at least one of each.
        """
        start = _now_ns()
        while True:
            odd = len(self.runs) % 2 == 1
            kind = "traced" if traced and odd else "plain"
            side = "reference" if not traced and odd else "program"
            t0 = _now_ns()
            run = self.spawn(kind, deadline_ns, side)
            last = (_now_ns() - t0) / 1e9
            if run.error and run.record is None:
                break  # the child crashed or timed out; another would likely too
            used = (_now_ns() - start) / 1e9
            if len(self.runs) >= (2 if traced else 3) and used + last > seconds:
                break
        if not traced:
            while len(self.good("setup", "program")) + len(self.good("plain", "program")) < SETUP_SAMPLES:
                if any(self.spawn("setup", deadline_ns, side).record is None
                       for side in ("program", "reference")):
                    break

    def good(self, kind: str, side: str = "program") -> list[Run]:
        return [r for r in self.runs if r.kind == kind and r.side == side and r.error is None]


def validate(env: dict, work: Path, deadline_ns: int) -> str | None:
    """Pre-flight `wavefield-anc validate`; the error text, or None when it passes."""
    cmd = [sys.executable, "-m", "wavefield_anc.cli", "validate", "--out", str(work / "validate")]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, (deadline_ns - _now_ns()) / 1e9))
    except subprocess.TimeoutExpired:
        return "validate timed out"
    if proc.returncode != 0:
        return f"validate exit code {proc.returncode}: {proc.stdout[-400:]}{proc.stderr[-400:]}"
    return None


def _paired(program: list[float], reference: list[float]) -> list[float]:
    """Ratio of each program run to the reference run started after it (or the last one)."""
    return [p / reference[min(i, len(reference) - 1)] for i, p in enumerate(program)]


def end_to_end(bench: Bench) -> tuple[dict, dict]:
    """(metrics, raw): reference-paired times and the raw medians behind them."""
    nominal = NOMINAL[bench.name]
    plain = {side: bench.good("plain", side) for side in ("program", "reference")}
    setup = {side: [r for r in bench.runs if r.side == side and r.kind != "traced" and r.error is None]
             for side in ("program", "reference")}
    metrics, raw = {}, {}
    for key, runs in (("wall_s", plain), ("cpu_s", plain), ("setup_s", setup)):
        values = {side: [r.record[key] for r in runs[side]] for side in runs}
        ratios = _paired(values["program"], values["reference"])
        metrics[key] = _stats([nominal[key] * x for x in ratios])
        raw[key] = {side: _stats(v) for side, v in values.items()}
    metrics["peak_rss_mb"] = _stats([r.record["peak_rss_mb"] for r in plain["program"]])
    metrics["baseline_reduction_db"] = _stats([-r.figures[1] for r in plain["program"]])
    return metrics, raw


def per_layer(bench: Bench) -> dict:
    traced = bench.good("traced")
    per_run = [spans.layer_metrics(r.record["spans"], r.record["anc_runs"]) for r in traced]
    out = {name: _stats([m[name] for m in per_run]) for name in spans.metric_names()}
    traced_wall = statistics.median(r.record["wall_s"] for r in traced)
    plain_wall = statistics.median(r.record["wall_s"] for r in bench.good("plain"))
    out["trace_overhead_s"] = _stats([traced_wall - plain_wall])
    out["pinn.residual_db"] = _stats([r.figures[0] for r in traced])
    return out


def environment_stamp() -> dict:
    """What must match for two result sets to be comparable (the source identity aside)."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_workload(name: str, args, env: dict, units: dict) -> dict | None:
    workload = WORKLOADS[name]
    deadline = _now_ns() + int(RUN_DEADLINE_S * 1e9)
    bench = Bench(name, workload, args.seed, args.tiny, env)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    error = validate(env, bench.work, deadline)
    if error:
        print(f"error: pre-flight {error}", file=sys.stderr)
        return None
    bench.write_scenario()
    bench.measure(args.seconds, bool(args.trace), deadline)

    failed = [r for r in bench.runs if r.error]
    for r in failed:
        print(f"{name}: failed {r.kind} run: {r.error}", file=sys.stderr)
    needed = [("plain", "program"), ("traced" if args.trace else "plain",
                                      "program" if args.trace else "reference")]
    if any(not bench.good(kind, side) for kind, side in needed):
        print(f"error: {name}: no successful run to measure", file=sys.stderr)
        return None
    raw = {}
    if args.trace:
        metrics = per_layer(bench)
    else:
        metrics, raw = end_to_end(bench)
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for key, value in metrics.items():
        value["unit"] = units[key]
    result = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "settings": {"experiment": workload.experiment, "epochs": bench.epochs,
                     "radii": list(bench.radii), "tones": list(workload.tones)},
        "stamp": environment_stamp(),
        "attempted": len(bench.runs),
        "failed": len(failed),
        "error_rate": len(failed) / len(bench.runs),
        "correct": not failed,
        "metrics": metrics,
        "raw": raw,
        "runs": [{"kind": r.kind, "side": r.side, "error": r.error, "figures": r.figures,
                  **{k: v for k, v in (r.record or {}).items() if k not in ("spans", "anc_runs")}}
                 for r in bench.runs],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    print(f"== {name} ({workload.experiment}, seed {args.seed}, trace {args.trace}) ==")
    for key, m in metrics.items():
        print(f"{key:40s} {m['value']:14.6g} {m['unit']:8s} q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")
    for key, sides in raw.items():
        print(f"{'raw ' + key:40s} " + "  ".join(
            f"{side} {m['value']:.6g} (q1 {m['q1']:.6g} q3 {m['q3']:.6g} n {m['n']})"
            for side, m in sides.items()))
    print(f"{'error_rate':40s} {result['error_rate']:14.6g} {'fraction':8s} "
          f"({result['failed']} of {result['attempted']} runs failed)")
    print("stamp " + json.dumps(result["stamp"], sort_keys=True))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "wavefield_anc" / "__init__.py").is_file():
        print(f"error: no wavefield_anc package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # one run at a time; keeps BLAS from oversubscribing
        os.environ[var] = "1"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[layer]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args, env, units)
        if result is None:
            return 1
        results[name] = result
    metrics = {
        (f"{name}.{key}" if len(results) > 1 else key): {"value": m["value"], "unit": m["unit"]}
        for name, r in results.items()
        for key, m in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
