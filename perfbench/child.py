"""One benchmark child process: resolve a CLI experiment, run it once, record its cost.

    python3 perfbench/child.py --src DIR --record FILE --spawn-ns NS \
        [--radii R,R] [--trace] [--setup-only] -- <wavefield-anc arguments>

The experiment goes through the package's public entry points
(``cli.build_parser``, ``cli.resolve_spec``, ``experiments.RUNNERS``), imported
from the ``wavefield_anc`` package in ``DIR``: the checkout's ``src/``, or the
benchmark's frozen reference copy. ``--spawn-ns`` is the parent's CLOCK_MONOTONIC reading
just before it started this process, so ``setup_s`` covers interpreter start,
``import wavefield_anc`` and spec resolution. With ``--setup-only`` the runner
is not called. The exit code is 0 when the runner reports ``ok``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--record", type=Path, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--radii", help="comma-separated sweep radii (interp-sweep only)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import wavefield_anc
    from wavefield_anc import cli, experiments

    if src not in Path(wavefield_anc.__file__).resolve().parents:
        raise ImportError(f"wavefield_anc imported from {wavefield_anc.__file__}, not {src}")
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    spec = cli.resolve_spec(cli.build_parser().parse_args(cli_args))
    if args.radii:
        spec = dataclasses.replace(spec, radii=tuple(float(r) for r in args.radii.split(",")))
    runner = experiments.RUNNERS[spec.experiment]
    recorder = None
    if args.trace:
        from spans import ROOT_SPAN, Recorder

        recorder = Recorder()
        recorder.install()
        runner = recorder.wrap(ROOT_SPAN, runner)

    t_call = _now_ns()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    ok = True
    if not args.setup_only:
        ok = bool(runner(spec).ok)
    t_end = _now_ns()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    record = {
        "setup_s": (t_call - args.spawn_ns) / 1e9,
        "wall_s": (t_end - t_call) / 1e9,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,  # Linux reports KiB
        "ok": ok,
    }
    if recorder is not None:
        record["spans"] = recorder.spans
        record["anc_runs"] = recorder.anc_runs
    args.record.write_text(json.dumps(record, separators=(",", ":")))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
