"""Outside tracing of the wavefield_anc layers, and the per-layer figures derived from it.

A ``Recorder`` wraps the public functions listed in ``TRACED`` and records one
span per call: name, parent span, start and end. Each wrapper is rebound in
every ``wavefield_anc`` module that holds the original function (``sh_interpolate``
lives in ``sh`` and ``experiments``, ``propagate_tonal`` in ``acoustics``, ``anc``
and ``experiments``), so calls through any import path are seen. Wrappers take
``*args, **kwargs``, so a changed signature does not break them; a function that
no longer exists stops the traced run instead of reading as zero calls.

``layer_metrics`` turns the spans of one traced run into self times, call
counts and per-call percentiles.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# layer (module of wavefield_anc) -> public functions traced in it
TRACED = {
    "geometry": ("sphere_points", "ball_points"),
    "acoustics": ("propagate_tonal", "make_path_fir"),
    "sh": ("sh_fit", "sh_interpolate", "interpolation_error"),
    "pinn": ("train_pinn", "loss_and_grads", "adam_step", "pinn_predict"),
    "anc": ("run_anc", "field_grid_power"),
}
# functions called often enough to report a per-call distribution
KERNELS = (
    "pinn.loss_and_grads",
    "pinn.adam_step",
    "pinn.pinn_predict",
    "sh.sh_interpolate",
    "acoustics.propagate_tonal",
    "acoustics.make_path_fir",
)
ROOT_SPAN = "experiments.runner"
TAIL_LEVELS = (99.99, 99.9, 99.0, 90.0, 50.0)  # percent, highest first
MIN_BEYOND_TAIL = 10


class Recorder:
    """In-memory span list; spans[i] = [name, parent index or -1, start_s, end_s]."""

    def __init__(self):
        self.spans: list[list] = []
        self.anc_runs: list[tuple[int, bool]] = []  # (iterations, converged) per run_anc call
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if name == "anc.run_anc":
                self.anc_runs.append((int(result.iterations), bool(result.converged)))
            return result

        return traced

    def install(self):
        """Rebind every traced function in every loaded wavefield_anc module."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "wavefield_anc" or n.startswith("wavefield_anc."))
        ]
        missing = []
        for layer, names in TRACED.items():
            home = sys.modules.get(f"wavefield_anc.{layer}")
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    missing.append(f"{layer}.{fn_name}")
                    continue
                traced = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        setattr(module, attr, traced)
        if missing:
            raise LookupError(
                "traced functions no longer exist (update perfbench/spans.py): "
                + ", ".join(missing)
            )


def metric_names() -> list[str]:
    """Every per-layer metric ``layer_metrics`` produces, in a fixed order."""
    names = []
    for layer, fns in TRACED.items():
        for fn in fns:
            names += [f"{layer}.{fn}_calls", f"{layer}.{fn}_s"]
        names.append(f"{layer}.self_s")
    names.append("experiments.self_s")
    for kernel in KERNELS:
        names += [f"{kernel}_p50_ms", f"{kernel}_tail_ms"]
    names += ["anc.iterations", "anc.converged_frac", "anc.run_anc_iter_us"]
    return names


def tail_level(n: int) -> float:
    """The highest of TAIL_LEVELS with >= MIN_BEYOND_TAIL of n samples beyond it; 100 if none."""
    return next((lv for lv in TAIL_LEVELS if n * (1.0 - lv / 100.0) >= MIN_BEYOND_TAIL), 100.0)


def _percentile(ordered: list[float], level: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return ordered[math.ceil(level / 100.0 * len(ordered)) - 1]


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int], dict[str, list[float]]]:
    """Per span name: total self time (s), call count, and per-call self times (ms)."""
    covered = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    per_call: dict[str, list[float]] = {}
    for (name, _, t0, t1), inner in zip(spans, covered):
        own = (t1 - t0) - inner
        total[name] = total.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        per_call.setdefault(name, []).append(own * 1e3)
    return total, calls, per_call


def layer_metrics(spans: list[list], anc_runs: list) -> dict[str, float]:
    """Per-layer figures of one traced run, keyed as in ``metric_names``."""
    total, calls, per_call = self_times(spans)
    out: dict[str, float] = {}
    for layer, fns in TRACED.items():
        layer_self = 0.0
        for fn in fns:
            key = f"{layer}.{fn}"
            out[f"{key}_calls"] = calls.get(key, 0)
            out[f"{key}_s"] = total.get(key, 0.0)
            layer_self += out[f"{key}_s"]
        out[f"{layer}.self_s"] = layer_self
    out["experiments.self_s"] = total.get(ROOT_SPAN, 0.0)
    for kernel in KERNELS:
        ordered = sorted(per_call.get(kernel, []))
        out[f"{kernel}_p50_ms"] = _percentile(ordered, 50.0) if ordered else 0.0
        out[f"{kernel}_tail_ms"] = _percentile(ordered, tail_level(len(ordered))) if ordered else 0.0
    iterations = sum(it for it, _ in anc_runs)
    out["anc.iterations"] = iterations
    out["anc.converged_frac"] = (
        sum(ok for _, ok in anc_runs) / len(anc_runs) if anc_runs else 0.0
    )
    out["anc.run_anc_iter_us"] = (
        out["anc.run_anc_s"] / iterations * 1e6 if iterations else 0.0
    )
    return out
