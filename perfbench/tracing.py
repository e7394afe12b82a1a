"""Spans around the public functions of each qdeform module.

A wrapper is installed at every binding of a public function: in its
defining module and in each qdeform module that imported it by name
(`qdeform.estimation.build_distribution`, `qdeform.states.log_delta_values`,
...), so calls made inside the package are seen too. Spans are kept in
memory as [name, start, end, parent, op, attrs] and written out at exit.

Self time: a span's duration minus the durations of the spans nested
directly in it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

MODULES = ("algebra", "states", "estimation", "montecarlo", "serialize", "cli")
LOG_WEIGHT_KERNELS = {"algebra.log_delta_values", "algebra.gamma_values"}

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _annotate(name: str, args: tuple, kwargs: dict, result: Any) -> Optional[dict]:
    """Counts read from arguments and results at the layer boundary."""
    if _module(name) == "algebra" and hasattr(result, "__len__"):
        return {"elements": len(result)}
    if name == "states.build_distribution":
        tol = args[2] if len(args) > 2 else kwargs.get("tol", "default")
        return {"support": result.n_max + 1, "key": repr((args[0], args[1], tol))}
    if name == "montecarlo.mle_epsilon":
        return {"iterations": result.iterations}
    if name == "montecarlo.crb_benchmark":
        return {"failed": result.failed}
    return None


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                span[START] = start
                stack.pop()
            span[ATTRS] = _annotate(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function at every qdeform binding of it."""
        package = importlib.import_module("qdeform")
        modules = {m: importlib.import_module(f"qdeform.{m}") for m in MODULES}
        wrappers: Dict[Callable, Callable] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


# --------------------------------------------------------------------------
# Per-layer metrics from spans


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans: List[list]) -> List[float]:
    """Per span: duration minus the durations of its direct children."""
    selfs = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            selfs[s[PARENT]] -= s[END] - s[START]
    return selfs


def _ancestors(spans: List[list], i: int):
    p = spans[i][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]


def _under(spans: List[list], i: int, names) -> Optional[int]:
    """Nearest ancestor of span i whose name is in `names`, else None."""
    for a in _ancestors(spans, i):
        if spans[a][NAME] in names:
            return a
    return None


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, except the cli.*,
    trace.* and run-level ones, which the runner measures itself."""
    selfs = layer_self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    self_ms: Dict[str, float] = defaultdict(float)
    elements: Dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        busy[name] += (s[END] - s[START]) * 1e3
        self_ms[name] += selfs[i] * 1e3
        if s[ATTRS] and "elements" in s[ATTRS]:
            elements[name] += s[ATTRS]["elements"]

    def attrs_of(name: str, key: str) -> List[Any]:
        return [s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS]]

    def per_call(num: float, den: float) -> float:
        return num / den if den else 0.0

    def count_under(child_names, parent_names) -> int:
        return sum(1 for i, s in enumerate(spans)
                   if s[NAME] in child_names and _under(spans, i, parent_names) is not None)

    out: Dict[str, float] = {}
    mle = "montecarlo.mle_epsilon"
    out[f"{mle}.calls"] = calls[mle]
    out[f"{mle}.busy_ms"] = busy[mle]
    out[f"{mle}.self_ms"] = self_ms[mle]
    out[f"{mle}.evals_per_call"] = per_call(
        count_under({"states.fixed_support_log_probs"}, {mle}), calls[mle])
    iterations = attrs_of(mle, "iterations")
    out[f"{mle}.iterations_mean"] = per_call(sum(iterations), len(iterations))
    out["montecarlo.sample_counts.calls"] = calls["montecarlo.sample_counts"]
    out["montecarlo.sample_counts.busy_ms"] = busy["montecarlo.sample_counts"]
    out["montecarlo.crb_benchmark.failed_reps"] = sum(attrs_of("montecarlo.crb_benchmark", "failed"))

    fsl = "states.fixed_support_log_probs"
    out[f"{fsl}.calls"] = calls[fsl]
    out[f"{fsl}.self_ms"] = self_ms[fsl]

    build = "states.build_distribution"
    builds = calls[build]
    out[f"{build}.calls"] = builds
    out[f"{build}.busy_ms"] = busy[build]
    out[f"{build}.self_ms"] = self_ms[build]
    out["states.build.support_mean"] = per_call(sum(attrs_of(build, "support")), builds)
    kernels_in_builds = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] in LOG_WEIGHT_KERNELS
        and _under(spans, i, LOG_WEIGHT_KERNELS) is None
        and _under(spans, i, {build}) is not None)
    out["states.build.rounds_per_call"] = per_call(kernels_in_builds, builds)
    out["states.build.distinct_ratio"] = per_call(len(set(attrs_of(build, "key"))), builds)
    out["states.cat_distribution.inner_builds"] = count_under(
        {"states.coherent_distribution"}, {"states.cat_distribution"})

    for fn in ("calibrate_intensity", "estimation_report"):
        name = f"estimation.{fn}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_ms"] = busy[name]
        out[f"{name}.self_ms"] = self_ms[name]
        out[f"{name}.builds_per_call"] = per_call(count_under({build}, {name}), calls[name])
    for fn in ("classical_fisher", "qfi_pure"):
        name = f"estimation.{fn}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_ms"] = busy[name]

    for fn in ("log_delta_values", "gamma_values", "dlog_delta_values", "dgamma_values"):
        name = f"algebra.{fn}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = self_ms[name]
        out[f"{name}.elements"] = elements[name]

    outer_serialize = [i for i, s in enumerate(spans)
                       if _module(s[NAME]) == "serialize"
                       and not any(_module(spans[a][NAME]) == "serialize"
                                   for a in _ancestors(spans, i))]
    out["serialize.calls"] = len(outer_serialize)
    out["serialize.busy_ms"] = sum((spans[i][END] - spans[i][START]) * 1e3
                                   for i in outer_serialize)
    return out


def merge(spans: List[list], child: List[list], op: int) -> None:
    """Append a child process's spans, re-basing parent indices."""
    base = len(spans)
    for s in child:
        spans.append([s[NAME], s[START], s[END],
                      s[PARENT] + base if s[PARENT] >= 0 else -1, op, s[ATTRS]])
