"""qdeform benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload crb-mle --seed 1 --seconds 20 --trace 0

With --trace 0 it times public qdeform calls for --seconds and prints the
end-to-end metrics; with --trace 1 it runs a fixed, seed-chosen prefix of
the workload four times (plain, traced, plain, traced) and prints the
per-layer metrics. Every operation is checked against the recorded
reference digests. The last stdout line is the result JSON; the line
before it holds the environment and the details behind each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import workloads as wl
from tracing import Tracer, layer_metrics, merge

BENCHMARK_JSON = wl.ROOT / "BENCHMARK.json"
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROCESS_TIMEOUT_S = 170


@dataclass
class Tally:
    """Outcome of a sequence of timed operations."""

    latencies: List[float] = field(default_factory=list)
    by_stratum: Dict[int, List[float]] = field(default_factory=dict)
    units: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    peak_child_rss_mb: float = 0.0
    output_bytes: int = 0

    def record(self, latency: float, units: int, problems: List[str], where: str,
               stratum: Optional[int] = None) -> None:
        self.latencies.append(latency)
        if stratum is not None:
            self.by_stratum.setdefault(stratum, []).append(latency)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{where}: {'; '.join(problems)}")
        else:
            self.units += units

    @property
    def ops_per_s(self) -> float:
        busy = sum(self.latencies)
        return self.units / busy if busy > 0 else 0.0


class Session:
    """A workload after set-up: inputs, references and how to run one op."""

    def __init__(self, workload: wl.Workload) -> None:
        self.workload = workload
        self.refs, self.rtol = wl.load_reference(workload)
        if workload.in_process:
            warnings.filterwarnings("ignore", message="fewer than 50 replications")
            import qdeform  # noqa: F401  (import cost belongs to set-up)

            self.runner = wl.RUNNERS[workload.name]
        wl.WORK_DIR.mkdir(exist_ok=True)
        self.out_path = wl.WORK_DIR / "cli-out.csv"
        self.stdout_path = wl.WORK_DIR / "cli-stdout.txt"
        self.stderr_path = wl.WORK_DIR / "cli-stderr.txt"
        for op in wl.WARMUP[workload.name]:
            self.run(None, op, Tally())

    def run(self, index: Optional[int], op: dict, tally: Tally,
            launcher: Tuple[str, ...] = ()) -> None:
        """Time one operation and check it against reference `index`."""
        where = f"op {index}"
        if self.workload.in_process:
            start = time.perf_counter()
            try:
                got, problems = self.runner(op), []
            except Exception as exc:  # any raise is a failed operation
                got, problems = None, [f"{type(exc).__name__}: {exc}"]
            latency = time.perf_counter() - start
            units = op.get("reps", 1)
        else:
            argv = wl.cli_argv(op, self.out_path)
            start = time.perf_counter()
            code, rss = wl.spawn_cli(argv, self.stdout_path, self.stderr_path, launcher)
            latency = time.perf_counter() - start
            units = 1
            tally.peak_child_rss_mb = max(tally.peak_child_rss_mb, rss)
            where = f"{where} {' '.join(argv)}"
            got, problems = None, []
            if code != op["exit"]:
                problems = [f"exit {code}, expected {op['exit']}: "
                            + self.stderr_path.read_text()[-300:].strip()]
            else:
                text_path = self.out_path if "--out" in argv else self.stdout_path
                text = text_path.read_text() if code == 0 else ""
                tally.output_bytes += len(text.encode())
                got = wl.cli_digest(argv, code, text)
        if got is not None and index is not None:
            problems = wl.compare(got, self.refs[index], self.rtol)
        stratum = None if index is None else self.workload.stratum(index)
        tally.record(latency, units, problems, where, stratum)

    def run_all(self, ops: Iterable[Tuple[int, dict]], tally: Tally, **kw) -> Tally:
        for index, op in ops:
            self.run(index, op, tally, **kw)
        return tally


# --------------------------------------------------------------------------
# Statistics


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def stratified_median(by_stratum: Dict[int, List[float]]) -> float:
    """Geometric mean over strata of each stratum's median latency.

    A block holds one operation per stratum, and strata differ in cost by
    up to 10x, so the plain median sits between cost clusters and moves
    with small shifts in machine speed; per-stratum medians do not.
    """
    logs = [math.log(statistics.median(v)) for v in by_stratum.values()]
    return math.exp(statistics.fmean(logs))


def tail_latency(values: List[float], cap: float) -> Tuple[float, float]:
    """(percentile used, latency) at the highest percentile that leaves at
    least ten samples beyond it (the eleventh-largest sample), capped at
    `cap`. With eleven samples or fewer there is no such percentile, and
    the median is used."""
    n = len(values)
    pct = min(cap, 100.0 * (n - 11) / (n - 1)) if n > 11 else 50.0
    return pct, percentile(values, pct)


# --------------------------------------------------------------------------
# Environment


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment(args: argparse.Namespace) -> Dict[str, object]:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = \
            _read(f"{index}/size")
    commit = "unknown (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
    }


# --------------------------------------------------------------------------
# Timed run


def _fresh(argv: List[str]) -> float:
    """Wall time of one fresh interpreter running `argv` to a clean exit.

    A blocking wait, so the time is not rounded up to a polling interval;
    a watchdog kills a child that hangs.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=wl.child_env(), cwd=wl.ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"perfbench: {' '.join(argv)} exited {code}")
    return elapsed


def setup_seconds(args: argparse.Namespace) -> List[float]:
    """Fresh-process set-up times: imports, inputs and warm-up, then exit."""
    probe = [str(wl.BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
    return [_fresh(probe) for _ in range(SETUP_PROBES)]


def timed_run(args: argparse.Namespace, details: Dict[str, object]) -> Tuple[Tally, Dict[str, float]]:
    probes = setup_seconds(args)
    session = Session(wl.WORKLOADS[args.workload])
    tally = Tally()
    # Whole blocks only: every run then does the same stratified mix of work.
    deadline = time.perf_counter() + args.seconds
    for block in session.workload.order(args.seed):
        session.run_all(block, tally)
        if time.perf_counter() >= deadline:
            break
    rss = (tally.peak_child_rss_mb if not session.workload.in_process
           else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    tail_pct, tail = tail_latency(tally.latencies, session.workload.tail_cap)
    metrics = {
        "ops_per_s": tally.ops_per_s,
        "call_p50_ms": stratified_median(tally.by_stratum) * 1e3,
        "call_tail_ms": tail * 1e3,
        "setup_s": statistics.median(probes),
        "peak_rss_mb": rss,
    }
    details.update({
        "op_unit": session.workload.op_unit,
        "samples": len(tally.latencies),
        "p50_strata": len(tally.by_stratum),
        "plain_p50_ms": statistics.median(tally.latencies) * 1e3,
        "tail_percentile": tail_pct,
        "timed_s": sum(tally.latencies),
        "setup_probe_s": probes,
    })
    if not session.workload.in_process:
        details["near_vacuum_exit_codes"] = near_vacuum_cold(session)
    return tally, metrics


def near_vacuum_cold(session: Session) -> List[int]:
    """Exit codes of the README near-vacuum states run as cold processes."""
    codes = []
    for argv in wl.NEAR_VACUUM:
        code, _ = wl.spawn_cli(argv, session.stdout_path, session.stderr_path)
        codes.append(code)
    return codes


# --------------------------------------------------------------------------
# Traced run


def _in_process_cli(argv: List[str]) -> Tuple[int, float]:
    import qdeform.cli

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = qdeform.cli.main(argv)
    return code, time.perf_counter() - start


def import_ms() -> float:
    """Fresh `import qdeform.cli` minus a bare interpreter start (median)."""
    diffs = []
    for _ in range(IMPORT_PROBES):
        full = _fresh(["-c", "import qdeform.cli"])
        bare = _fresh(["-c", "pass"])
        diffs.append(full - bare)
    return statistics.median(diffs) * 1e3


def traced_pass(session: Session, prefix: List[Tuple[int, dict]], tracer: Tracer,
                tally: Tally) -> None:
    """Run `prefix` with span wrappers, in process or in traced CLI children."""
    if session.workload.in_process:
        tracer.install()
        try:
            for index, op in prefix:
                tracer.op = index
                session.run(index, op, tally)
        finally:
            tracer.uninstall()
        return
    spans_path = wl.WORK_DIR / "child-spans.json"
    launcher = (str(wl.BENCH_DIR / "launch.py"), str(spans_path), "--")
    for index, op in prefix:
        session.run(index, op, tally, launcher=launcher)
        merge(tracer.spans, json.loads(spans_path.read_text()), index)


def traced_run(args: argparse.Namespace, details: Dict[str, object]) -> Tuple[Tally, Dict[str, float]]:
    session = Session(wl.WORKLOADS[args.workload])
    prefix = session.workload.trace_prefix(args.seed)
    # Plain and traced passes alternate twice, so neither side gains from
    # running second; the spans come from the first traced pass.
    plain, traced, tracer = Tally(), Tally(), Tracer()
    session.run_all(prefix, plain)
    traced_pass(session, prefix, tracer, traced)
    output_bytes = traced.output_bytes
    session.run_all(prefix, plain)
    traced_pass(session, prefix, Tracer(), traced)
    tracer.dump(wl.WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json")

    metrics = layer_metrics(tracer.spans)
    metrics["serialize.output_bytes"] = output_bytes
    metrics["cli.import_ms"] = import_ms()
    main_s = cold_s = 0.0
    if not session.workload.in_process:
        main_s = statistics.mean(
            _in_process_cli(wl.cli_argv(op, session.out_path))[1] for _, op in prefix)
        cold_s = statistics.mean(plain.latencies)
    metrics["cli.main.busy_ms"] = main_s * 1e3
    metrics["cli.cold_overhead_ms"] = (cold_s - main_s) * 1e3
    near_vacuum = [_in_process_cli(list(argv))[0] for argv in wl.NEAR_VACUUM]
    metrics["cli.near_vacuum_failed"] = sum(code != 0 for code in near_vacuum)
    metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s / plain.ops_per_s
    total = Tally(attempted=plain.attempted + traced.attempted,
                  failed=plain.failed + traced.failed,
                  errors=(plain.errors + traced.errors)[:5])
    metrics["error_rate"] = total.failed / total.attempted
    details.update({
        "trace_ops": len(prefix),
        "spans": len(tracer.spans),
        "untraced_ops_per_s": plain.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "near_vacuum_exit_codes": near_vacuum,
    })
    return total, metrics


# --------------------------------------------------------------------------


def declared_units(trace: bool) -> Dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the workload and exit (times setup_s)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    wl.ensure_source()
    if args.setup_probe:
        Session(wl.WORKLOADS[args.workload])
        return 0
    units = declared_units(bool(args.trace))
    details: Dict[str, object] = {"environment": environment(args)}
    run = traced_run if args.trace else timed_run
    tally, values = run(args, details)
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")
    details["errors"] = tally.errors
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }
    wl.WORK_DIR.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (wl.WORK_DIR / f"{stem}.json").write_text(json.dumps({**result, "details": details}, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
