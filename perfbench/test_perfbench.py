"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import itertools
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl
from tracing import Tracer, layer_metrics, layer_self_times

wl.ensure_source()
SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def _prefix(name, seed, n=8):
    return list(itertools.islice(wl.WORKLOADS[name].order(seed), n))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_fixes_inputs(name):
    assert _prefix(name, 5) == _prefix(name, 5)
    assert _prefix(name, 5) != _prefix(name, 6)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_references_match_pool(name):
    digests, rtol = wl.load_reference(wl.WORKLOADS[name])
    assert len(digests) == len(wl.WORKLOADS[name].pool())
    assert rtol == wl.RTOL


def test_gate_tolerance():
    ref = {"fisher": 2.0, "bias_sigma": 0.25, "failed": 0}
    assert wl.compare({"fisher": 2.0 * (1 + 1e-8), "bias_sigma": 0.25 + 1e-8, "failed": 0},
                      ref, wl.RTOL) == []
    assert wl.compare({"fisher": 2.0 * (1 + 1e-5), "bias_sigma": 0.25, "failed": 0},
                      ref, wl.RTOL)
    assert wl.compare({"fisher": 2.0, "bias_sigma": 0.25 + 1e-5, "failed": 0}, ref, wl.RTOL)
    assert wl.compare({"fisher": 2.0, "bias_sigma": 0.25, "failed": 1}, ref, wl.RTOL)


def test_self_time_on_synthetic_nested_trace():
    # name, start, end, parent, op, attrs
    spans = [
        ["estimation.estimation_report", 0.0, 10.0, -1, 0, None],     # 0
        ["estimation.classical_fisher", 1.0, 6.0, 0, 0, None],        # 1
        ["states.build_distribution", 2.0, 5.0, 1, 0, None],          # 2
        ["algebra.log_delta_values", 3.0, 4.0, 2, 0, {"elements": 7}],  # 3
        ["algebra.gamma_values", 7.0, 9.0, 0, 0, {"elements": 5}],    # 4
    ]
    assert layer_self_times(spans) == [3.0, 2.0, 2.0, 1.0, 2.0]
    m = layer_metrics(spans)
    assert m["estimation.estimation_report.self_ms"] == 3000.0
    assert m["estimation.estimation_report.busy_ms"] == 10000.0
    assert m["estimation.estimation_report.builds_per_call"] == 1.0
    assert m["states.build.rounds_per_call"] == 1.0
    assert m["algebra.log_delta_values.elements"] == 7


def test_wrappers_reach_calls_inside_the_package():
    import qdeform.estimation

    original = qdeform.estimation.build_distribution
    op = wl.WORKLOADS["sweep-lowN"].blocks[0][0]
    tracer = Tracer()
    tracer.install()
    try:
        wl.run_sweep_point(op)
    finally:
        tracer.uninstall()
    assert qdeform.estimation.build_distribution is original
    m = layer_metrics(tracer.spans)
    assert m["states.build_distribution.calls"] >= 4
    assert m["states.build.rounds_per_call"] >= 1.0
    assert m["estimation.estimation_report.builds_per_call"] == 3.0


def test_acceptance_configuration_trace():
    tracer = Tracer()
    tracer.install()
    try:
        digest = wl.run_crb(wl.ACCEPTANCE)
    finally:
        tracer.uninstall()
    assert digest["ratio"] == 1.0320606863862418
    m = layer_metrics(tracer.spans)
    assert m["states.fixed_support_log_probs.calls"] == 10_600
    assert m["montecarlo.mle_epsilon.evals_per_call"] == 53.0


def test_tail_latency_rule():
    values = [float(i) for i in range(100)]
    pct, value = run.tail_latency(values, 100.0)
    assert value == 89.0 and sum(v > value for v in values) == 10
    assert run.tail_latency(values, 80.0) == (80.0, run.percentile(values, 80.0))
    assert run.tail_latency(values[:5], 100.0) == (50.0, 2.0)


def _run(args, cwd=wl.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(trace):
    proc = _run(["--workload", "sweep-lowN", "--seed", "3", "--seconds", "1",
                 "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program():
    bare = wl.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(wl.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(["--workload", "crb-mle", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_stratified_median():
    # Geometric mean of the per-stratum medians 2 and 8.
    assert run.stratified_median({0: [1.0, 2.0, 3.0], 1: [8.0]}) == pytest.approx(4.0)
    assert wl.WORKLOADS["crb-mle"].stratum(0) is None
    assert wl.WORKLOADS["crb-mle"].stratum(1 + 6 * 5 + 2) == 2
