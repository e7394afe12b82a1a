"""Steadiness check: two sets of timed runs of one commit, compared.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Set 1 runs first, then set 2; each run uses its own seed (set k, run i ->
seed 1000*k + i + 1). For each workload and end-to-end metric it prints
both sets' medians and quartiles, the spread (Q3 - Q1) / median, and a
verdict against the metric's bound in BENCHMARK.json:

  unresolved  a set's spread is wider than the bound
  disagree    the two medians differ by more than the bound, taken as a
              share of the better one (in either direction, so the
              verdict does not depend on which set ran faster)
  ok          otherwise ("steady" when every spread is below bound / 3)

Results are also written to .perfbench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List

import workloads as wl

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(wl.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def verdict(metric: dict, sets: List[List[float]]) -> Dict[str, object]:
    bound = metric["bound"]
    rows = []
    for values in sets:
        q1, med, q3 = quartiles(values)
        rows.append({"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med})
    spreads = [r["spread"] for r in rows]
    first, second = rows[0]["median"], rows[1]["median"]
    apart = abs(first - second) / min(first, second)
    if max(spreads) > bound:
        status = "unresolved"
    elif apart > bound:
        status = "disagree"
    elif max(spreads) < bound / 3:
        status = "steady"
    else:
        status = "ok"
    return {"sets": rows, "apart": apart, "bound": bound, "status": status}


def main() -> int:
    parser = argparse.ArgumentParser(description="two sets of runs, compared")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    results: Dict[str, List[List[dict]]] = {n: [[] for _ in range(SETS)] for n in names}
    for k in range(SETS):
        for i in range(args.runs):
            for name in names:
                seed = 1000 * k + i + 1
                result = run_once(name, seed, SPEC["run_seconds"])
                results[name][k].append(result)
                if not result["correct"]:
                    print(f"{name} seed {seed}: {result['failed']}/{result['attempted']} "
                          "operations failed the correctness gate", file=sys.stderr)
    report = {}
    worst = "steady"
    for name in names:
        report[name] = {}
        print(f"\n{name}")
        for metric in SPEC["end_to_end"]:
            sets = [[r["metrics"][metric["name"]]["value"] for r in runs]
                    for runs in results[name]]
            v = verdict(metric, sets)
            report[name][metric["name"]] = v
            cells = "  ".join(f"med {r['median']:.5g} [{r['q1']:.5g}, {r['q3']:.5g}] "
                              f"spread {r['spread']:.3f}" for r in v["sets"])
            print(f"  {metric['name']:14s} {metric['unit']:4s} {cells}  "
                  f"apart {v['apart']:.3f}  bound {v['bound']}  {v['status']}")
            if v["status"] in ("unresolved", "disagree"):
                worst = "failing"
            elif v["status"] == "ok" and worst == "steady":
                worst = "ok"
        fails = sum(r["failed"] for runs in results[name] for r in runs)
        print(f"  correctness: {fails} failed operations")
    wl.WORK_DIR.mkdir(exist_ok=True)
    (wl.WORK_DIR / "steady.json").write_text(json.dumps(
        {"report": report, "runs": results}, indent=1))
    print(f"\noverall: {worst}")
    return 0 if worst != "failing" else 1


if __name__ == "__main__":
    raise SystemExit(main())
