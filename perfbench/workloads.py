"""Workload inputs, the public calls they time, and the correctness gate.

Every workload draws its operations from a fixed pool. The pool is built
from POOL_SEED with Python's `random.Random`, whose `random()` stream is
reproducible across Python versions, so the recorded reference digests in
`reference/<workload>.json` stay valid. The run seed only chooses the
order in which pool blocks, and the operations inside each block, are
visited. The same seed therefore gives the same inputs, and another seed
gives another sequence.

Pools are built in blocks. A block holds one operation per stratum of the
input space (family x kind x size stratum for the sweeps, one per template
elsewhere), so any run that covers whole blocks does the same mix of work
whatever its seed. That keeps run-to-run spread small enough to resolve
the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".perfbench_out"

POOL_SEED = 20261017
# Relative tolerance of the correctness gate. Loose enough for the ~1e-8
# relative drift of replacing scipy's logsumexp (which moves golden-section
# MLE estimates by at most xtol), tight enough that a changed estimator,
# Fisher sum or calibration fails.
RTOL = 1e-6

FAMILIES = ("coherent", "thermal", "cat")
KINDS = ("M", "P")
EPS_MIN = 1e-5


def ensure_source() -> None:
    """Fail fast when the checkout holds no qdeform source tree."""
    if not (SRC / "qdeform" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qdeform sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters that import qdeform from SRC."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _loguniform(rng: random.Random, lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _sig(x: float, digits: int = 6) -> float:
    return float(f"{x:.{digits}g}")


def _shuffled(rng: random.Random, items: Sequence[Any]) -> List[Any]:
    """Fisher-Yates on `rng.random()` only, so the order is version-stable."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        out[i], out[j] = out[j], out[i]
    return out


# --------------------------------------------------------------------------
# Pools


def _sweep_blocks(lo: float, hi: float, blocks: int, strata: int, tag: int) -> List[List[dict]]:
    """Calibrated QSNR points: N log-uniform on [lo, hi], eps log-uniform on
    [1e-5, min(0.1, 1/N)], Latin-hypercube stratified per (family, kind)."""
    rng = random.Random(POOL_SEED * 10 + tag)
    out = []
    for _ in range(blocks):
        block = []
        for family in FAMILIES:
            for kind in KINDS:
                eps_strata = _shuffled(rng, range(strata))
                for s in range(strata):
                    n = _loguniform(rng, lo, hi, (s + rng.random()) / strata)
                    eps_hi = min(0.1, 1.0 / n)
                    u = (eps_strata[s] + rng.random()) / strata
                    block.append({
                        "family": family,
                        "kind": kind,
                        "n": _sig(n),
                        "epsilon": _sig(_loguniform(rng, EPS_MIN, eps_hi, u)),
                    })
        out.append(block)
    return out


ACCEPTANCE = {"family": "thermal", "kind": "M", "x": 20.0, "epsilon": 5e-3,
              "shots": 10_000, "reps": 200, "seed": 7}

_CRB_TEMPLATES = (
    # (family, kind, intensity range, epsilon range)
    ("coherent", "M", (5.0, 15.0), (5e-3, 2e-2)),
    ("cat", "P", (3.0, 8.0), (0.03, 0.08)),
    ("thermal", "M", (5.0, 25.0), (2e-3, 1e-2)),
)
CRB_REPS = 20
CRB_SHOTS = (2000, 5000)


def _crb_blocks(blocks: int) -> List[List[dict]]:
    """Small crb_benchmark calls, one per template and shot count, so every
    stratum holds calls of one cost; `x` is |alpha|^2 or the thermal mean."""
    rng = random.Random(POOL_SEED * 10 + 3)
    out = []
    for _ in range(blocks):
        block = []
        for family, kind, (xlo, xhi), (elo, ehi) in _CRB_TEMPLATES:
            for shots in CRB_SHOTS:
                block.append({
                    "family": family,
                    "kind": kind,
                    "x": _sig(xlo + (xhi - xlo) * rng.random()),
                    "epsilon": _sig(_loguniform(rng, elo, ehi, rng.random())),
                    "shots": shots,
                    "reps": CRB_REPS,
                    "seed": int(rng.random() * 2**31),
                })
        out.append(block)
    return out


def _cli_blocks(blocks: int) -> List[List[dict]]:
    """README examples as argv lists, with the exit code each must give."""
    rng = random.Random(POOL_SEED * 10 + 4)

    def u(lo: float, hi: float) -> str:
        return repr(_sig(lo + (hi - lo) * rng.random(), 4))

    def le(lo: float, hi: float) -> str:
        return repr(_sig(_loguniform(rng, lo, hi, rng.random()), 4))

    out = []
    for b in range(blocks):
        kind = KINDS[b % 2]
        block = [
            ["state", "coherent", "--alpha-sq", u(0.5, 20), "--kind", kind,
             "--epsilon", le(1e-5, 1e-2)],
            ["state", "thermal", "--n-mean", u(0.5, 20), "--kind", kind,
             "--epsilon", le(1e-5, 1e-2), "--format", "csv"],
            ["state", "cat", "--alpha-sq", u(1, 10), "--kind", kind,
             "--epsilon", le(1e-5, 1e-2)],
            # Large-support thermal CSV (~400 KB) through the atomic --out path.
            ["state", "thermal", "--n-mean", u(300, 360), "--kind", "M",
             "--epsilon", le(1e-7, 1e-5), "--format", "csv", "--out", "@OUT"],
            ["fisher", "--family", "coherent", "--alpha-sq", u(2, 30), "--kind", kind,
             "--epsilon", le(1e-4, 1e-2)],
            ["fisher", "--family", "thermal", "--n-mean", u(2, 30), "--kind", "M",
             "--epsilon", le(1e-4, 1e-2), "--hold", "intensity", "--format", "csv"],
            ["qsnr", "--family", ("coherent", "cat")[b % 2], "--kind", kind,
             "--epsilons", le(1e-4, 1e-3) + "," + le(1e-3, 1e-2),
             "--n-values", u(2, 10) + "," + u(10, 40)],
            ["benchmark", "--family", "coherent", "--alpha-sq", u(5, 15), "--kind", "M",
             "--epsilon", le(5e-3, 2e-2), "--shots", "2000", "--reps", str(CRB_REPS),
             "--seed", str(int(rng.random() * 2**31))],
        ]
        ops = [{"argv": argv, "exit": 0} for argv in block]
        ops += [
            {"argv": ["state", "coherent", "--kind", kind, "--epsilon", "0"],
             "exit": 1},  # usage error: --alpha-sq missing
            {"argv": ["state", "coherent", "--alpha-sq", u(0.5, 5), "--kind", kind,
                      "--epsilon=" + repr(-1.0 - _sig(rng.random(), 3))],
             "exit": 2},  # domain error: epsilon <= -1
            {"argv": ["state", "thermal", "--n-mean", u(1, 10), "--kind", "M",
                      "--epsilon=-" + le(1e-4, 1e-2)],
             "exit": 3},  # divergence: M thermal with epsilon < 0
        ]
        out.append(ops)
    return out


# Near-vacuum thermal states that the README contract says must succeed
# (exit 0). They are rejected at the commit that defined this benchmark, so
# they run outside the timed mix and are reported as their own count.
NEAR_VACUUM = (
    ["state", "thermal", "--beta", "700", "--kind", "M", "--epsilon", "0"],
    ["state", "thermal", "--beta", "700", "--kind", "P", "--epsilon", "0.1"],
)


@dataclass(frozen=True)
class Workload:
    name: str
    op_unit: str  # what one call to `run` counts as in ops_per_s
    blocks: List[List[dict]]
    head: Tuple[dict, ...]  # operations every run starts with
    trace_blocks: int  # blocks after `head` in the traced run
    tail_cap: float = 100.0  # highest percentile call_tail_ms may use
    in_process: bool = True

    def pool(self) -> List[dict]:
        return list(self.head) + [op for block in self.blocks for op in block]

    def order(self, seed: int) -> Iterator[List[Tuple[int, dict]]]:
        """Blocks of (pool index, op) forever: `head` as one block, then the
        pool's blocks in seeded order, each shuffled, pass after pass."""
        rng = random.Random(seed)
        if self.head:
            yield list(enumerate(self.head))
        base = len(self.head)
        width = len(self.blocks[0])
        while True:
            for b in _shuffled(rng, range(len(self.blocks))):
                yield [(base + b * width + k, self.blocks[b][k])
                       for k in _shuffled(rng, range(width))]

    def stratum(self, index: int) -> Optional[int]:
        """Position of pool op `index` within its block; None for `head` ops."""
        if index < len(self.head):
            return None
        return (index - len(self.head)) % len(self.blocks[0])

    def trace_prefix(self, seed: int) -> List[Tuple[int, dict]]:
        """The ops of the traced run: `head` and the first trace_blocks blocks."""
        blocks = self.order(seed)
        count = self.trace_blocks + (1 if self.head else 0)
        return [op for _ in range(count) for op in next(blocks)]


WORKLOADS: Dict[str, Workload] = {
    "crb-mle": Workload("crb-mle", "MLE replication", _crb_blocks(24),
                        (ACCEPTANCE,), trace_blocks=1),
    "sweep-lowN": Workload("sweep-lowN", "sweep point",
                           _sweep_blocks(1.0, 40.0, 128, 4, tag=1), (),
                           trace_blocks=20, tail_cap=95.0),
    "sweep-highN": Workload("sweep-highN", "sweep point",
                            _sweep_blocks(200.0, 5000.0, 32, 4, tag=2), (),
                            trace_blocks=4, tail_cap=95.0),
    "cli-cold": Workload("cli-cold", "CLI process", _cli_blocks(8), (),
                         trace_blocks=1, in_process=False),
}

# Untimed warm-up inputs, disjoint from the pools. They cover the largest
# supports of each workload so lazy set-up (imports, allocator growth for
# big arrays, bytecode caches) is paid before timing starts.
WARMUP = {
    "crb-mle": [dict(op, shots=1000, reps=4, seed=1) for op in
                ({"family": f, "kind": k, "x": xr[1], "epsilon": er[0]}
                 for f, k, xr, er in _CRB_TEMPLATES)],
    "sweep-lowN": [{"family": f, "kind": k, "n": n, "epsilon": 0.5 / n}
                   for f in FAMILIES for k in KINDS for n in (1.5, 39.0)],
    "sweep-highN": [{"family": f, "kind": k, "n": n, "epsilon": 0.5 / n}
                    for f in FAMILIES for k in KINDS for n in (250.0, 4900.0)],
    "cli-cold": [{"argv": ["state", "coherent", "--alpha-sq", "1", "--kind", "M",
                           "--epsilon", "0"], "exit": 0}],
}


def inputs_digest(workload: Workload) -> str:
    text = json.dumps(workload.pool(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# Operations on the public API


def _spec(qd, family: str, x: float):
    if family == "coherent":
        return qd.CoherentSpec(alpha_sq=x)
    if family == "cat":
        return qd.CatSpec(alpha_sq=x)
    return qd.ThermalSpec.from_mean_photon(x)


def run_sweep_point(op: dict) -> Dict[str, float]:
    """One calibrated QSNR point: calibrate_intensity + estimation_report +
    leading_order_qsnr, as the `qsnr` subcommand does it."""
    import qdeform as qd
    from qdeform.estimation import family_class_of

    kind = qd.DeformationKind(op["kind"])
    eps, n = op["epsilon"], op["n"]
    spec = qd.calibrate_intensity(_spec(qd, op["family"], n),
                                  qd.DeformationParams(kind, eps), n)
    report = qd.estimation_report(spec, kind, eps)
    leading = qd.leading_order_qsnr(family_class_of(spec), kind, eps, n)
    return {"fisher": report.fisher, "qfi": report.qfi, "qsnr": report.qsnr,
            "mean_photon": report.mean_photon, "qsnr_leading": leading}


def run_crb(op: dict) -> Dict[str, float]:
    """One crb_benchmark call."""
    import qdeform as qd

    bench = qd.crb_benchmark(_spec(qd, op["family"], op["x"]),
                             qd.DeformationKind(op["kind"]), op["epsilon"],
                             op["shots"], op["reps"], op["seed"])
    return {"ratio": bench.ratio, "bias_sigma": bench.bias / math.sqrt(bench.crb),
            "failed": bench.failed}


def cli_argv(op: dict, out_path: Path) -> List[str]:
    return [str(out_path) if a == "@OUT" else a for a in op["argv"]]


def spawn_cli(argv: Sequence[str], stdout_path: Path, stderr_path: Path,
              launcher: Sequence[str] = ()) -> Tuple[int, float]:
    """Run one fresh CLI process; returns (exit code, child peak RSS in MB).

    os.wait4 reports the resource usage of exactly this child.
    """
    cmd = [sys.executable, *launcher] if launcher else [sys.executable, "-m", "qdeform.cli"]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen([*cmd, *argv], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Digests of CLI output


def _csv_columns(text: str) -> Dict[str, List[str]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    cols: Dict[str, List[str]] = {h: [] for h in header}
    for line in lines[1:]:
        for h, cell in zip(header, line.split(",")):
            cols[h].append(cell)
    return cols


def _distribution_digest(probs: List[float], log_probs: List[Any]) -> Dict[str, float]:
    finite = [lp for lp in log_probs if lp is not None]
    return {
        "n_max": len(probs) - 1,
        "probs_sum": math.fsum(probs),
        "mean": math.fsum(n * p for n, p in enumerate(probs)),
        "log_prob_0": finite[0],
        "log_prob_last": finite[-1],
    }


def cli_digest(argv: Sequence[str], code: int, text: str) -> Dict[str, float]:
    """Exit code plus the numbers a user reads from one CLI output."""
    digest: Dict[str, float] = {"exit": code}
    if code != 0:
        return digest
    csv = "--format" in argv and argv[argv.index("--format") + 1] == "csv"
    command = argv[0]
    if command == "state":
        if csv:
            cols = _csv_columns(text)
            probs = [float(p) for p in cols["prob"]]
            logs = [float(c) if c else None for c in cols["log_prob"]]
        else:
            doc = json.loads(text)
            probs, logs = doc["probs"], doc["log_probs"]
            digest["tail_bound"] = doc["tail_bound"]
        digest.update(_distribution_digest(probs, logs))
        return digest
    if csv:
        cols = _csv_columns(text)
        rows = [dict(zip(cols, vals)) for vals in zip(*cols.values())]
    else:
        doc = json.loads(text)
        rows = doc["rows"] if command == "qsnr" else [doc]
    for i, row in enumerate(rows):
        if command == "benchmark":
            crb = float(row["crb"])
            digest[f"{i}.ratio"] = float(row["ratio"])
            digest[f"{i}.bias_sigma"] = float(row["bias"]) / math.sqrt(crb)
            digest[f"{i}.failed"] = int(row["failed"])
            continue
        for key in ("fisher", "qfi", "qsnr", "mean_photon"):
            digest[f"{i}.{key}"] = float(row[key])
    return digest


# --------------------------------------------------------------------------
# Reference digests


def _field_kind(name: str) -> str:
    if name in ("exit", "n_max") or name.endswith("failed"):
        return "exact"
    if name.endswith("bias_sigma"):
        return "abs"  # bias in units of the CRB standard deviation
    return "rel"


def compare(got: Dict[str, float], ref: Dict[str, float], rtol: float) -> List[str]:
    """Mismatches between a digest and its reference, as readable strings."""
    problems = []
    if set(got) != set(ref):
        return [f"fields {sorted(got)} != reference {sorted(ref)}"]
    for name, want in ref.items():
        have = got[name]
        kind = _field_kind(name)
        if kind == "exact":
            ok = have == want
        elif kind == "abs":
            ok = abs(have - want) <= rtol
        else:
            ok = abs(have - want) <= rtol * abs(want)
        if not ok:
            problems.append(f"{name}: got {have!r}, reference {want!r}")
    return problems


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(workload: Workload) -> Tuple[List[Dict[str, float]], float]:
    """Reference digests by pool index, and their tolerance."""
    path = reference_path(workload.name)
    if not path.is_file():
        raise SystemExit(f"perfbench: missing reference digests {path}")
    data = json.loads(path.read_text())
    if data["inputs_sha256"] != inputs_digest(workload):
        raise SystemExit(f"perfbench: {path.name} was recorded for other inputs")
    return data["digests"], float(data["rtol"])


def reference_data(workload: Workload, digests: List[Dict[str, float]]) -> dict:
    """The reference file contents, values rounded to ten digits."""
    rounded = [{k: (v if isinstance(v, int) else float(f"{v:.10g}")) for k, v in d.items()}
               for d in digests]
    return {"workload": workload.name, "rtol": RTOL,
            "inputs_sha256": inputs_digest(workload), "digests": rounded}


RUNNERS: Dict[str, Callable[[dict], Dict[str, float]]] = {
    "crb-mle": run_crb,
    "sweep-lowN": run_sweep_point,
    "sweep-highN": run_sweep_point,
}
