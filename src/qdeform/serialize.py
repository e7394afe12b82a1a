"""JSON/CSV conversion for the public result types.

JSON documents are strict (no Infinity tokens): -inf log-probabilities and
the infinite-CRB sentinel are encoded as null, with `estimable` flagging
the latter.  Floats round-trip exactly (shortest-repr decimal on both the
JSON and CSV paths).
"""

from __future__ import annotations

import csv
import math
from typing import Any, Dict, IO, List

import numpy as np

from .algebra import DeformationKind, DeformationParams
from .errors import DomainError
from .estimation import EstimationReport
from .montecarlo import CrbBenchmark
from .states import FAMILIES, PhotonDistribution, ProbeSpec, _probe, mean_photon

__all__ = [
    "spec_to_dict",
    "spec_from_dict",
    "distribution_to_dict",
    "distribution_from_dict",
    "report_to_dict",
    "report_from_dict",
    "benchmark_to_dict",
    "benchmark_from_dict",
    "write_distribution_csv",
    "write_report_csv",
    "write_benchmark_csv",
    "write_sweep_csv",
    "SWEEP_COLUMNS",
]

SWEEP_COLUMNS = [
    "epsilon",
    "n_target",
    "mean_photon",
    "fisher",
    "qfi",
    "qsnr",
    "qsnr_leading",
    "ratio",
    "valid_regime",
]


def spec_to_dict(spec: ProbeSpec) -> Dict[str, Any]:
    field = _probe(spec).field
    return {"family": spec.family, field: getattr(spec, field)}


def spec_from_dict(data: Dict[str, Any]) -> ProbeSpec:
    family = data["family"]
    if family not in FAMILIES:
        raise DomainError(f"unknown probe family {family!r}")
    cls = FAMILIES[family]
    return cls(**{cls.field: float(data[cls.field])})


def distribution_to_dict(dist: PhotonDistribution) -> Dict[str, Any]:
    return {
        "type": "photon_distribution",
        **spec_to_dict(dist.spec),
        "kind": dist.params.kind.value,
        "epsilon": dist.params.epsilon,
        "n_max": dist.n_max,
        "tail_bound": dist.tail_bound,
        "mean_photon": mean_photon(dist),
        "probs": [float(p) for p in dist.probs],
        "log_probs": [None if math.isinf(lp) else float(lp) for lp in dist.log_probs],
    }


def distribution_from_dict(data: Dict[str, Any]) -> PhotonDistribution:
    probs = np.array(data["probs"], dtype=float)
    log_probs = np.array(
        [-math.inf if lp is None else float(lp) for lp in data["log_probs"]]
    )
    return PhotonDistribution(
        probs=probs,
        log_probs=log_probs,
        n_max=int(data["n_max"]),
        tail_bound=float(data["tail_bound"]),
        params=DeformationParams(DeformationKind(data["kind"]), float(data["epsilon"])),
        spec=spec_from_dict(data),
    )


def report_to_dict(report: EstimationReport) -> Dict[str, Any]:
    return {
        "type": "estimation_report",
        **spec_to_dict(report.spec),
        "kind": report.kind.value,
        "epsilon": report.epsilon,
        "fisher": report.fisher,
        "qfi": report.qfi,
        "qsnr": report.qsnr,
        "mean_photon": report.mean_photon,
        "m_delta_coeff": None if math.isinf(report.m_delta_coeff) else report.m_delta_coeff,
    }


def report_from_dict(data: Dict[str, Any]) -> EstimationReport:
    coeff = data["m_delta_coeff"]
    return EstimationReport(
        spec=spec_from_dict(data),
        kind=DeformationKind(data["kind"]),
        epsilon=float(data["epsilon"]),
        fisher=float(data["fisher"]),
        qfi=float(data["qfi"]),
        qsnr=float(data["qsnr"]),
        mean_photon=float(data["mean_photon"]),
        m_delta_coeff=math.inf if coeff is None else float(coeff),
    )


def benchmark_to_dict(bench: CrbBenchmark, spec: ProbeSpec,
                      kind: DeformationKind) -> Dict[str, Any]:
    def _num(x: float):
        return None if (isinstance(x, float) and not math.isfinite(x)) else x

    return {
        "type": "crb_benchmark",
        **spec_to_dict(spec),
        "kind": kind.value,
        "epsilon_true": bench.epsilon_true,
        "shots": bench.shots,
        "replications": bench.replications,
        "seed": bench.seed,
        "empirical_var": _num(bench.empirical_var),
        "crb": _num(bench.crb),
        "ratio": _num(bench.ratio),
        "bias": _num(bench.bias),
        "estimable": bench.estimable,
        "failed": bench.failed,
    }


def benchmark_from_dict(data: Dict[str, Any]) -> CrbBenchmark:
    def _num(value, sentinel):
        return sentinel if value is None else float(value)

    return CrbBenchmark(
        epsilon_true=float(data["epsilon_true"]),
        shots=int(data["shots"]),
        replications=int(data["replications"]),
        seed=int(data["seed"]),
        empirical_var=_num(data["empirical_var"], math.nan),
        crb=_num(data["crb"], math.inf),
        ratio=_num(data["ratio"], math.nan),
        bias=_num(data["bias"], math.nan),
        estimable=bool(data["estimable"]),
        failed=int(data["failed"]),
    )


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_distribution_csv(dist: PhotonDistribution, stream: IO[str]) -> None:
    """Columns: n,prob,log_prob (one row per retained Fock level)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["n", "prob", "log_prob"])
    for n in range(dist.n_max + 1):
        lp = dist.log_probs[n]
        writer.writerow([n, _fmt(float(dist.probs[n])),
                         "" if math.isinf(lp) else _fmt(float(lp))])


def write_report_csv(report: EstimationReport, stream: IO[str]) -> None:
    """Single row with the estimation-report scalars."""
    writer = csv.writer(stream, lineterminator="\n")
    cols = ["epsilon", "fisher", "qfi", "qsnr", "mean_photon", "m_delta_coeff"]
    writer.writerow(cols)
    coeff = report.m_delta_coeff
    writer.writerow([
        _fmt(report.epsilon),
        _fmt(report.fisher),
        _fmt(report.qfi),
        _fmt(report.qsnr),
        _fmt(report.mean_photon),
        "" if math.isinf(coeff) else _fmt(coeff),
    ])


def write_benchmark_csv(bench: CrbBenchmark, stream: IO[str]) -> None:
    """Single row with the benchmark scalars (blank cells for sentinels)."""
    writer = csv.writer(stream, lineterminator="\n")
    cols = ["epsilon_true", "shots", "replications", "seed", "empirical_var",
            "crb", "ratio", "bias", "estimable", "failed"]
    writer.writerow(cols)

    def cell(x):
        if isinstance(x, float) and not math.isfinite(x):
            return ""
        return _fmt(x)

    writer.writerow([
        _fmt(bench.epsilon_true), bench.shots, bench.replications, bench.seed,
        cell(bench.empirical_var), cell(bench.crb), cell(bench.ratio),
        cell(bench.bias), _fmt(bench.estimable), bench.failed,
    ])


def write_sweep_csv(rows: List[Dict[str, Any]], stream: IO[str]) -> None:
    """QSNR sweep table; fixed column order per SWEEP_COLUMNS."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in SWEEP_COLUMNS])
