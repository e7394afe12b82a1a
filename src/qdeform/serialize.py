"""Documents and encodings of the public result types.

A document is the dict a result is written as.  JSON writes it whole and
CSV reads its rows from it (one row for a report or a benchmark, the
"rows" of a QSNR sweep, one (n, prob, log_prob) row per Fock level of a
distribution), so the two encodings cannot disagree.

Every float in a document passes through one rule, `_finite`: a
non-finite number becomes None, so JSON is strict (null, never Infinity
or NaN) and the CSV cell is empty.  `estimable` flags the infinite-CRB
sentinel, and the `*_from_dict` readers map null back to the sentinels.
Floats round-trip exactly: shortest-repr decimal in JSON and CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

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
    "sweep_to_dict",
    "distribution_rows",
    "to_json",
    "to_csv",
    "DISTRIBUTION_COLUMNS",
    "REPORT_COLUMNS",
    "BENCHMARK_COLUMNS",
    "SWEEP_COLUMNS",
]

DISTRIBUTION_COLUMNS = ["n", "prob", "log_prob"]
REPORT_COLUMNS = ["epsilon", "fisher", "qfi", "qsnr", "mean_photon", "m_delta_coeff"]
BENCHMARK_COLUMNS = ["epsilon_true", "shots", "replications", "seed", "empirical_var",
                     "crb", "ratio", "bias", "estimable", "failed"]
# The keys of a sweep row, in order; sweep_to_dict builds each row from them.
SWEEP_COLUMNS = ["epsilon", "n_target", "mean_photon", "fisher", "qfi", "qsnr",
                 "qsnr_leading", "ratio", "valid_regime"]


def _finite(x: float) -> Optional[float]:
    """The one non-finite rule: inf and nan become None (JSON null)."""
    return x if math.isfinite(x) else None


def spec_to_dict(spec: ProbeSpec) -> Dict[str, Any]:
    field = _probe(spec).field
    return {"family": spec.family, field: _finite(getattr(spec, field))}


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
        "epsilon": _finite(dist.params.epsilon),
        "n_max": dist.n_max,
        "tail_bound": _finite(dist.tail_bound),
        "mean_photon": _finite(mean_photon(dist)),
        "probs": [_finite(p) for p in dist.probs.tolist()],
        "log_probs": [_finite(lp) for lp in dist.log_probs.tolist()],
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
        "epsilon": _finite(report.epsilon),
        "fisher": _finite(report.fisher),
        "qfi": _finite(report.qfi),
        "qsnr": _finite(report.qsnr),
        "mean_photon": _finite(report.mean_photon),
        "m_delta_coeff": _finite(report.m_delta_coeff),
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
    return {
        "type": "crb_benchmark",
        **spec_to_dict(spec),
        "kind": kind.value,
        "epsilon_true": _finite(bench.epsilon_true),
        "shots": bench.shots,
        "replications": bench.replications,
        "seed": bench.seed,
        "empirical_var": _finite(bench.empirical_var),
        "crb": _finite(bench.crb),
        "ratio": _finite(bench.ratio),
        "bias": _finite(bench.bias),
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


def sweep_to_dict(family: str, kind: DeformationKind, calibrated: bool,
                  points: Iterable[Tuple[float, float, EstimationReport, float]]
                  ) -> Dict[str, Any]:
    """QSNR sweep document from (epsilon, n_target, report, qsnr_leading)
    points, one row per point with the keys of SWEEP_COLUMNS.

    ratio is qsnr / qsnr_leading, and null where qsnr_leading is 0;
    valid_regime marks |epsilon| n_target <= 1.
    """
    rows = []
    for eps, n_target, report, leading in points:
        ratio = report.qsnr / leading if leading > 0 else math.nan
        numbers = (eps, n_target, report.mean_photon, report.fisher, report.qfi,
                   report.qsnr, leading, ratio)
        rows.append(dict(zip(SWEEP_COLUMNS, [*map(_finite, numbers),
                                             abs(eps) * n_target <= 1.0])))
    return {
        "type": "qsnr_sweep",
        "family": family,
        "kind": kind.value,
        "calibrated": calibrated,
        "rows": rows,
    }


def distribution_rows(doc: Mapping[str, Any]) -> Iterator[Dict[str, Any]]:
    """CSV rows of a distribution document: n, prob, log_prob per level."""
    for n, (prob, log_prob) in enumerate(zip(doc["probs"], doc["log_probs"])):
        yield {"n": n, "prob": prob, "log_prob": log_prob}


def to_json(doc: Mapping[str, Any]) -> str:
    """Strict JSON text of a document (no trailing newline)."""
    return json.dumps(doc, indent=2, allow_nan=False)


def _cell(value: Any) -> str:
    """A CSV cell: null is empty, a bool is true/false, a float its repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def to_csv(columns: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> str:
    """CSV text: the header, then each row's cells read at `columns`.

    LF line endings; every line, the last included, ends in one.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row[c]) for c in columns] for row in rows)
    return buf.getvalue()
