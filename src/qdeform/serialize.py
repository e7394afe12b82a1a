"""Documents and encodings of the public result types.

A document is the dict a result is written as.  JSON writes it whole and
to_csv reads both its columns and its rows from it by the document's
"type" (one (n, prob, log_prob) row per Fock level of a distribution, the
"rows" of a QSNR sweep, the document itself as the one row of a report or
a benchmark), so the two encodings cannot disagree.

Every float in a document passes through one rule, `_finite`: a
non-finite number becomes None, so JSON is strict (null, never Infinity
or NaN) and the CSV cell is empty.  `estimable` flags the infinite-CRB
sentinel.  Floats round-trip exactly: shortest-repr decimal in JSON and CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import count
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .algebra import DeformationKind
from .estimation import EstimationReport
from .montecarlo import CrbBenchmark
from .states import PhotonDistribution, ProbeSpec, _probe, mean_photon

__all__ = [
    "spec_to_dict",
    "distribution_to_dict",
    "report_to_dict",
    "benchmark_to_dict",
    "sweep_to_dict",
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
# The CSV columns of each document type.
_CSV_COLUMNS = {"photon_distribution": DISTRIBUTION_COLUMNS, "estimation_report": REPORT_COLUMNS,
                "crb_benchmark": BENCHMARK_COLUMNS, "qsnr_sweep": SWEEP_COLUMNS}


def _finite(x: float) -> Optional[float]:
    """The one non-finite rule: inf and nan become None (JSON null); ints
    and bools pass unchanged."""
    return x if isinstance(x, int) or math.isfinite(x) else None


def spec_to_dict(spec: ProbeSpec) -> Dict[str, Any]:
    field = _probe(spec).field
    return {"family": spec.family, field: _finite(getattr(spec, field))}


def _header(doc_type: str, spec: ProbeSpec, kind: DeformationKind) -> Dict[str, Any]:
    """The keys that open a one-spec document: its type, the spec and the kind."""
    return {"type": doc_type, **spec_to_dict(spec), "kind": kind.value}


def distribution_to_dict(dist: PhotonDistribution) -> Dict[str, Any]:
    return {
        **_header("photon_distribution", dist.spec, dist.params.kind),
        "epsilon": _finite(dist.params.epsilon),
        "n_max": dist.n_max,
        "tail_bound": _finite(dist.tail_bound),
        "mean_photon": _finite(mean_photon(dist)),
        "probs": [_finite(p) for p in dist.probs.tolist()],
        "log_probs": [_finite(lp) for lp in dist.log_probs.tolist()],
    }


def report_to_dict(report: EstimationReport) -> Dict[str, Any]:
    doc = _header("estimation_report", report.spec, report.kind)
    doc.update((c, _finite(getattr(report, c))) for c in REPORT_COLUMNS)
    return doc


def benchmark_to_dict(bench: CrbBenchmark, spec: ProbeSpec,
                      kind: DeformationKind) -> Dict[str, Any]:
    doc = _header("crb_benchmark", spec, kind)
    doc.update((c, _finite(getattr(bench, c))) for c in BENCHMARK_COLUMNS)
    return doc


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


def to_csv(doc: Mapping[str, Any]) -> str:
    """CSV text of a document: the header of its type's columns, then its
    rows, each row's cells read at those columns.

    LF line endings; every line, the last included, ends in one.
    """
    doc_type = doc["type"]
    columns = _CSV_COLUMNS[doc_type]
    if doc_type == "photon_distribution":
        rows: Iterable[Sequence[Any]] = zip(count(), doc["probs"], doc["log_probs"])
    else:
        rows = ([row[c] for c in columns]
                for row in (doc["rows"] if doc_type == "qsnr_sweep" else [doc]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return buf.getvalue()
