"""Photon statistics of q-deformed optical states and the quantum limits
to estimating the deformation strength from intensity measurements."""

from .algebra import (
    DeformationKind,
    DeformationParams,
    log_delta,
    q_number,
)
from .errors import (
    BenchmarkError,
    DivergenceError,
    DomainError,
    OutOfSupportError,
)
from .estimation import (
    EstimationReport,
    calibrate_intensity,
    classical_fisher,
    estimation_report,
    leading_order_qsnr,
    measurements_needed,
    qsnr,
)
from .montecarlo import (
    CountSample,
    CrbBenchmark,
    MleResult,
    crb_benchmark,
    mle_epsilon,
    sample_counts,
)
from .states import (
    CatSpec,
    CoherentSpec,
    PhotonDistribution,
    ProbeSpec,
    ThermalSpec,
    build_distribution,
    mean_photon,
    mean_photon_expansion,
)

__version__ = "0.1.0"

__all__ = [
    "DeformationKind",
    "DeformationParams",
    "q_number",
    "log_delta",
    "CoherentSpec",
    "ThermalSpec",
    "CatSpec",
    "ProbeSpec",
    "PhotonDistribution",
    "build_distribution",
    "mean_photon",
    "mean_photon_expansion",
    "EstimationReport",
    "classical_fisher",
    "qsnr",
    "measurements_needed",
    "leading_order_qsnr",
    "estimation_report",
    "calibrate_intensity",
    "CountSample",
    "MleResult",
    "CrbBenchmark",
    "sample_counts",
    "mle_epsilon",
    "crb_benchmark",
    "DomainError",
    "DivergenceError",
    "OutOfSupportError",
    "BenchmarkError",
    "__version__",
]
