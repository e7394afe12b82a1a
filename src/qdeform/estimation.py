"""Fisher information, QFI and QSNR for deformation-strength estimation.

For every probe family the photon-counting statistics are an explicit
function of epsilon, so the classical Fisher information of the intensity
measurement is

    F(eps) = sum_n (d p_n / d eps)^2 / p_n = Var_p[score],

with the score d ln p_n / d eps assembled from the analytic log-weight
derivatives that each probe family provides (eps_score and
intensity_score on the spec classes); the normalization derivative enters
through centering, which makes sum_n dp_n = 0 an exact identity (checked
at run time).  Because the Fock basis is unaffected by the deformation,
the QFI of these families equals F: for pure real-amplitude probes
H = 4 sum_n (d psi_n)^2, and for Fock-diagonal mixtures H reduces to the
same diagonal sum.  An analytic estimation_report therefore builds its
distribution once, computes F once and reports it as H as well; qfi_pure
and qfi_diagonal keep the separate formulas, which the tests compare
with F.

Two parametrizations of the epsilon-family are exposed via `hold`:

  "mean_photon" (default): the intensity parameter (|alpha|^2 or beta) is
      re-solved along the family so the state's mean photon number stays
      fixed.  This is the energy-calibrated scenario behind the
      leading-order QSNR table (Q ~ eps^2 N^2 / 8 etc.); the projection
      is Var[d - lambda t] with lambda = Cov[n,d]/Cov[n,t].
  "intensity": the raw parameter is held fixed.  This is the family a
      maximum-likelihood search over epsilon at known intensity actually
      explores, hence what the Cramer-Rao benchmark must use.

Finite differences (central, with a step-halving Richardson pair) are kept
as a validation path for the analytic derivatives.  One stencil yields both
F and H there, and estimation_report checks F <= H on that path.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .algebra import DeformationKind, DeformationParams
from .errors import DerivativeInstabilityError, DivergenceError, DomainError
from .states import (
    PhotonDistribution,
    ProbeSpec,
    _probe,
    build_distribution,
    fixed_support_log_probs,
    mean_photon,
)

__all__ = [
    "DerivativeConfig",
    "EstimationReport",
    "classical_fisher",
    "qfi_pure",
    "qfi_diagonal",
    "qsnr",
    "measurements_needed",
    "leading_order_qsnr",
    "estimation_report",
    "calibrate_intensity",
]

PROB_FLOOR = 1e-30
# Calibration keeps ln(intensity) within +-this bound: inside the float
# range, and a beta large enough that thermal weights underflow before the
# level coefficients gamma_n overflow (beta * gamma_n reaches about e^9.8).
_LN_INTENSITY_BOUND = 700.0

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DerivativeConfig:
    """How epsilon-derivatives are evaluated.

    method "analytic" uses closed-form log-weight derivatives; "fd" uses
    central finite differences at `step` (default max(1e-7, 1e-3 |eps|)),
    returning the Richardson extrapolant of the step and half-step values
    and raising DerivativeInstabilityError when the pair disagrees by more
    than richardson_rtol in relative terms.
    """

    method: str = "analytic"
    step: Optional[float] = None
    richardson_rtol: float = 1e-4
    prob_floor: float = PROB_FLOOR

    def __post_init__(self) -> None:
        if self.method not in ("analytic", "fd"):
            raise DomainError(f"method must be 'analytic' or 'fd', got {self.method!r}")

    def step_for(self, epsilon: float) -> float:
        if self.step is not None:
            return self.step
        return max(1e-7, 1e-3 * abs(epsilon))


@dataclass(frozen=True)
class EstimationReport:
    """Information quantities of one (probe, kind, epsilon) configuration.

    m_delta_coeff is the coefficient of 1/delta^2 in the measurement
    budget: M_delta = m_delta_coeff / delta^2 (infinite when qsnr = 0).
    """

    spec: ProbeSpec
    kind: DeformationKind
    epsilon: float
    fisher: float
    qfi: float
    qsnr: float
    mean_photon: float
    m_delta_coeff: float


def _masked(dist: PhotonDistribution, floor: float):
    p = dist.probs
    mask = p > floor
    pm = p[mask]
    pm = pm / pm.sum()
    n = np.arange(dist.n_max + 1, dtype=float)[mask]
    return mask, pm, n


def _score_variance(pm: np.ndarray, s: np.ndarray) -> float:
    sc = s - float(pm @ s)
    # dp_n = p_n * sc_n must sum to zero identically; guard the assembly.
    resid = abs(float(pm @ sc))
    scale = float(pm @ np.abs(sc))
    if resid > 1e-10 * max(1.0, scale):
        raise RuntimeError(f"normalization-derivative identity violated: {resid}")
    return float(pm @ (sc * sc))


def _report_dropped(dist: PhotonDistribution, d: np.ndarray, mask: np.ndarray,
                    floor: float) -> None:
    """Bound the Fisher contribution of sub-floor terms (debug report)."""
    dropped = (~mask) & (dist.probs > 0.0) & np.isfinite(d)
    if not (np.any(dropped) or dist.tail_bound > 0.0):
        return
    if logger.isEnabledFor(logging.DEBUG):
        center = float(dist.probs[mask] @ d[mask]) / float(dist.probs[mask].sum())
        bound = float(dist.probs[dropped] @ (d[dropped] - center) ** 2)
        logger.debug(
            "Fisher sum dropped %d terms below %.1e: bounded contribution "
            "%.3e, plus certified tail mass %.3e",
            int(dropped.sum()), floor, bound, dist.tail_bound,
        )


def _analytic_score(dist: PhotonDistribution, hold: str, floor: float):
    """Centered epsilon-score on the masked support, per the hold convention."""
    d = dist.spec.eps_score(dist.params, dist.n_max)
    mask, pm, n = _masked(dist, floor)
    _report_dropped(dist, d, mask, floor)
    dm = d[mask]
    if hold == "intensity":
        return pm, dm
    if hold != "mean_photon":
        raise DomainError(f"hold must be 'mean_photon' or 'intensity', got {hold!r}")
    tm = dist.spec.intensity_score(dist.params, dist.n_max)[mask]
    nc = n - float(pm @ n)
    dc = dm - float(pm @ dm)
    tc = tm - float(pm @ tm)
    cov_nd = float(pm @ (nc * dc))
    cov_nt = float(pm @ (nc * tc))
    if abs(cov_nt) < 1e-290:
        # Frozen family (e.g. near-vacuum): no intensity response to cancel.
        return pm, dm
    lam = cov_nd / cov_nt
    return pm, dm - lam * tm


def calibrate_intensity(
    spec: ProbeSpec,
    params: DeformationParams,
    mean_target: float,
    tol: float = 1e-12,
    rtol: float = 1e-12,
    max_iter: int = 60,
) -> ProbeSpec:
    """Re-solve the intensity parameter theta (|alpha|^2 or beta) so the
    deformed mean photon number equals mean_target.

    Safeguarded Newton on x = ln theta for ln mean(x) = ln mean_target.  The
    mean is monotone in theta, so the sign of mean - mean_target at each
    iterate bounds the root on one side; a Newton step is taken only when
    it lands strictly inside that bracket, otherwise the bracket is bisected
    in x.  For M at epsilon < 0 a finite divergence rate bounds theta
    (|alpha|^2 < 1/|epsilon|): the bound closes the bracket from above, and
    a start past it moves to half of it.  Raises DomainError when the target
    lies beyond every float intensity, DivergenceError when the iteration
    stalls or runs out.
    """
    if not (math.isfinite(mean_target) and mean_target > 0):
        raise DomainError(f"mean_target must be positive, got {mean_target}")
    field = _probe(spec).field
    current = spec
    lo, hi = -math.inf, math.inf
    rate, eps = spec.m_divergence_rate, params.epsilon
    if params.kind is DeformationKind.M and eps < 0.0 and math.isfinite(rate):
        # A finite rate is theta itself (|alpha|^2): the weights diverge from
        # theta / (rate |eps|) = 1/|eps| on, and the mean grows without bound
        # below it.  That bound closes the bracket; a start past it halves it.
        x = math.log(getattr(spec, field))
        hi = x - math.log(rate * -eps)
        if x >= hi:
            current = replace(spec, **{field: math.exp(hi - math.log(2.0))})
    for _ in range(max_iter):
        dist = build_distribution(current, params, tol)
        mean = mean_photon(dist)
        if abs(mean - mean_target) <= rtol * max(1.0, mean_target):
            return current
        mask, pm, n = _masked(dist, PROB_FLOOR)
        theta = getattr(current, field)
        x = math.log(theta)
        u = theta * current.intensity_score(params, dist.n_max)[mask]  # d ln w_n / d x
        slope = float(pm @ ((n - float(pm @ n)) * (u - float(pm @ u))))  # d mean / d x
        if not (math.isfinite(slope) and slope != 0.0):
            raise DivergenceError(
                f"intensity calibration stalled: flat mean response at {field} = {theta}"
            )
        if (mean < mean_target) == (slope > 0.0):
            lo = x
        else:
            hi = x
        x_new = x - math.log(mean / mean_target) * mean / slope
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x_new = min(max(x_new, -_LN_INTENSITY_BOUND), _LN_INTENSITY_BOUND)
        theta_new = math.exp(x_new)
        if theta_new == theta:
            if abs(x_new) == _LN_INTENSITY_BOUND:
                raise DomainError(
                    f"mean photon number {mean_target} is out of reach: {field} "
                    f"would have to leave [e^-{_LN_INTENSITY_BOUND:g}, e^{_LN_INTENSITY_BOUND:g}]"
                )
            break  # the bracket has collapsed onto one float
        current = replace(current, **{field: theta_new})
    raise DivergenceError(f"intensity calibration did not converge for target {mean_target}")


def _fd_probs(
    center: PhotonDistribution,
    h: float,
    tol: float,
    hold: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Probabilities at eps and the four-point stencil, on a common support."""
    spec, kind, epsilon = center.spec, center.params.kind, center.params.epsilon
    target = mean_photon(center)
    stencil = [epsilon - h, epsilon - h / 2, epsilon + h / 2, epsilon + h]
    specs = []
    n_support = center.n_max
    for e in stencil:
        pe = DeformationParams(kind, e)
        se = calibrate_intensity(spec, pe, target, tol) if hold == "mean_photon" else spec
        specs.append(se)
        n_support = max(n_support, build_distribution(se, pe, tol).n_max)
    cols = [np.exp(fixed_support_log_probs(spec, center.params, n_support))]
    for e, se in zip(stencil, specs):
        cols.append(np.exp(fixed_support_log_probs(se, DeformationParams(kind, e), n_support)))
    pc, pm1, pm2, pp2, pp1 = cols
    return pc, pm1, pm2, pp2, pp1


def _fd_information(
    center: PhotonDistribution,
    cfg: DerivativeConfig,
    tol: float,
    hold: str,
) -> Tuple[float, float]:
    """Richardson extrapolants of F = sum dp^2/p and H = 4 sum (d sqrt p)^2
    from one stencil at steps h and h/2; raises DerivativeInstabilityError
    when either pair disagrees by more than cfg.richardson_rtol."""
    h = cfg.step_for(center.params.epsilon)
    pc, pm1, pm2, pp2, pp1 = _fd_probs(center, h, tol, hold)
    mask = pc > cfg.prob_floor

    def fisher_at(plus, minus, step):
        dp = (plus[mask] - minus[mask]) / (2.0 * step)
        return float(np.sum(dp * dp / pc[mask]))

    def qfi_at(plus, minus, step):
        dpsi = (np.sqrt(plus[mask]) - np.sqrt(minus[mask])) / (2.0 * step)
        return 4.0 * float(np.sum(dpsi * dpsi))

    out = []
    for name, at in (("Fisher", fisher_at), ("QFI", qfi_at)):
        f_h = at(pp1, pm1, h)
        f_h2 = at(pp2, pm2, h / 2)
        f_rich = (4.0 * f_h2 - f_h) / 3.0
        if abs(f_h - f_h2) > cfg.richardson_rtol * max(abs(f_rich), 1e-300):
            raise DerivativeInstabilityError(
                f"finite-difference {name} estimates disagree: {f_h} vs {f_h2} at step {h}"
            )
        out.append(f_rich)
    return out[0], out[1]


def classical_fisher(
    spec: ProbeSpec,
    kind: DeformationKind,
    epsilon: float,
    deriv: Optional[DerivativeConfig] = None,
    tol: float = 1e-12,
    hold: str = "mean_photon",
) -> float:
    """Classical Fisher information of photon counting for estimating epsilon."""
    cfg = deriv or DerivativeConfig()
    dist = build_distribution(spec, DeformationParams(kind, epsilon), tol)
    if cfg.method == "fd":
        return _fd_information(dist, cfg, tol, hold)[0]
    pm, s = _analytic_score(dist, hold, cfg.prob_floor)
    return _score_variance(pm, s)


def qfi_pure(
    spec: ProbeSpec,
    kind: DeformationKind,
    epsilon: float,
    deriv: Optional[DerivativeConfig] = None,
    tol: float = 1e-12,
    hold: str = "mean_photon",
) -> float:
    """QFI of a pure real-amplitude probe (coherent or cat): 4 sum (d psi_n)^2."""
    if not _probe(spec).pure:
        raise DomainError("qfi_pure applies to pure probes (coherent, cat)")
    cfg = deriv or DerivativeConfig()
    dist = build_distribution(spec, DeformationParams(kind, epsilon), tol)
    if cfg.method == "fd":
        return _fd_information(dist, cfg, tol, hold)[1]
    pm, s = _analytic_score(dist, hold, cfg.prob_floor)
    sc = s - float(pm @ s)
    dpsi = 0.5 * np.sqrt(pm) * sc  # d psi = psi * (d ln p)/2 for real psi
    return 4.0 * float(np.sum(dpsi * dpsi))


def qfi_diagonal(
    spec: ProbeSpec,
    kind: DeformationKind,
    epsilon: float,
    deriv: Optional[DerivativeConfig] = None,
    tol: float = 1e-12,
    hold: str = "mean_photon",
) -> float:
    """QFI of a Fock-diagonal probe (thermal): the off-diagonal sector drops
    because Fock states do not move with epsilon, leaving the classical sum."""
    if _probe(spec).pure:
        raise DomainError("qfi_diagonal applies to Fock-diagonal probes (thermal)")
    return classical_fisher(spec, kind, epsilon, deriv, tol, hold)


def qsnr(epsilon: float, qfi: float) -> float:
    """Quantum signal-to-noise ratio eps^2 H(eps)."""
    if qfi < 0:
        raise DomainError(f"qfi must be >= 0, got {qfi}")
    return epsilon * epsilon * qfi


def measurements_needed(delta: float, qsnr_value: float) -> float:
    """Measurements for a 3-sigma confidence interval at relative error delta:
    9 / (delta^2 Q); infinite when the QSNR vanishes."""
    if delta <= 0:
        raise DomainError(f"delta must be > 0, got {delta}")
    if qsnr_value < 0:
        raise DomainError(f"qsnr must be >= 0, got {qsnr_value}")
    if qsnr_value == 0.0:
        return math.inf
    return 9.0 / (delta * delta * qsnr_value)


_LEADING = {
    (DeformationKind.M, "coherent"): (0.125, 2),
    (DeformationKind.M, "superposition"): (0.125, 2),
    (DeformationKind.M, "thermal"): (1.0, 2),
    (DeformationKind.P, "coherent"): (2.0 / 9.0, 4),
    (DeformationKind.P, "superposition"): (2.0 / 9.0, 4),
    (DeformationKind.P, "thermal"): (40.0, 4),
}


def leading_order_qsnr(
    family_class: str,
    kind: DeformationKind,
    epsilon: float,
    n_mean: float,
) -> float:
    """Pinned leading-order QSNR table: c (eps N)^2 for M, c (eps N)^4 for P."""
    try:
        const, power = _LEADING[(kind, family_class)]
    except KeyError:
        raise DomainError(
            f"family_class must be coherent/superposition/thermal, got {family_class!r}"
        ) from None
    return const * (epsilon * n_mean) ** power


def family_class_of(spec: ProbeSpec) -> str:
    """Row of the leading-order table that the probe's family belongs to."""
    return _probe(spec).family_class


def estimation_report(
    spec: ProbeSpec,
    kind: DeformationKind,
    epsilon: float,
    deriv: Optional[DerivativeConfig] = None,
    tol: float = 1e-12,
    hold: str = "mean_photon",
) -> EstimationReport:
    """Assemble Fisher information, QFI, QSNR, mean photon and M_delta.

    One build serves every field.  Analytically H is taken as F, the
    identity for these families; the finite-difference path estimates both
    from one stencil and checks F <= H.
    """
    cfg = deriv or DerivativeConfig()
    dist = build_distribution(spec, DeformationParams(kind, epsilon), tol)
    if cfg.method == "fd":
        fisher, qfi = _fd_information(dist, cfg, tol, hold)
        if not spec.pure:
            qfi = fisher  # Fock-diagonal: H is the classical sum (qfi_diagonal)
        if fisher > qfi * (1.0 + 1e-8) + 1e-300:
            raise DerivativeInstabilityError(
                f"finite-difference F = {fisher} exceeds QFI = {qfi}"
            )
    else:
        pm, s = _analytic_score(dist, hold, cfg.prob_floor)
        fisher = qfi = _score_variance(pm, s)
    q = qsnr(epsilon, qfi)
    return EstimationReport(
        spec=spec,
        kind=kind,
        epsilon=epsilon,
        fisher=fisher,
        qfi=qfi,
        qsnr=q,
        mean_photon=mean_photon(dist),
        m_delta_coeff=math.inf if q == 0.0 else 9.0 / q,
    )
