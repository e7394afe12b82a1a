"""Fisher information, QFI and QSNR for deformation-strength estimation.

For every probe family the photon-counting statistics are an explicit
function of epsilon, so the classical Fisher information of the intensity
measurement is

    F(eps) = sum_n (d p_n / d eps)^2 / p_n = Var_p[score],

with the score d ln p_n / d eps assembled from the analytic log-weight
derivative d = d ln w_n / d eps that each probe family provides (eps_score
on the spec classes); the normalization derivative enters through
centering, which makes sum_n dp_n = 0 an exact identity.  Because the
Fock basis is unaffected by the deformation, the QFI of these families
equals F: for pure real-amplitude probes H = 4 sum_n (d psi_n)^2, and for
Fock-diagonal mixtures H reduces to the same diagonal sum.
estimation_report therefore builds its distribution once, computes F once
and reports it as H as well.  The tests compare F with the pure-state
form, which lives in the validation module.

Two parametrizations of the epsilon-family are exposed via `hold`:

  "mean_photon" (default): the intensity parameter (|alpha|^2 or beta) is
      re-solved along the family so the state's mean photon number stays
      fixed.  This is the energy-calibrated scenario behind the
      leading-order QSNR table (Q ~ eps^2 N^2 / 8 etc.); the projection
      is Var[d - lambda t] with lambda = Cov[n,d]/Cov[n,t] and t = d ln w_n
      / d ln theta up to a constant (ln_theta_score on the spec classes).
  "intensity": the raw parameter is held fixed.  This is the family a
      maximum-likelihood search over epsilon at known intensity actually
      explores, hence what the Cramer-Rao benchmark must use.

leading_order_qsnr evaluates that table.  It checks (kind, eps) by building
DeformationParams, as every build does, and takes N finite and >= 0.

calibrate_intensity solves the "mean_photon" intensity with one certified
build per iterate, so its cost is its number of iterates.  Where |eps| N
<= 1 (N the target), the regime of the QSNR table, it starts from the
intensity whose leading-order mean (the family's expansion_at) equals N
to first order, and takes Halley steps in ln theta.  Their curvature
E[(n - E n)(t - E t)^2] (+ Cov[n, t] for thermal probes, whose ln w is
linear in beta) comes from the centred vectors of the slope Cov[n, t].
Beyond that regime it starts from the given spec and takes Newton steps:
at |eps| N >> 1 the computed mean wobbles at its rounding floor between
neighbouring intensities, so any other path changes which targets
converge, and this one keeps those results.

Every quantity here comes from the analytic score, summed over the levels
with p_n above PROB_FLOOR.  When every level passes, as it does for thermal
probes, the scores are taken whole, as views; the centering and the
covariances run in place in one work buffer, with the bits of the plain
expressions.  The finite-difference check of that score, and
the other validation-only helpers, live outside the production modules,
which never import them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import DeformationKind, DeformationParams
from .errors import DivergenceError, DomainError
from .states import (
    DEFAULT_TOL,
    PhotonDistribution,
    ProbeSpec,
    _dot,
    _probe,
    build_distribution,
    mean_photon,
)

__all__ = [
    "EstimationReport",
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
# Calibration stops once the mean is within this relative tolerance of the
# target, and gives up after this many builds.
_CALIBRATION_RTOL = 1e-12
_CALIBRATION_MAX_ITER = 60
# The expansion start keeps its undeformed mean within this factor of the
# target, which a leading-order correction of order one overshoots: at
# |epsilon| N = 1 the thermal P start would be 4 N, where the solution lies
# near 3.1 N.
_START_FACTOR = 3.0


def _expansion_start(spec: ProbeSpec, params: DeformationParams, target: float) -> float:
    """ln theta at the first-order inverse of the family's leading-order
    mean: the undeformed mean u = target - (expansion_at(target) - target),
    kept within _START_FACTOR of the target.

    One step, not the root of the truncated expansion: that root cost 9%
    more builds over the benchmark's sweep-highN pool, since a quadratic or
    cubic expansion turns over (the M coherent one at |epsilon| N = 1/2)
    while the exact mean does not."""
    regime = "large" if target >= 1.0 else "small"
    u = 2.0 * target - spec.expansion_at(target, params, regime)
    u = min(max(u, target / _START_FACTOR), target * _START_FACTOR)
    if not 0.0 < u < math.inf:  # the expansion or the bounds left the floats
        u = target
    return min(max(math.log(spec.intensity_at(u)), -_LN_INTENSITY_BOUND),
               _LN_INTENSITY_BOUND)


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


def _masked(dist: PhotonDistribution):
    """(mask, pm, n): the levels with p_n above PROB_FLOOR, their renormalized
    probabilities and photon numbers (new arrays).  Callers select the same
    levels of other vectors with vector[mask], a view when every level
    passes (as for thermal probes): mask is then the full slice."""
    p = dist.probs
    mask = p > PROB_FLOOR
    n = np.arange(dist.n_max + 1, dtype=float)
    if mask.all():
        return slice(None), p / p.sum(), n
    pm = p[mask]
    pm /= pm.sum()
    return mask, pm, n[mask]


def _score_variance(pm: np.ndarray, s: np.ndarray) -> float:
    """Var_pm[s] = sum_n pm_n (s_n - E_pm[s])^2: s is centred, then squared,
    in place (every caller hands over a new score)."""
    s -= _dot(pm, s)
    s *= s
    return _dot(pm, s)


def _cov_n(pm: np.ndarray, n: np.ndarray, *xs: np.ndarray) -> list:
    """Cov_pm[n, x] for each x, as E[(x - E[x]) (n - E[n])]: n is centered
    in place, and one work buffer holds each product in turn."""
    n -= _dot(pm, n)
    work = np.empty_like(n)
    covs = []
    for x in xs:
        np.subtract(x, _dot(pm, x), out=work)
        work *= n
        covs.append(_dot(pm, work))
    return covs


def _analytic_score(dist: PhotonDistribution, hold: str):
    """(pm, s): the epsilon-score on the masked support, per the hold
    convention, as a new array that the caller may overwrite."""
    d = dist.spec.eps_score(dist.params, dist.n_max)
    mask, pm, n = _masked(dist)
    dm = d[mask]
    if hold == "intensity":
        return pm, dm
    if hold != "mean_photon":
        raise DomainError(f"hold must be 'mean_photon' or 'intensity', got {hold!r}")
    tm = dist.spec.ln_theta_score(dist)[mask]
    cov_nd, cov_nt = _cov_n(pm, n, dm, tm)
    if abs(cov_nt) < 1e-290:
        # Frozen family (e.g. near-vacuum): no intensity response to cancel.
        return pm, dm
    tm *= cov_nd / cov_nt
    dm -= tm
    return pm, dm


def _fisher(dist: PhotonDistribution, hold: str) -> float:
    """F = Var[score] per the hold convention; DivergenceError, with no
    floating-point warning, where the thermal epsilon-score overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        fisher = _score_variance(*_analytic_score(dist, hold))
    if not math.isfinite(fisher):
        raise DivergenceError(f"epsilon score overflows the float range ({dist.spec!r}, "
                              f"kind={dist.params.kind.value}, epsilon={dist.params.epsilon})")
    return fisher


def calibrate_intensity(
    spec: ProbeSpec,
    params: DeformationParams,
    mean_target: float,
    tol: float = DEFAULT_TOL,
) -> ProbeSpec:
    """Re-solve the intensity parameter theta (|alpha|^2 or beta) so the
    deformed mean photon number equals mean_target.

    Safeguarded iteration on x = ln theta for ln mean(x) = ln mean_target.
    The mean is monotone in theta, so the sign of mean - mean_target at each
    iterate bounds the root on one side; a step is taken only when it lands
    strictly inside that bracket, otherwise the bracket is bisected in x.
    Where |epsilon| mean_target <= 1 it starts from the first-order inverse
    of the leading-order mean and takes Halley steps; elsewhere it starts
    from the given spec and takes Newton steps (the module docstring says
    why).  For M at epsilon < 0 a finite divergence rate bounds theta
    (|alpha|^2 < 1/|epsilon|): the bound closes the bracket from above, and
    a start past it moves to half of it.

    The iteration stops once |mean - mean_target| <= 1e-12 max(1,
    mean_target): below one photon the rule is absolute, so a target under
    1e-12 may return a spec whose certified build is the vacuum, with mean
    0.  Raises DomainError when the target lies beyond every float
    intensity, DivergenceError when the iteration stalls or runs out;
    running out, its message names the exit (the bracket collapsed onto one
    float, or the iteration limit), the builds made and the best relative
    residual reached.
    """
    if not (math.isfinite(mean_target) and mean_target > 0):
        raise DomainError(f"mean_target must be positive, got {mean_target}")
    field = _probe(spec).field
    eps = params.epsilon
    x = math.log(getattr(spec, field))
    lo, hi = -math.inf, math.inf
    if params.kind is DeformationKind.M and eps < 0.0 and math.isfinite(spec.m_divergence_rate):
        # A finite rate is theta itself (|alpha|^2): the weights diverge from
        # theta = 1/|eps| on, and the mean grows without bound below it.  So
        # ln theta = -ln|eps| closes the bracket; a start past it halves it.
        hi = -math.log(-eps)
    halley = abs(eps) * mean_target <= 1.0  # the regime the module docstring names
    start = _expansion_start(spec, params, mean_target) if halley else x
    if start >= hi:
        start = hi - math.log(2.0)
    current = spec if start == x else replace(spec, **{field: math.exp(start)})
    scale = max(1.0, mean_target)
    best = math.inf  # smallest |mean - mean_target| reached
    stop = "the iteration limit was reached"
    for builds in range(1, _CALIBRATION_MAX_ITER + 1):
        dist = build_distribution(current, params, tol)
        mean = mean_photon(dist)
        if abs(mean - mean_target) <= _CALIBRATION_RTOL * scale:
            return current
        best = min(best, abs(mean - mean_target))
        mask, pm, n = _masked(dist)
        theta = getattr(current, field)
        x = math.log(theta)
        t = current.ln_theta_score(dist)[mask]
        (slope,) = _cov_n(pm, n, t)  # d mean / d x = Cov[n, t]; n is now centred
        if not (math.isfinite(slope) and slope != 0.0):
            raise DivergenceError(
                f"intensity calibration stalled: flat mean response at {field} = {theta}"
            )
        if (mean < mean_target) == (slope > 0.0):
            lo = x
        else:
            hi = x
        step = math.log(mean / mean_target) * mean / slope  # Newton's, on g = ln mean
        if halley:
            # d^2 mean / dx^2 = E[(n - E n)(t - E t)^2], plus Cov[n, t] where
            # t grows with x itself (dt/dx = t), from n as _cov_n centred it.
            t -= _dot(pm, t)
            t *= t
            t *= n
            curvature = _dot(pm, t) + (slope if current.linear_in_theta else 0.0)
            # Halley divides Newton's step by 1 - step g''/(2 g'); a divisor
            # below 1/2 would more than double it, and Newton's step stands.
            divisor = 1.0 - 0.5 * step * (curvature / slope - slope / mean)
            if divisor > 0.5:
                step /= divisor
        x_new = x - step
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
            stop = f"the bracket collapsed onto one float ({field} = {theta!r})"
            break
        current = replace(current, **{field: theta_new})
    raise DivergenceError(
        f"intensity calibration did not converge for target {mean_target} after "
        f"{builds} builds: {stop}; best relative residual {best / scale:.2g}, "
        f"tolerance {_CALIBRATION_RTOL:g}"
    )


def qsnr(epsilon: float, qfi: float) -> float:
    """Quantum signal-to-noise ratio eps^2 H(eps)."""
    if math.isnan(epsilon):
        raise DomainError(f"epsilon must be a number, got {epsilon}")
    if not 0 <= qfi < math.inf:  # NaN too
        raise DomainError(f"qfi must be finite and >= 0, got {qfi}")
    return epsilon * epsilon * qfi


def measurements_needed(delta: float, qsnr_value: float) -> float:
    """Measurements for a 3-sigma confidence interval at relative error delta:
    9 / (delta^2 Q); infinite when the QSNR vanishes, 0 when it is infinite."""
    if not 0 < delta < math.inf:
        raise DomainError(f"delta must be finite and > 0, got {delta}")
    if not qsnr_value >= 0:  # NaN too
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
    epsilon = DeformationParams(kind, epsilon).epsilon  # DomainError for a bad kind or eps
    if not 0.0 <= n_mean < math.inf:  # NaN too
        raise DomainError(f"n_mean must be finite and >= 0, got {n_mean}")
    try:
        const, power = _LEADING[(kind, family_class)]
    except KeyError:
        raise DomainError(
            f"family_class must be coherent/superposition/thermal, got {family_class!r}"
        ) from None
    try:
        return const * (epsilon * n_mean) ** power
    except OverflowError:  # (eps N)^k beyond the float range
        return math.inf


def family_class_of(spec: ProbeSpec) -> str:
    """Row of the leading-order table that the probe's family belongs to."""
    return _probe(spec).family_class


def estimation_report(
    spec: ProbeSpec,
    kind: DeformationKind,
    epsilon: float,
    tol: float = DEFAULT_TOL,
    hold: str = "mean_photon",
) -> EstimationReport:
    """Assemble Fisher information, QFI, QSNR, mean photon and M_delta.

    One build serves every field, and H is taken as F, the identity for
    these families.
    """
    dist = build_distribution(spec, DeformationParams(kind, epsilon), tol)
    fisher = qfi = _fisher(dist, hold)
    q = qsnr(epsilon, qfi)
    return EstimationReport(
        spec=spec,
        kind=kind,
        epsilon=epsilon,
        fisher=fisher,
        qfi=qfi,
        qsnr=q,
        mean_photon=mean_photon(dist),
        m_delta_coeff=measurements_needed(1.0, q),
    )
