"""Validation oracles: independent routes to quantities that the production
modules compute another way.  Nothing in the package imports this module;
the tests do.

  qfi_pure                       H = 4 sum (d psi_n)^2 of a pure probe, the
                                 second route to H = F
  fixed_support_log_probs        ln p_n over a given support at one epsilon,
                                 for stencils that must share their outcomes
  log_likelihood                 a sample's log-likelihood at one epsilon, the
                                 objective the lockstep MLE maximizes
  log_likelihood_gradient        d/d eps of a sample's log-likelihood, which
                                 vanishes at the maximum-likelihood estimate
  fd_information                 F and H from central finite differences of
                                 the probabilities, against the analytic score;
                                 DerivativeInstabilityError when they are noise
  log_q_number_values            ln [j] of one epsilon, the closed form
                                 checked against mpmath and finite
                                 differences (builds read algebra's kept
                                 level vectors instead)
  g_product                      the finite product prod (1 - a b^k), whose
                                 closed Delta_n forms lose digits near eps = 0
  delta_series, gamma_series     leading small-epsilon expansions of Delta_n
                                 and gamma_n
  cat_normalization_crosscheck   the cat normalization from the
                                 alternating-sum formula and directly
  m_zero_information             F at M, eps = 0 from 50-digit moment sums of
                                 the undeformed law, where the score is a
                                 polynomial in n
  p_zero_information             the limit of F (1 + eps)^2 / ln(1 + eps)^2
                                 at P, eps -> 0, from the same sums
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .algebra import DeformationKind, DeformationParams, _log_q_rows
from .errors import DomainError, OutOfSupportError
from .estimation import PROB_FLOOR, _analytic_score, calibrate_intensity
from .montecarlo import _LOG_SUPPORT_FLOOR, CountSample, _counts_arrays
from .states import (
    DEFAULT_TOL,
    CatSpec,
    CoherentSpec,
    PhotonDistribution,
    ProbeSpec,
    _check_normalizable,
    _fixed_support_weight_rows,
    _probe,
    build_distribution,
    mean_photon,
)

__all__ = [
    "qfi_pure",
    "fixed_support_log_probs",
    "log_likelihood",
    "log_likelihood_gradient",
    "fd_information",
    "log_q_number_values",
    "g_product",
    "delta_series",
    "gamma_series",
    "cat_normalization_crosscheck",
    "m_zero_information",
    "p_zero_information",
    "DerivativeInstabilityError",
]


class DerivativeInstabilityError(RuntimeError):
    """Finite-difference stencils at step h and h/2 disagree beyond tolerance."""


def qfi_pure(
    spec: ProbeSpec,
    kind: DeformationKind,
    epsilon: float,
    tol: float = DEFAULT_TOL,
    hold: str = "mean_photon",
) -> float:
    """QFI of a pure real-amplitude probe (coherent or cat): 4 sum (d psi_n)^2."""
    if not _probe(spec).pure:
        raise DomainError("qfi_pure applies to pure probes (coherent, cat)")
    dist = build_distribution(spec, DeformationParams(kind, epsilon), tol)
    pm, s = _analytic_score(dist, hold)
    sc = s - float(pm @ s)
    dpsi = 0.5 * np.sqrt(pm) * sc  # d psi = psi * (d ln p)/2 for real psi
    return 4.0 * float(np.sum(dpsi * dpsi))


def fixed_support_log_probs(
    spec: ProbeSpec,
    params: DeformationParams,
    n_support: int,
) -> np.ndarray:
    """ln p_n for n = 0..n_support, normalized over exactly that support.

    For finite-difference stencils, where several nearby states must share
    one outcome support.  The caller is responsible for sizing n_support so
    the omitted mass is negligible (e.g. from an adaptive build at the
    slowest-decaying parameter point).
    """
    if n_support < 0:
        raise DomainError("n_support must be >= 0")
    _check_normalizable(spec, params)
    lnw, norm = _fixed_support_weight_rows(spec, params.kind, [params.epsilon], n_support)
    return lnw[0] - norm[0]


def log_likelihood(
    sample: CountSample,
    spec: ProbeSpec,
    kind: DeformationKind,
    epsilon: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Sum of counts[n] ln p_n(epsilon) over the certified support, widened
    to the largest observed n."""
    ns, cs = _counts_arrays(sample)
    params = DeformationParams(kind, epsilon)
    n_support = max(build_distribution(spec, params, tol).n_max, int(ns[-1]))
    lp = fixed_support_log_probs(spec, params, n_support)[ns]
    if lp.min() < _LOG_SUPPORT_FLOOR:
        raise OutOfSupportError(
            f"observed outcome n={int(ns[np.argmin(lp)])} has "
            f"probability below 1e-300 at epsilon={params.epsilon}"
        )
    return float(cs @ lp)


def log_likelihood_gradient(
    sample: CountSample,
    spec: ProbeSpec,
    kind: DeformationKind,
    epsilon: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """d/d epsilon of the log-likelihood, from the analytic score."""
    ns, cs = _counts_arrays(sample)
    dist = build_distribution(spec, DeformationParams(kind, epsilon), tol)
    if int(ns[-1]) > dist.n_max:
        raise OutOfSupportError(
            f"observed outcome n={int(ns[-1])} beyond certified support {dist.n_max}"
        )
    pm, s = _analytic_score(dist, "intensity")
    sbar = float(pm @ s)
    d_full = spec.eps_score(dist.params, dist.n_max)
    return float(cs @ (d_full[ns] - sbar))


def fd_information(
    spec: ProbeSpec,
    kind: DeformationKind,
    epsilon: float,
    tol: float = DEFAULT_TOL,
    hold: str = "mean_photon",
    step: Optional[float] = None,
    richardson_rtol: float = 1e-4,
) -> Tuple[float, float]:
    """(F, H) from central finite differences of the photon probabilities.

    One stencil at steps h and h/2 (h defaults to max(1e-7, 1e-3 |eps|))
    gives the Richardson extrapolants of F = sum dp^2/p and, for pure
    probes, H = 4 sum (d sqrt p)^2; for Fock-diagonal probes H is F.
    Raises DerivativeInstabilityError when a step pair disagrees by more
    than richardson_rtol relative, or when F exceeds H by more than that
    same accuracy.
    """
    if hold not in ("mean_photon", "intensity"):
        raise DomainError(f"hold must be 'mean_photon' or 'intensity', got {hold!r}")
    center = build_distribution(spec, DeformationParams(kind, epsilon), tol)
    h = step if step is not None else max(1e-7, 1e-3 * abs(epsilon))
    fisher, qfi = _richardson(_fd_probs(center, h, tol, hold), h, richardson_rtol)
    if not spec.pure:
        qfi = fisher  # Fock-diagonal: H is the classical sum
    if fisher > qfi * (1.0 + richardson_rtol) + 1e-300:
        raise DerivativeInstabilityError(
            f"finite-difference F = {fisher} exceeds QFI = {qfi}"
        )
    return fisher, qfi


def _fd_probs(center: PhotonDistribution, h: float, tol: float, hold: str) -> List[np.ndarray]:
    """Probabilities at eps and at eps -h, -h/2, +h/2, +h, on a common support."""
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
    return cols


def _richardson(cols: List[np.ndarray], h: float, rtol: float) -> Tuple[float, float]:
    """Richardson extrapolants of F and 4 sum (d sqrt p)^2 from the step pair."""
    pc, pm1, pm2, pp2, pp1 = cols
    mask = pc > PROB_FLOOR

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
        if abs(f_h - f_h2) > rtol * max(abs(f_rich), 1e-300):
            raise DerivativeInstabilityError(
                f"finite-difference {name} estimates disagree: {f_h} vs {f_h2} at step {h}"
            )
        out.append(f_rich)
    return out[0], out[1]


def log_q_number_values(params: DeformationParams, n_max: int) -> np.ndarray:
    """ln [j] for j = 0..n_max (index 0 holds -inf since [0] = 0)."""
    return _log_q_rows(params.kind, [params.epsilon], n_max)[0]


def g_product(a: float, b: float, n: int) -> float:
    """The finite product prod_{k=0}^{n-1} (1 - a b^k); empty product is 1.

    Near epsilon = 0 this form loses digits to cancellation, which is why
    the production path builds Delta_n from per-level logarithms instead.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    out = 1.0
    term = float(a)
    for _ in range(n):
        out *= 1.0 - term
        term *= b
    return out


def delta_series(params: DeformationParams, n: int) -> float:
    """First-nonvanishing-order expansion of Delta_n around epsilon = 0.

    M: n! (1 + eps n(n-1)/4);  P: n! (1 + eps^2 n(n-1)(2n+5)/36).
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    eps = params.epsilon
    fact = math.exp(math.lgamma(n + 1))
    if params.kind is DeformationKind.M:
        return fact * (1.0 + 0.25 * eps * n * (n - 1))
    return fact * (1.0 + eps * eps * n * (n - 1) * (2 * n + 5) / 36.0)


def gamma_series(params: DeformationParams, n: int) -> float:
    """Leading small-epsilon truncation of gamma_n = [n]:
    n + eps n(n-1)/2 for M, n + eps^2 n(n^2-1)/6 for P."""
    if n < 0:
        raise DomainError("n must be >= 0")
    eps = params.epsilon
    if params.kind is DeformationKind.M:
        return n + 0.5 * eps * n * (n - 1)
    return n + eps * eps * n * (n * n - 1) / 6.0


def cat_normalization_crosscheck(
    spec: CatSpec,
    params: DeformationParams,
    tol: float = DEFAULT_TOL,
) -> Tuple[float, float]:
    """The cat normalization W computed two ways (they must agree).

    Returns (from the alternating-sum formula 2[1 + C(-x)/C(x)],
    from direct even-term summation 4 S_even / C(x)).
    """
    coherent = CoherentSpec(spec.alpha_sq)
    dist = build_distribution(coherent, params, tol)
    lnw = coherent.log_weight_rows(params.kind, [params.epsilon], dist.n_max)[0]
    m = float(np.max(lnw))
    w = np.exp(lnw - m)
    c_plus = float(np.sum(w))
    s_even = float(np.sum(w[0::2]))
    s_odd = float(np.sum(w[1::2]))
    c_minus = s_even - s_odd
    w_formula = 2.0 * (1.0 + c_minus / c_plus)
    w_direct = 4.0 * s_even / c_plus
    return w_formula, w_direct


# The epsilon-score's limit polynomial d(n) at epsilon -> 0, by kind and
# purity, with h = beta/2 for thermal probes; d^2 grows like n^(2 degree).
_ZERO_SCORES = {
    (DeformationKind.M, True): (2, lambda n, h: -n * (n - 1) / 4),
    (DeformationKind.M, False): (2, lambda n, h: -h * n * n),
    (DeformationKind.P, True): (3, lambda n, h: -(n * (n + 1) * (2 * n + 1) / 6 - n) / 3),
    (DeformationKind.P, False): (3, lambda n, h: -h / 3 * n * (n + 1) * (2 * n + 1)),
}


def _zero_information(spec: ProbeSpec, kind: DeformationKind, hold: str) -> float:
    """Var_p[d] at hold="intensity" and Var_p[d] - Cov[n, d]^2 / Var[n] at
    hold="mean_photon", with d from _ZERO_SCORES and p the undeformed law
    of spec (Poisson, even-Poisson or geometric), from 50-digit sums.  The
    intensity score is affine in n, which is why removing its component
    removes the n component of d.  The sums run until the terms
    w_n (n + 1)^(2 degree) fall below 1e-60 of the weight summed so far."""
    import mpmath as mp

    if hold not in ("mean_photon", "intensity"):
        raise DomainError(f"hold must be 'mean_photon' or 'intensity', got {hold!r}")
    _probe(spec)
    degree, score = _ZERO_SCORES[kind, spec.pure]
    with mp.workdps(50):
        if spec.pure:
            x, half_beta = mp.mpf(spec.alpha_sq), None
        else:
            half_beta = mp.mpf(spec.beta) / 2
            r = mp.exp(-2 * half_beta)
        sums = [mp.mpf(0)] * 6  # of w, w n, w n^2, w d, w d^2, w n d
        w, n, tiny = mp.mpf(1), 0, mp.mpf(10) ** -60
        while w * (n + 1) ** (2 * degree) >= tiny * sums[0]:
            if n % spec.step == 0:
                d = score(mp.mpf(n), half_beta)
                for k, v in enumerate((1, n, n * n, d, d * d, n * d)):
                    sums[k] += w * v
            n += 1
            w *= x / n if spec.pure else r
        z = sums[0]
        mean_n, mean_d = sums[1] / z, sums[3] / z
        var_n = sums[2] / z - mean_n ** 2
        var_d = sums[4] / z - mean_d ** 2
        cov = sums[5] / z - mean_n * mean_d
        return float(var_d if hold == "intensity" else var_d - cov ** 2 / var_n)


def m_zero_information(spec: ProbeSpec, hold: str = "mean_photon") -> float:
    """F of photon counting at M, epsilon = 0, from 50-digit sums.

    There the epsilon-score d is a polynomial in n: -n(n-1)/4 for coherent
    and cat probes, -(beta/2) n^2 for thermal ones.  A coherent probe at
    |alpha|^2 = N gives N^3/4 + N^2/8 and N^2/8.
    """
    return _zero_information(spec, DeformationKind.M, hold)


def p_zero_information(spec: ProbeSpec, hold: str = "mean_photon") -> float:
    """The limit c of F(eps) (1 + eps)^2 / L^2 as eps -> 0 at P, with
    L = ln(1 + eps), from 50-digit sums.

    F is even in L (q and 1/q give one state), and d ln p_n / dL is L times
    a polynomial in n up to O(L^3): -(sum_{j<=n} j^2 - n)/3 for coherent
    and cat probes, -(beta/3) n(n+1)(2n+1)/2 for thermal ones.  So
    F(eps) (1 + eps)^2 = c L^2 + O(L^4), with c the variance of that
    polynomial as in m_zero_information.
    """
    return _zero_information(spec, DeformationKind.P, hold)
