"""Monte Carlo photon-counting experiments and Cramer-Rao benchmarking.

Synthetic intensity measurements are drawn by inverse-CDF sampling from a
truncated photon distribution (renormalized to one), epsilon is recovered
by golden-section maximum likelihood with the probe intensity held at its
known value, and the empirical estimator variance across replications is
compared against the Cramer-Rao prediction 1/(M F), with F the Fisher
information of that same fixed-intensity family.

Lockstep fits: crb_benchmark runs the golden-section searches of all its
replications together.  Each step evaluates every still-active replication,
each at its own epsilon, as one (rows x support) array of log-probabilities;
the 9-point coarse scan and the first two golden points are the same for
every replication, so they are computed once.  mle_epsilon is the same
search with one sample.  Batching must not change a single bit: with
xtol = 1e-10 the search resolves epsilon below the likelihood's rounding
floor, so a re-associated sum would move the estimates.  Every row of
log-probabilities is therefore computed exactly as a lone evaluation would
be.  The bookkeeping is array steps: per kernel chunk, one fancy index
gathers every requested row's observed entries from a padded (samples x
distinct outcomes) matrix of observed n, and one row minimum checks them
against the probability floor.  Each replication's log-likelihood stays its
own 1-D dot counts @ ln p[observed] over its first k gathered entries, the
same product on the same contiguous values as a lone evaluation.

Reproducibility: replication streams are derived from the root seed by
counter (one 64-bit sub-seed per replication index), so identical inputs
give bit-identical benchmarks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import DeformationKind, DeformationParams
from .errors import BenchmarkError, DomainError, OutOfSupportError
from .estimation import _analytic_score, _score_variance
from .states import (
    DEFAULT_TOL,
    PhotonDistribution,
    ProbeSpec,
    _check_normalizable,
    _fixed_support_log_prob_rows,
    build_distribution,
)

__all__ = [
    "CountSample",
    "MleResult",
    "CrbBenchmark",
    "sample_counts",
    "mle_epsilon",
    "crb_benchmark",
]

_LOG_SUPPORT_FLOOR = math.log(1e-300)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ROW_BUDGET = 1 << 18  # array elements per kernel call
_XTOL = 1e-10  # golden-section stop: final bracket width in epsilon
_MAX_ITER = 200


@dataclass(frozen=True)
class CountSample:
    """Histogram of observed Fock outcomes from `shots` measurements."""

    counts: Dict[int, int]
    shots: int
    seed: int

    def __post_init__(self) -> None:
        if self.shots <= 0:
            raise DomainError(f"shots must be positive, got {self.shots}")
        if sum(self.counts.values()) != self.shots:
            raise DomainError("count multiplicities must sum to shots")


@dataclass(frozen=True)
class MleResult:
    epsilon_hat: float
    log_likelihood: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class CrbBenchmark:
    """Empirical MLE variance versus the Cramer-Rao bound 1/(M F)."""

    epsilon_true: float
    shots: int
    replications: int
    seed: int
    empirical_var: float
    crb: float
    ratio: float
    bias: float
    estimable: bool = True
    failed: int = 0


def sample_counts(dist: PhotonDistribution, shots: int, seed: int) -> CountSample:
    """Draw i.i.d. Fock outcomes by inverse CDF; deterministic given seed."""
    if shots <= 0:
        raise DomainError(f"shots must be positive, got {shots}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    p = dist.probs / dist.probs.sum()
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    u = np.sort(np.random.default_rng(seed).random(shots))
    # Draw u has outcome n = #{j : cdf[j] <= u}, so the draws with outcome
    # <= n are exactly those below cdf[n] (every draw lies below the final
    # 1.0): a search of cdf in the sorted draws gives the cumulative counts.
    mult = np.diff(np.searchsorted(u, cdf), prepend=0)
    values = np.flatnonzero(mult)
    return CountSample(
        counts=dict(zip(values.tolist(), mult[values].tolist())),
        shots=shots,
        seed=seed,
    )


def _counts_arrays(sample: CountSample) -> Tuple[np.ndarray, np.ndarray]:
    ns = np.array(sorted(sample.counts), dtype=int)
    cs = np.array([sample.counts[int(n)] for n in ns], dtype=float)
    return ns, cs


class _Likelihoods:
    """Fixed-support log-likelihoods of several count samples, row-batched.

    Sample r is scored over its own support, max(n_support, largest observed
    n).  `outcomes` holds every sample's observed n, padded to one width
    with the sample's own first outcome, so padding never changes a row's
    minimum.  A call computes each distinct (support, epsilon) row of
    log-probabilities once; per kernel chunk it gathers every requested
    row's observed entries in one step and checks them against the
    probability floor in one step.  Each value is then the 1-D dot
    counts @ row[:k] over the row's first k gathered entries, k the
    sample's number of distinct outcomes: the same contiguous values a lone
    evaluation multiplies, hence the same bits.  A product over the padded
    rows would re-associate those sums.
    """

    def __init__(
        self,
        spec: ProbeSpec,
        kind: DeformationKind,
        samples: Sequence[Tuple[np.ndarray, np.ndarray]],
        n_support: int,
    ) -> None:
        self.spec, self.kind = spec, kind
        self.counts = [cs for _, cs in samples]
        self.widths = [len(ns) for ns, _ in samples]
        self.outcomes = np.empty((len(samples), max(self.widths)), dtype=np.intp)
        for r, (ns, _) in enumerate(samples):
            self.outcomes[r] = ns[0]
            self.outcomes[r, :len(ns)] = ns
        self.supports = np.maximum(self.outcomes.max(axis=1), n_support)
        self.failures: Dict[int, OutOfSupportError] = {}

    def __call__(self, eps: np.ndarray, reps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Log-likelihood of sample reps[i] at eps[i], and whether it exists.

        Every eps[i] must be normalizable.  Where an observed outcome falls
        below the probability floor, the OutOfSupportError goes to
        self.failures, which keeps each sample's earliest failing row.
        """
        values = np.full(len(reps), np.nan)
        floored_n = np.full(len(reps), -1)  # an observed n below the floor, else -1
        supports = self.supports[reps]
        for n in np.unique(supports).tolist():
            rows = np.flatnonzero(supports == n)
            uniq, which = np.unique(eps[rows], return_inverse=True)
            chunk = max(1, _ROW_BUDGET // (n + 1))
            for start in range(0, len(uniq), chunk):
                lp = _fixed_support_log_prob_rows(
                    self.spec, self.kind, uniq[start:start + chunk], n)
                here = (which >= start) & (which < start + chunk)
                idx = rows[here]
                owners = reps[idx]
                obs = self.outcomes[owners]
                lp_obs = lp[(which[here] - start)[:, None], obs]
                floored = lp_obs.min(axis=1) < _LOG_SUPPORT_FLOOR
                floored_n[idx[floored]] = obs[floored, np.argmin(lp_obs[floored], axis=1)]
                values[idx[~floored]] = [
                    np.dot(self.counts[r], row[:self.widths[r]])
                    for r, row, low in zip(owners.tolist(), lp_obs, floored.tolist())
                    if not low]
        for i in np.flatnonzero(floored_n >= 0).tolist():
            self.failures.setdefault(int(reps[i]), OutOfSupportError(
                f"observed outcome n={int(floored_n[i])} has "
                f"probability below 1e-300 at epsilon={float(eps[i])}"
            ))
        return values, floored_n < 0


def _golden_section(
    loglik: _Likelihoods, a: float, b: float
) -> List[Optional[MleResult]]:
    """Golden-section maximization of every sample's likelihood on [a, b], in lockstep.

    Each sample follows exactly the iterates of a lone search; one whose
    likelihood fails anywhere gets None (the error is in loglik.failures).
    """
    # Divergent epsilons form a half-line below some threshold, and every
    # iterate lies in [a, b], so the whole search is normalizable iff a is.
    _check_normalizable(loglik.spec, DeformationParams(loglik.kind, a))
    count = len(loglik.counts)
    alive = np.ones(count, dtype=bool)

    def shared(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every sample at each point: (count, len(points)) values and ok flags."""
        values, ok = loglik(np.tile(points, count), np.repeat(np.arange(count), len(points)))
        values, ok = values.reshape(count, -1), ok.reshape(count, -1)
        alive[:] = ok.all(axis=1)
        return values, ok

    if a == b:
        values, _ = shared(np.array([a]))
        return [MleResult(a, float(values[r, 0]), True, 0) if alive[r] else None
                for r in range(count)]

    c0, d0 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    coarse = np.linspace(a, b, 9)
    values, ok = shared(np.append(coarse, [c0, d0]))
    coarse_ll = values[:, :9]
    peaks = sum(
        (coarse_ll[:, i] >= coarse_ll[:, i - 1]) & (coarse_ll[:, i] >= coarse_ll[:, i + 1])
        for i in range(1, 8)
    )
    for _ in np.flatnonzero(ok[:, :9].all(axis=1) & (peaks > 1)):
        warnings.warn("log-likelihood appears non-unimodal on the bracket",
                      RuntimeWarning, stacklevel=3)

    lo, hi = np.full(count, a), np.full(count, b)
    c, d = np.full(count, c0), np.full(count, d0)
    fc, fd = values[:, 9].copy(), values[:, 10].copy()
    iterations = np.zeros(count, dtype=int)
    while True:
        active = np.flatnonzero(alive & ((hi - lo) > _XTOL) & (iterations < _MAX_ITER))
        if not active.size:
            break
        left = fc[active] >= fd[active]
        i, j = active[left], active[~left]
        hi[i], d[i], fd[i] = d[i], c[i], fc[i]
        c[i] = hi[i] - _GOLDEN * (hi[i] - lo[i])
        lo[j], c[j], fc[j] = c[j], d[j], fd[j]
        d[j] = lo[j] + _GOLDEN * (hi[j] - lo[j])
        new, ok = loglik(np.where(left, c[active], d[active]), active)
        alive[active] = ok
        fc[i], fd[j] = new[left], new[~left]
        iterations[active] += 1

    converged = (hi - lo) <= _XTOL
    eps_hat = 0.5 * (lo + hi)
    ids = np.flatnonzero(alive)
    ll_hat = np.full(count, np.nan)
    ll_hat[ids], alive[ids] = loglik(eps_hat[ids], ids)
    best = np.argmax(coarse_ll, axis=1)
    results: List[Optional[MleResult]] = [None] * count
    for r in np.flatnonzero(alive).tolist():
        e, v = float(eps_hat[r]), float(ll_hat[r])
        if coarse_ll[r, best[r]] > v:
            e, v = float(coarse[best[r]]), float(coarse_ll[r, best[r]])
        results[r] = MleResult(e, v, bool(converged[r]), int(iterations[r]))
    return results


def _bracket_support(spec: ProbeSpec, kind: DeformationKind, a: float, b: float,
                     tol: float) -> int:
    """Outcome support certified at both bracket ends (the slower decay wins)."""
    return max(build_distribution(spec, DeformationParams(kind, e), tol).n_max
               for e in (a, b))


def _ordered_bracket(bracket: Tuple[float, float]) -> Tuple[float, float]:
    a, b = float(bracket[0]), float(bracket[1])
    if a > b:
        a, b = b, a
    if a <= -1.0:
        raise DomainError(f"bracket must lie inside epsilon > -1, got {bracket}")
    return a, b


def mle_epsilon(
    sample: CountSample,
    spec: ProbeSpec,
    kind: DeformationKind,
    bracket: Tuple[float, float],
    tol: float = DEFAULT_TOL,
) -> MleResult:
    """Golden-section maximization of the log-likelihood over a bracket.

    The likelihood is evaluated over one fixed outcome support sized for
    the bracket's slowest-decaying endpoint, so the objective is smooth in
    epsilon.  A coarse 9-point scan warns (but does not fail) when the
    objective looks non-unimodal; the best point found is still returned.
    """
    a, b = _ordered_bracket(bracket)
    loglik = _Likelihoods(spec, kind, [_counts_arrays(sample)],
                          _bracket_support(spec, kind, a, b, tol))
    (result,) = _golden_section(loglik, a, b)
    if result is None:
        raise loglik.failures[0]
    return result


def _min_admissible_epsilon(spec: ProbeSpec, kind: DeformationKind) -> float:
    """Lower bracket clip keeping the likelihood family normalizable."""
    if kind is DeformationKind.M:
        return 0.0 - 0.9 / spec.m_divergence_rate  # +0.0, not -0.0, at an infinite rate
    return -0.9


def crb_benchmark(
    spec: ProbeSpec,
    kind: DeformationKind,
    epsilon_true: float,
    shots: int,
    replications: int,
    seed: int,
    tol: float = DEFAULT_TOL,
) -> CrbBenchmark:
    """Empirical MLE variance over replications versus 1/(shots * F).

    F is the fixed-intensity Fisher information of the sampled family (the
    quantity the MLE over epsilon at known intensity is bounded by).  A
    vanishing F (e.g. P deformation at epsilon_true = 0) is reported as
    non-estimable with an infinite-CRB sentinel instead of sampling.  The
    MLE searches epsilon_true +- max(0.02, 20/sqrt(shots F)), clipped to
    [-0.5, 0.5] and to where the family stays normalizable; an epsilon_true
    outside that clipped bracket raises DomainError.
    """
    if shots <= 0:
        raise DomainError(f"shots must be positive, got {shots}")
    if replications < 2:
        raise DomainError(f"replications must be >= 2, got {replications}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if replications < 50:
        warnings.warn("fewer than 50 replications: variance estimate will be noisy",
                      RuntimeWarning, stacklevel=2)
    dist = build_distribution(spec, DeformationParams(kind, epsilon_true), tol)
    fisher = _score_variance(*_analytic_score(dist, "intensity"))
    if fisher <= 1e-280:
        return CrbBenchmark(
            epsilon_true=epsilon_true,
            shots=shots,
            replications=replications,
            seed=seed,
            empirical_var=math.nan,
            crb=math.inf,
            ratio=math.nan,
            bias=math.nan,
            estimable=False,
            failed=0,
        )
    crb = 1.0 / (shots * fisher)
    half = max(0.02, 20.0 / math.sqrt(shots * fisher))
    lo = max(epsilon_true - half, -0.5, _min_admissible_epsilon(spec, kind))
    hi = min(epsilon_true + half, 0.5)
    a, b = _ordered_bracket((lo, hi))
    if not a < epsilon_true < b:
        raise DomainError(
            f"epsilon_true = {epsilon_true} lies outside the MLE bracket ({a}, {b}): "
            f"the search is clipped to [-0.5, 0.5] and to the admissible minimum "
            f"{_min_admissible_epsilon(spec, kind)}"
        )
    n_support = _bracket_support(spec, kind, a, b, tol)
    rep_seeds = np.random.SeedSequence(seed).generate_state(replications, np.uint64)
    samples = [_counts_arrays(sample_counts(dist, shots, int(s))) for s in rep_seeds]
    results = _golden_section(_Likelihoods(spec, kind, samples, n_support), a, b)
    estimates = [r.epsilon_hat for r in results if r is not None and r.converged]
    failed = replications - len(estimates)
    if failed / replications >= 0.05:
        raise BenchmarkError(
            f"{failed}/{replications} replications failed; benchmark aborted"
        )
    hats = np.array(estimates)
    empirical_var = float(hats.var(ddof=1))
    bias = float(hats.mean() - epsilon_true)
    return CrbBenchmark(
        epsilon_true=epsilon_true,
        shots=shots,
        replications=replications,
        seed=seed,
        empirical_var=empirical_var,
        crb=crb,
        ratio=empirical_var / crb,
        bias=bias,
        estimable=True,
        failed=failed,
    )
