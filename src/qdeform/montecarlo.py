"""Monte Carlo photon-counting experiments and Cramer-Rao benchmarking.

Synthetic intensity measurements are drawn by inverse-CDF sampling from a
truncated photon distribution (renormalized to one), epsilon is recovered
by golden-section maximum likelihood with the probe intensity held at its
known value, and the empirical estimator variance across replications is
compared against the Cramer-Rao prediction 1/(M F), with F the Fisher
information of that same fixed-intensity family.

Lockstep fits: crb_benchmark runs the golden-section searches of all its
replications together.  Each step evaluates every still-active replication,
each at its own epsilon, in one likelihood call; the 9-point coarse scan
and the first two golden points are the same for every replication, so
they are computed once.  mle_epsilon is the same search with one sample.
Batching must not change a single bit: with xtol = 1e-10 the search
resolves epsilon below the likelihood's rounding floor, so a re-associated
sum would move the estimates.  Every row of log-weights is therefore
computed exactly as a lone evaluation would be, once per distinct epsilon,
and a step costs a fixed number of array operations whatever the number
of replications: the brackets move by np.where, one kernel call computes
the rows, one fancy index gathers each replication's observed entries from
its row, and one subtraction normalizes just those.  What grows with the
replications is two scalar logs per row, for its epsilon's constants, and
each replication's log-likelihood: its own 1-D dot counts @ ln p[observed]
over its first k gathered entries, the same product on the same
contiguous values as a lone evaluation.  The counts of every replication
are drawn from one inverse-CDF table of the true distribution.

Reproducibility: replication streams are derived from the root seed by
counter (one 64-bit sub-seed per replication index), so identical inputs
give bit-identical benchmarks.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import DeformationKind, DeformationParams, _count
from .errors import BenchmarkError, DomainError, OutOfSupportError
from .estimation import _fisher
from .states import (
    DEFAULT_TOL,
    PhotonDistribution,
    ProbeSpec,
    _fixed_support_weight_rows,
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
        for name, least in (("shots", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, least))
        for n, mult in self.counts.items():
            try:  # operator.index takes numpy integers too
                scorable = operator.index(n) >= 0 and operator.index(mult) > 0
            except TypeError:
                scorable = False
            if not scorable:
                raise DomainError(f"outcomes must be non-negative integers and multiplicities "
                                  f"positive integers, got {n!r}: {mult!r}")
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


def _cdf(dist: PhotonDistribution) -> np.ndarray:
    """The inverse-CDF table of a distribution, renormalized to end at 1."""
    cdf = np.cumsum(dist.probs / dist.probs.sum())
    cdf[-1] = 1.0
    return cdf


def _draw_counts(cdf: np.ndarray, shots: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The observed outcomes n, ascending, and how often each was drawn, of
    `shots` inverse-CDF draws from the stream of `seed`."""
    u = np.random.default_rng(seed).random(shots)
    u.sort()
    # Draw u has outcome n = #{j : cdf[j] <= u}, so the draws with outcome
    # <= n are exactly those below cdf[n] (every draw lies below the final
    # 1.0): a search of cdf in the sorted draws gives the cumulative counts.
    below = np.searchsorted(u, cdf)
    below[1:] -= below[:-1]
    ns = np.flatnonzero(below)
    return ns, below[ns]


def sample_counts(dist: PhotonDistribution, shots: int, seed: int) -> CountSample:
    """Draw i.i.d. Fock outcomes by inverse CDF; deterministic given seed."""
    shots, seed = _count(shots, "shots", 1), _count(seed, "seed", 0)
    ns, mult = _draw_counts(_cdf(dist), shots, seed)
    return CountSample(counts=dict(zip(ns.tolist(), mult.tolist())), shots=shots, seed=seed)


def _counts_arrays(sample: CountSample) -> Tuple[np.ndarray, np.ndarray]:
    ns = np.array(sorted(sample.counts), dtype=int)
    cs = np.array([sample.counts[int(n)] for n in ns], dtype=float)
    return ns, cs


def _distinct(eps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(uniq, which): the distinct values of eps, and the position of each
    entry's value in uniq.  All distinct, as at every golden step but a rare
    one, uniq is eps itself, found without a sort.  Values that compare
    equal are one value: 0.0 and -0.0 give the same row."""
    if len(set(eps.tolist())) == len(eps):
        return eps, np.arange(len(eps))
    return np.unique(eps, return_inverse=True)


class _Likelihoods:
    """Fixed-support log-likelihoods of several count samples, row-batched.

    Sample r is scored over its own support, max(n_support, largest observed
    n).  `outcomes` holds every sample's observed n, padded to one width
    with the sample's own first outcome, so padding never changes a row's
    minimum.  A call computes the row of log-weights and its ln Z of each
    distinct (support, epsilon) once, in kernel calls of at most
    _ROW_BUDGET entries.  When every sample shares one support and the
    rows fit one kernel call, the usual case, the rest of the call is a
    fixed number of array steps over all requests: one fancy index gathers
    the observed entries of each request's row, one subtraction of ln Z
    normalizes them (the rest of the row is never normalized), and one
    minimum checks them all against the probability floor; only a call
    that finds an entry below it looks for the rows.  Each value is then
    the 1-D dot counts @ row[:k] over the row's first k gathered entries, k
    the sample's number of distinct outcomes: the same contiguous values a
    lone evaluation multiplies, hence the same bits.  A product over the
    padded rows would re-associate those sums.
    """

    def __init__(
        self,
        spec: ProbeSpec,
        kind: DeformationKind,
        samples: Sequence[Tuple[np.ndarray, np.ndarray]],
        n_support: int,
    ) -> None:
        self.spec, self.kind = spec, kind
        self.terms = [(cs, len(ns)) for ns, cs in samples]  # counts, and their number
        self.outcomes = np.empty((len(samples), max(k for _, k in self.terms)), dtype=np.intp)
        for r, (ns, _) in enumerate(samples):
            self.outcomes[r] = ns[0]
            self.outcomes[r, :len(ns)] = ns
        self.supports = np.maximum(self.outcomes.max(axis=1), n_support)
        supports = set(self.supports.tolist())
        self.support = supports.pop() if len(supports) == 1 else None  # shared by all
        self.failures: Dict[int, OutOfSupportError] = {}

    def _kernel_calls(self, eps: np.ndarray, reps: np.ndarray):
        """(support, distinct epsilons, row of each request, request positions)
        for each kernel call."""
        if self.support is not None:
            groups = [(self.support, slice(None))]
        else:
            supports = self.supports[reps]
            groups = [(n, np.flatnonzero(supports == n)) for n in np.unique(supports).tolist()]
        for n, at in groups:
            uniq, which = _distinct(eps[at])
            chunk = max(1, _ROW_BUDGET // (n + 1))
            if len(uniq) <= chunk:
                yield n, uniq, which, at
                continue
            at = np.arange(len(reps))[at]
            for start in range(0, len(uniq), chunk):
                here = np.flatnonzero((which >= start) & (which < start + chunk))
                yield n, uniq[start:start + chunk], which[here] - start, at[here]

    def __call__(self, eps: np.ndarray, reps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Log-likelihood of sample reps[i] at eps[i], and whether it exists.

        Every eps[i] must be normalizable.  Where an observed outcome falls
        below the probability floor, the OutOfSupportError goes to
        self.failures, which keeps each sample's earliest failing row.
        """
        values = np.empty(len(reps))
        floored: Dict[int, int] = {}  # request position -> an observed n below the floor
        if not len(reps):
            return values, np.ones(0, dtype=bool)
        for n, uniq, which, at in self._kernel_calls(eps, reps):
            lnw, norm = _fixed_support_weight_rows(self.spec, self.kind, uniq, n)
            owners = reps[at]
            obs = self.outcomes[owners]
            lp = lnw[which[:, None], obs]
            lp -= norm[which][:, None]
            values[at] = [cs.dot(row[:k]) for (cs, k), row
                          in zip(map(self.terms.__getitem__, owners.tolist()), lp)]
            if lp.min() < _LOG_SUPPORT_FLOOR:  # rare: which rows, and their lowest outcome
                low = np.flatnonzero(lp.min(axis=1) < _LOG_SUPPORT_FLOOR)
                floored.update(zip(np.arange(len(reps))[at][low].tolist(),
                                   obs[low, lp[low].argmin(axis=1)].tolist()))
        ok = np.ones(len(reps), dtype=bool)
        for i in sorted(floored):
            values[i], ok[i] = math.nan, False
            self.failures.setdefault(int(reps[i]), OutOfSupportError(
                f"observed outcome n={floored[i]} has "
                f"probability below 1e-300 at epsilon={float(eps[i])}"
            ))
        return values, ok


def _golden_section(
    loglik: _Likelihoods, a: float, b: float
) -> List[Optional[MleResult]]:
    """Golden-section maximization of every sample's likelihood on [a, b], in lockstep.

    Each sample follows exactly the iterates of a lone search; one whose
    likelihood fails anywhere gets None (the error is in loglik.failures).
    The brackets of the searches still running are arrays, one entry per
    search, updated by np.where on which side each step keeps; a search
    that stops leaves them.  All searches start together and step together,
    so the step count is one number.  At a == b every point is a: no step
    runs, each result is a, converged, and the coarse scan, whose entries
    all tie, does not warn.  [a, b] must be normalizable: the callers have
    built at both ends (_bracket_support).
    """
    count = len(loglik.terms)
    c0, d0 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    coarse = np.linspace(a, b, 9)
    points = np.append(coarse, [c0, d0])  # the coarse scan and the first two inner points
    values, ok = loglik(np.tile(points, count), np.repeat(np.arange(count), len(points)))
    values, ok = values.reshape(count, -1), ok.reshape(count, -1)
    alive = ok.all(axis=1)
    coarse_ll = values[:, :9]
    peaks = sum(
        (coarse_ll[:, i] >= coarse_ll[:, i - 1]) & (coarse_ll[:, i] >= coarse_ll[:, i + 1])
        for i in range(1, 8)
    )
    for _ in np.flatnonzero(ok[:, :9].all(axis=1) & (peaks > 1) & (b > a)):
        warnings.warn("log-likelihood appears non-unimodal on the bracket",
                      RuntimeWarning, stacklevel=3)

    # Each search's final bracket and step count, written as it stops.
    final_lo, final_hi = np.full(count, a), np.full(count, b)
    iterations = np.zeros(count, dtype=int)
    ids = np.flatnonzero(alive) if b - a > _XTOL else np.arange(0)
    lo, hi, c, d = (np.full(len(ids), v) for v in (a, b, c0, d0))
    fc, fd = values[ids, 9], values[ids, 10]
    steps = 0
    while ids.size:
        left = fc >= fd  # keep [lo, d]: d becomes c and c a new point
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        span = hi - lo
        inner = _GOLDEN * span
        point = np.where(left, hi - inner, lo + inner)
        c, d = np.where(left, point, d), np.where(left, c, point)
        new, ok = loglik(point, ids)
        fc, fd = np.where(left, new, fd), np.where(left, fc, new)
        steps += 1
        going = ok & (span > _XTOL)
        if steps == _MAX_ITER:
            going[:] = False
        if going.all():
            continue
        stop = ids[~going]
        alive[stop[~ok[~going]]] = False
        final_lo[stop], final_hi[stop], iterations[stop] = lo[~going], hi[~going], steps
        ids, lo, hi, c, d, fc, fd = (v[going] for v in (ids, lo, hi, c, d, fc, fd))

    converged = (final_hi - final_lo) <= _XTOL
    eps_hat = 0.5 * (final_lo + final_hi)
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
    """Outcome support certified at both bracket ends (the slower decay wins).
    Divergent epsilons form a half-line, so the bracket is normalizable iff
    a is, and the build at a raises DivergenceError otherwise."""
    return max(build_distribution(spec, DeformationParams(kind, e), tol).n_max
               for e in (a, b))


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
    try:
        a, b = sorted(map(float, bracket))
    except (TypeError, ValueError):
        raise DomainError(f"bracket must be two numbers, got {bracket!r}") from None
    loglik = _Likelihoods(spec, kind, [_counts_arrays(sample)],
                          _bracket_support(spec, kind, a, b, tol))
    (result,) = _golden_section(loglik, a, b)
    if result is None:
        raise loglik.failures[0]
    return result


def _min_admissible_epsilon(spec: ProbeSpec, kind: DeformationKind) -> float:
    """Lower bracket clip keeping the likelihood family normalizable and
    q = 1 + epsilon at 0.1 or above."""
    if kind is DeformationKind.M:  # +0.0, not -0.0, at an infinite rate
        return max(0.0 - 0.9 / spec.m_divergence_rate, -0.9)
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
    shots = _count(shots, "shots", 1)
    replications = _count(replications, "replications", 2)
    seed = _count(seed, "seed", 0)
    if replications < 50:
        warnings.warn("fewer than 50 replications: variance estimate will be noisy",
                      RuntimeWarning, stacklevel=2)
    dist = build_distribution(spec, DeformationParams(kind, epsilon_true), tol)
    fisher = _fisher(dist, "intensity")
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
    floor = _min_admissible_epsilon(spec, kind)
    a = max(epsilon_true - half, -0.5, floor)
    b = min(epsilon_true + half, 0.5)
    if not a < epsilon_true < b:
        raise DomainError(
            f"epsilon_true = {epsilon_true} lies outside the MLE bracket ({a}, {b}): "
            f"the search is clipped to [-0.5, 0.5] and to the admissible minimum {floor}"
        )
    n_support = _bracket_support(spec, kind, a, b, tol)
    rep_seeds = np.random.SeedSequence(seed).generate_state(replications, np.uint64)
    cdf = _cdf(dist)
    samples = [(ns, mult.astype(float))
               for ns, mult in (_draw_counts(cdf, shots, s) for s in rep_seeds.tolist())]
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
