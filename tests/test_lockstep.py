"""Lockstep batched MLE against the per-replication code it replaced.

The reference oracle below is the one-epsilon-at-a-time implementation:
the scalar q-number code and its epsilon-derivative with separate M/P and
sign branches,
log-probabilities built on it, a scalar golden-section search with a
per-sample cache, and one mle fit per replication.  The
batched path must agree with it bit for bit, not merely within tolerance.
"""

import math
import warnings
from typing import Dict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qdeform.montecarlo as mc
from qdeform import algebra
from qdeform.algebra import DeformationKind, DeformationParams, _log_q_rows, dlog_q_number_values
from qdeform.errors import DivergenceError, OutOfSupportError
from qdeform.estimation import estimation_report
from qdeform.montecarlo import CrbBenchmark, MleResult, crb_benchmark, sample_counts
from qdeform.oracles import fixed_support_log_probs
from qdeform.states import (
    CatSpec,
    CoherentSpec,
    ThermalSpec,
    _check_normalizable,
    _fixed_support_weight_rows,
    _logsumexp,
    build_distribution,
)

M, P = DeformationKind.M, DeformationKind.P
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
NON_UNIMODAL = "log-likelihood appears non-unimodal on the bracket"


# --------------------------------------------------------------------------
# Reference oracle: the per-replication implementation


def ref_log_expm1(x):
    out = np.empty_like(x)
    big = x > 33.0
    out[big] = x[big] + np.log1p(-np.exp(-x[big]))
    with np.errstate(divide="ignore"):
        out[~big] = np.log(np.expm1(x[~big]))
    return out


def ref_log_q_number_values(params, n_max):
    eps = params.epsilon
    j = np.arange(1, n_max + 1, dtype=float)
    out = np.full(n_max + 1, -np.inf)
    if n_max == 0:
        return out
    if eps == 0.0:
        out[1:] = np.log(j)
        return out
    L = math.log1p(eps)
    if params.kind is M:
        u = j * L
        if eps > 0.0:
            out[1:] = ref_log_expm1(u) - math.log(eps)
        else:
            out[1:] = np.log(-np.expm1(u)) - math.log(-eps)
    else:
        v = 2.0 * j * L
        lead = (1.0 - j) * L
        den = eps * (2.0 + eps)
        if eps > 0.0:
            out[1:] = lead + ref_log_expm1(v) - math.log(den)
        else:
            out[1:] = lead + np.log(-np.expm1(v)) - math.log(-den)
    return out


# The Taylor coefficients of K(u) = u / (1 - e^-u) (M) and u coth u (P),
# one table per kind.
REF_BERNOULLI_EVEN = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730,
)
REF_K_LINEAR = {M: 0.5, P: 0.0}
REF_K_EVEN = {
    kind: tuple((1.0 if kind is M else 4.0**k) * b / math.factorial(2 * k)
                for k, b in enumerate(REF_BERNOULLI_EVEN, start=1))
    for kind in (M, P)
}


def ref_k_even_sum(kind, w):
    coeffs = REF_K_EVEN[kind]
    acc = coeffs[-1] * w
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= w
        acc += c
    return acc


def ref_dlog_q_number_values(params, n_max):
    """d ln [j] / d eps: the Taylor series of K below |eps| = 1e-3 where
    |jL| < 1/2, else one closed form per kind."""
    kind, eps = params.kind, params.epsilon
    out = np.zeros(n_max + 1)
    j = np.arange(1, n_max + 1, dtype=float)
    L = math.log1p(eps)
    m = 0
    if abs(eps) < 1e-3:
        m = int(np.count_nonzero(np.abs(j * L) < 0.5))
        js = j[:m]
        u = js * L
        out[1:m + 1] = (REF_K_LINEAR[kind] * (js - 1.0) + L * (
            js * js * ref_k_even_sum(kind, u * u) - ref_k_even_sum(kind, L * L))) / (1.0 + eps)
    if m == n_max:
        return out
    j = j[m:]
    with np.errstate(over="ignore"):
        if kind is M:
            u = j * L
            out[m + 1:] = j / ((1.0 + eps) * (-np.expm1(-u))) - 1.0 / eps
        else:
            v = 2.0 * j * L
            out[m + 1:] = (
                (1.0 - j) / (1.0 + eps)
                + 2.0 * j / ((1.0 + eps) * (-np.expm1(-v)))
                - 2.0 * (1.0 + eps) / (eps * (2.0 + eps))
            )
    return out


def ref_log_probs(spec, params, n_support):
    _check_normalizable(spec, params)
    if isinstance(spec, ThermalSpec):
        with np.errstate(over="ignore"):
            g = np.exp(ref_log_q_number_values(params, n_support + 1))
            g[0] = 0.0
            lnw = -(spec.beta / 2.0) * (g[1:] + g[:-1] - 1.0)
    else:
        n = np.arange(n_support + 1, dtype=float)
        log_delta = np.zeros(n_support + 1)
        log_delta[1:] = np.cumsum(ref_log_q_number_values(params, n_support)[1:])
        lnw = n * math.log(spec.alpha_sq) - log_delta
        if isinstance(spec, CatSpec):
            lnw[1::2] = -np.inf
    finite = lnw[np.isfinite(lnw)]
    return lnw - float(_logsumexp(finite))


def ref_mle(sample, spec, kind, a, b, n_support, xtol=1e-10, max_iter=200):
    ns = np.array(sorted(sample.counts), dtype=int)
    cs = np.array([sample.counts[int(n)] for n in ns], dtype=float)
    n_support = max(n_support, int(ns[-1]))
    cache: Dict[float, float] = {}

    def ll(e):
        if e not in cache:
            lp = ref_log_probs(spec, DeformationParams(kind, e), n_support)[ns]
            if np.any(lp < math.log(1e-300)):
                raise OutOfSupportError(f"outcome below floor at epsilon={e}")
            cache[e] = float(cs @ lp)
        return cache[e]

    coarse = np.linspace(a, b, 9)
    coarse_ll = np.array([ll(float(e)) for e in coarse])
    peaks = sum(1 for i in range(1, 8)
                if coarse_ll[i] >= coarse_ll[i - 1] and coarse_ll[i] >= coarse_ll[i + 1])
    if peaks > 1:
        warnings.warn(NON_UNIMODAL, RuntimeWarning)
    lo, hi = a, b
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = ll(c), ll(d)
    iterations = 0
    while (hi - lo) > xtol and iterations < max_iter:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = ll(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = ll(d)
        iterations += 1
    eps_hat = 0.5 * (lo + hi)
    ll_hat = ll(eps_hat)
    best = int(np.argmax(coarse_ll))
    if coarse_ll[best] > ll_hat:
        eps_hat, ll_hat = float(coarse[best]), float(coarse_ll[best])
    return MleResult(eps_hat, ll_hat, (hi - lo) <= xtol, iterations)


def ref_crb(spec, kind, epsilon_true, shots, replications, seed):
    fisher = estimation_report(spec, kind, epsilon_true, 1e-12, hold="intensity").fisher
    crb = 1.0 / (shots * fisher)
    half = max(0.02, 20.0 / math.sqrt(shots * fisher))
    lo = max(epsilon_true - half, -0.5, mc._min_admissible_epsilon(spec, kind))
    hi = min(epsilon_true + half, 0.5)
    dist = build_distribution(spec, DeformationParams(kind, epsilon_true))
    n_support = max(build_distribution(spec, DeformationParams(kind, lo)).n_max,
                    build_distribution(spec, DeformationParams(kind, hi)).n_max)
    rep_seeds = np.random.SeedSequence(seed).generate_state(replications, np.uint64)
    estimates, failed = [], 0
    for s in rep_seeds:
        sample = sample_counts(dist, shots, int(s))
        try:
            result = ref_mle(sample, spec, kind, lo, hi, n_support)
        except (OutOfSupportError, DivergenceError):
            failed += 1
            continue
        if not result.converged:
            failed += 1
            continue
        estimates.append(result.epsilon_hat)
    hats = np.array(estimates)
    var = float(hats.var(ddof=1))
    return CrbBenchmark(epsilon_true, shots, replications, seed, var, crb, var / crb,
                        float(hats.mean() - epsilon_true), True, failed)


def non_unimodal_count(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, sum(str(w.message) == NON_UNIMODAL for w in caught)


# --------------------------------------------------------------------------


SPECS = [CoherentSpec(3.0), ThermalSpec.from_mean_photon(2.0), CatSpec(3.0)]
# Thermal weight rows leave the float range from n = 1747 (M) and 1748 (P)
# at 0.5, and from n = 1987 at -0.3 (P): n_support 2000 has rows of both kinds.
EPSILONS = [-0.3, -1e-4, 0.0, 1e-4, 0.5]


class TestKernelRows:
    @pytest.mark.parametrize("n_max", [0, 1, 40, 1200])
    @pytest.mark.parametrize("kind", [M, P])
    def test_q_rows_equal_scalar_q_numbers(self, kind, n_max):
        eps = [-0.3, -1e-4, 0.0, 1e-4, 0.5, 3.0]  # 3.0 takes the x > 33 branch
        rows = _log_q_rows(kind, np.array(eps), n_max)
        for row, e in zip(rows, eps):
            assert np.array_equal(row, ref_log_q_number_values(DeformationParams(kind, e), n_max))

    # Every bit of the derivative rows: at and near eps = 0, on both sides of
    # the series cut, and at eps < 0 where q^-j overflows (j L < -709).
    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(kind=st.sampled_from([M, P]),
           eps=st.one_of(
               st.sampled_from([0.0, -0.0, 1e-12, -1e-12, algebra._SERIES_EPS,
                                -algebra._SERIES_EPS]),
               st.sampled_from([1.0, -1.0]).flatmap(lambda sign: st.floats(
                   0.5 * algebra._SERIES_EPS, 2.0 * algebra._SERIES_EPS).map(
                   lambda e: sign * e)),
               st.floats(-0.999, -0.1),
               st.floats(-0.999, 100.0)),
           n_max=st.integers(0, 5000))
    @example(kind=M, eps=-0.5, n_max=5000)
    @example(kind=P, eps=-0.5, n_max=5000)
    @example(kind=M, eps=math.nextafter(1e-3, 0.0), n_max=5000)
    @example(kind=P, eps=-math.nextafter(1e-3, 0.0), n_max=5000)
    def test_derivative_rows_equal_the_forked_forms(self, kind, eps, n_max):
        pr = DeformationParams(kind, eps)
        got, want = dlog_q_number_values(pr, n_max), ref_dlog_q_number_values(pr, n_max)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros too

    @pytest.mark.parametrize("n_support", [40, 333, 1200, 2000])
    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    def test_rows_equal_single_epsilon_calls(self, spec, kind, n_support):
        eps = [e for e in EPSILONS
               if not (kind is M and e < 0 and isinstance(spec, ThermalSpec))]
        lnw, ln_z = _fixed_support_weight_rows(spec, kind, np.array(eps), n_support)
        rows = lnw - ln_z[:, None]
        assert rows.shape == (len(eps), n_support + 1)
        for row, e in zip(rows, eps):
            params = DeformationParams(kind, e)
            assert np.array_equal(row, fixed_support_log_probs(spec, params, n_support))
            assert np.array_equal(row, ref_log_probs(spec, params, n_support))

    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    def test_rows_between_builds_leave_a_fresh_build(self, spec, kind):
        # The many-epsilon rows replace the kept levels of the first build;
        # a later build at the same (kind, epsilon) must not see them.
        params = DeformationParams(kind, 2e-3)
        larger = type(spec).from_mean_photon(3.0 * spec.n0)
        build_distribution(spec, params)
        _fixed_support_weight_rows(spec, kind, np.array([1e-4, 2e-3, 0.05]), 700)
        second = build_distribution(larger, params)
        build_distribution.cache_clear()
        fresh = build_distribution(larger, params)
        assert second is not fresh
        assert (second.n_max, second.tail_bound) == (fresh.n_max, fresh.tail_bound)
        assert second.probs.tobytes() == fresh.probs.tobytes()
        assert second.log_probs.tobytes() == fresh.log_probs.tobytes()


class TestCrbAgainstReference:
    @pytest.mark.parametrize("spec, kind, eps, shots, seed, warned, failed", [
        (ThermalSpec.from_mean_photon(5.0), M, 5e-3, 2000, 123, 0, 0),
        (CoherentSpec(8.0), M, -1e-2, 2000, 2, 0, 0),
        (CatSpec(4.0), M, -2e-2, 1000, 11, 0, 0),
        (CoherentSpec(5.0), P, 0.05, 200, 5, 3, 0),  # P at small shots
        (CatSpec(3.0), P, 0.05, 300, 9, 17, 0),
        (ThermalSpec.from_mean_photon(5.0), P, 2e-2, 2000, 3, 4, 1),  # out of support
        (ThermalSpec.from_mean_photon(2.0), M, 5e-3, 100, 17, 0, 1),
    ])
    def test_equals_per_replication_fits(self, spec, kind, eps, shots, seed, warned, failed):
        args = (spec, kind, eps, shots, 50, seed)
        got, got_warnings = non_unimodal_count(lambda: crb_benchmark(*args))
        want, want_warnings = non_unimodal_count(lambda: ref_crb(*args))
        assert got == want
        assert got_warnings == want_warnings == warned
        assert got.failed == failed

    def test_acceptance_ratio_is_unchanged(self):
        # Recorded from the per-replication fits with scipy's logsumexp; a
        # re-associated sum anywhere in the likelihood moves it near 1e-8.
        bench = crb_benchmark(ThermalSpec.from_mean_photon(20.0), M, 5e-3,
                              shots=10_000, replications=200, seed=7)
        assert bench.ratio == 1.0320606863862418

    def test_mle_epsilon_is_the_one_sample_case(self):
        spec = ThermalSpec.from_mean_photon(8.0)
        dist = build_distribution(spec, DeformationParams(M, 1e-2))
        sample = sample_counts(dist, 20_000, seed=9)
        n_support = max(build_distribution(spec, DeformationParams(M, e)).n_max
                        for e in (0.0, 0.05))
        got = mc.mle_epsilon(sample, spec, M, (0.0, 0.05))
        assert got == ref_mle(sample, spec, M, 0.0, 0.05, n_support)


class TestFailureCatch:
    def test_broken_invariant_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken invariant")

        monkeypatch.setattr(mc, "_fixed_support_weight_rows", broken)
        with pytest.raises(RuntimeError, match="broken invariant"):
            crb_benchmark(ThermalSpec.from_mean_photon(5.0), M, 5e-3, shots=500,
                          replications=50, seed=1)

    def test_divergent_epsilon_raises_from_mle_epsilon(self):
        sample = mc.CountSample(counts={0: 3, 1: 1}, shots=4, seed=0)
        with pytest.raises(DivergenceError, match="non-normalizable"):
            mc.mle_epsilon(sample, ThermalSpec.from_mean_photon(1.0), M, (-0.01, 0.02))

    def test_mle_epsilon_raises_the_first_failure(self):
        sample = mc.CountSample(counts={0: 3, 200: 1}, shots=4, seed=0)
        with pytest.raises(OutOfSupportError, match="epsilon=0.0"):
            mc.mle_epsilon(sample, CoherentSpec(1.0), M, (0.0, 0.01))
