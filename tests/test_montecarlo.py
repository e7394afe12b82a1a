"""Sampling, likelihood, MLE and benchmark tests (fast configurations;
the full-scale Cramer-Rao run lives in the acceptance suite)."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdeform import estimation, montecarlo, states
from qdeform.algebra import DeformationKind, DeformationParams
from qdeform.errors import DomainError
from qdeform.estimation import estimation_report
from qdeform.montecarlo import (
    CountSample,
    crb_benchmark,
    mle_epsilon,
    sample_counts,
)
from qdeform.oracles import fixed_support_log_probs, log_likelihood, log_likelihood_gradient
from qdeform.states import (
    FAMILIES,
    CoherentSpec,
    PhotonDistribution,
    ThermalSpec,
    build_distribution,
    mean_photon,
)

M, P = DeformationKind.M, DeformationKind.P


def params(kind, eps):
    return DeformationParams(kind, eps)


class TestSampling:
    def test_deterministic_distribution(self):
        dist = PhotonDistribution(
            probs=np.array([1.0]),
            log_probs=np.array([0.0]),
            n_max=0,
            tail_bound=0.0,
            params=params(M, 0.0),
            spec=CoherentSpec(1e-12),
        )
        sample = sample_counts(dist, 10, seed=1)
        assert sample.counts == {0: 10}
        assert sample.shots == 10

    def test_reproducibility(self):
        dist = build_distribution(CoherentSpec(2.0), params(M, 1e-3))
        s1 = sample_counts(dist, 5000, seed=42)
        s2 = sample_counts(dist, 5000, seed=42)
        assert s1 == s2
        s3 = sample_counts(dist, 5000, seed=43)
        assert s3 != s1

    def test_negative_seed_is_a_domain_error(self):
        dist = build_distribution(CoherentSpec(2.0), params(M, 1e-3))
        with pytest.raises(DomainError, match="seed must be >= 0, got -3"):
            sample_counts(dist, 10, -3)

    @pytest.mark.parametrize("shots, seed, match", [
        (10.5, 1, "shots must be an integer, got 10.5"),
        (10, 1.5, "seed must be an integer, got 1.5"),
    ])
    def test_non_integer_counts_are_domain_errors(self, shots, seed, match):
        dist = build_distribution(CoherentSpec(2.0), params(M, 1e-3))
        with pytest.raises(DomainError, match=match):
            sample_counts(dist, shots, seed)

    def test_numpy_integer_counts_pass_on_as_ints(self):
        dist = build_distribution(CoherentSpec(2.0), params(M, 1e-3))
        sample = sample_counts(dist, np.int64(50), np.uint32(4))
        assert sample == sample_counts(dist, 50, 4)
        assert type(sample.shots) is int and type(sample.seed) is int

    def test_poisson_sample_mean(self):
        # empirical mean within 4 sigma, sigma = sqrt(var/shots) = sqrt(1/1e5)
        dist = build_distribution(CoherentSpec(1.0), params(M, 0.0))
        sample = sample_counts(dist, 100_000, seed=7)
        mean = sum(n * c for n, c in sample.counts.items()) / sample.shots
        assert abs(mean - 1.0) < 4 * math.sqrt(1.0 / 100_000)

    def test_sample_mean_matches_mean_photon(self):
        # within 5 standard errors for each family config
        for spec, kind, eps in [
            (CoherentSpec(4.0), M, 5e-3),
            (ThermalSpec.from_mean_photon(3.0), P, 1e-2),
        ]:
            dist = build_distribution(spec, params(kind, eps))
            sample = sample_counts(dist, 40_000, seed=11)
            ns = np.array(sorted(sample.counts))
            cs = np.array([sample.counts[int(n)] for n in ns], dtype=float)
            emp_mean = float(ns @ cs) / sample.shots
            emp_var = float((ns - emp_mean) ** 2 @ cs) / (sample.shots - 1)
            se = math.sqrt(emp_var / sample.shots)
            assert abs(emp_mean - mean_photon(dist)) < 5 * se

    def test_counts_invariant(self):
        with pytest.raises(DomainError):
            CountSample(counts={0: 3, 1: 2}, shots=6, seed=0)
        with pytest.raises(DomainError):
            CountSample(counts={}, shots=0, seed=0)
        with pytest.raises(DomainError, match="shots must be an integer, got 3.0"):
            CountSample(counts={0: 3}, shots=3.0, seed=0)
        with pytest.raises(DomainError, match="seed must be an integer, got 1.5"):
            CountSample(counts={0: 3}, shots=3, seed=1.5)

    def test_numpy_integers_are_outcomes(self):
        sample = CountSample(counts={np.int64(2): np.int64(3)}, shots=3, seed=0)
        assert sample.counts == {2: 3}

    @pytest.mark.parametrize("counts, match", [
        ({-1: 3}, "got -1: 3"),  # would score the last support level
        ({1: 5, 2: -2}, "got 2: -2"),
        ({1.5: 3}, "got 1.5: 3"),
    ])
    def test_unscorable_outcomes_are_rejected(self, counts, match):
        with pytest.raises(DomainError, match=match):
            CountSample(counts=counts, shots=3, seed=0)


class TestLogLikelihood:
    def test_vacuum_counts_poisson(self):
        # counts {0: M} on a Poisson(|alpha|^2) probe: ln p_0 = -|alpha|^2
        sample = CountSample(counts={0: 50}, shots=50, seed=0)
        ll = log_likelihood(sample, CoherentSpec(1.5), M, 0.0)
        assert ll == pytest.approx(-50 * 1.5, rel=1e-9)

    def test_single_shot(self):
        sample = CountSample(counts={3: 1}, shots=1, seed=0)
        dist = build_distribution(CoherentSpec(2.0), params(M, 1e-3))
        ll = log_likelihood(sample, CoherentSpec(2.0), M, 1e-3)
        assert ll == pytest.approx(float(dist.log_probs[3]), rel=1e-9)

    def test_scales_with_multiplicity(self):
        s1 = CountSample(counts={0: 10, 2: 5}, shots=15, seed=0)
        s2 = CountSample(counts={0: 20, 2: 10}, shots=30, seed=0)
        ll1 = log_likelihood(s1, CoherentSpec(1.0), M, 1e-3)
        ll2 = log_likelihood(s2, CoherentSpec(1.0), M, 1e-3)
        assert ll2 == pytest.approx(2 * ll1, rel=1e-12)

    def test_maximized_near_truth(self):
        spec = ThermalSpec.from_mean_photon(10.0)
        eps_true = 8e-3
        dist = build_distribution(spec, params(M, eps_true))
        sample = sample_counts(dist, 20_000, seed=3)
        grid = np.linspace(2e-3, 14e-3, 13)
        values = [log_likelihood(sample, spec, M, float(e)) for e in grid]
        best = grid[int(np.argmax(values))]
        assert abs(best - eps_true) < 3e-3


class TestMle:
    @pytest.mark.parametrize("bracket", [(0.0,), (0.0, 0.01, 0.02), (), 0.01, ("a", 0.01)])
    def test_bracket_is_two_numbers(self, bracket):
        sample = CountSample(counts={0: 5}, shots=5, seed=0)
        with pytest.raises(DomainError, match="bracket must be two numbers"):
            mle_epsilon(sample, CoherentSpec(1.0), M, bracket)

    def test_degenerate_bracket(self):
        sample = CountSample(counts={0: 5}, shots=5, seed=0)
        result = mle_epsilon(sample, CoherentSpec(1.0), M, (1e-3, 1e-3))
        assert result.converged
        assert result.epsilon_hat == 1e-3
        assert result.iterations == 0

    def test_recovers_zero_deformation(self):
        spec = CoherentSpec(5.0)
        dist = build_distribution(spec, params(M, 0.0))
        sample = sample_counts(dist, 50_000, seed=21)
        result = mle_epsilon(sample, spec, M, (-0.05, 0.05))
        assert result.converged
        fisher = estimation_report(spec, M, 0.0, hold="intensity").fisher
        assert abs(result.epsilon_hat) < 3.0 / math.sqrt(50_000 * fisher)

    def test_recovers_thermal_truth(self):
        spec = ThermalSpec.from_mean_photon(8.0)
        eps_true = 1e-2
        dist = build_distribution(spec, params(M, eps_true))
        sample = sample_counts(dist, 100_000, seed=5)
        result = mle_epsilon(sample, spec, M, (0.0, 0.05))
        fisher = estimation_report(spec, M, eps_true, hold="intensity").fisher
        se = 1.0 / math.sqrt(100_000 * fisher)
        assert result.converged
        assert abs(result.epsilon_hat - eps_true) < 5 * se

    def test_score_vanishes_at_mle(self):
        spec = ThermalSpec.from_mean_photon(8.0)
        eps_true = 1e-2
        dist = build_distribution(spec, params(M, eps_true))
        sample = sample_counts(dist, 20_000, seed=9)
        result = mle_epsilon(sample, spec, M, (0.0, 0.05))
        grad = log_likelihood_gradient(sample, spec, M, result.epsilon_hat)
        curvature = sample.shots * estimation_report(spec, M, result.epsilon_hat,
                                                     hold="intensity").fisher
        # |l'(eps_hat)| / |l''| is the residual offset: below 1e-6
        assert abs(grad) / curvature < 1e-6

    def test_bracket_validation(self):
        sample = CountSample(counts={0: 5}, shots=5, seed=0)
        with pytest.raises(DomainError):
            mle_epsilon(sample, CoherentSpec(1.0), M, (-2.0, 0.0))
        with pytest.raises(DomainError, match="epsilon must be finite and > -1, got -1.5"):
            mle_epsilon(sample, CoherentSpec(1.0), P, (0.1, -1.5))

    def test_bracket_ends_in_either_order(self):
        spec = ThermalSpec.from_mean_photon(8.0)
        sample = sample_counts(build_distribution(spec, params(M, 1e-2)), 2000, seed=4)
        forward = mle_epsilon(sample, spec, M, (0.0, 0.05))
        assert mle_epsilon(sample, spec, M, (0.05, 0.0)) == forward


class TestCrbBenchmark:
    def test_bit_identical_determinism(self):
        spec = ThermalSpec.from_mean_photon(5.0)
        kwargs = dict(spec=spec, kind=M, epsilon_true=5e-3, shots=2000,
                      replications=60, seed=123)
        b1 = crb_benchmark(**kwargs)
        b2 = crb_benchmark(**kwargs)
        assert b1 == b2

    def test_builds_the_true_state_once(self, monkeypatch):
        # One build at epsilon_true serves both F and the sampling; the two
        # bracket ends size the outcome support.
        builds = []
        real = states.build_distribution

        def counting(*args, **kwargs):
            builds.append(args[1].epsilon)
            return real(*args, **kwargs)

        for module in (states, estimation, montecarlo):
            monkeypatch.setattr(module, "build_distribution", counting)
        crb_benchmark(ThermalSpec.from_mean_photon(5.0), M, 5e-3, shots=2000,
                      replications=50, seed=123)
        assert len(builds) == 3
        assert builds[0] == 5e-3

    def test_crb_halves_with_double_shots(self):
        spec = ThermalSpec.from_mean_photon(5.0)
        b1 = crb_benchmark(spec, M, 5e-3, shots=1000, replications=60, seed=1)
        b2 = crb_benchmark(spec, M, 5e-3, shots=2000, replications=60, seed=1)
        assert b2.crb == pytest.approx(b1.crb / 2.0, rel=1e-12)

    def test_ratio_near_unity(self):
        spec = ThermalSpec.from_mean_photon(5.0)
        bench = crb_benchmark(spec, M, 5e-3, shots=4000, replications=80, seed=77)
        assert bench.estimable
        assert bench.failed == 0
        assert 0.6 < bench.ratio < 1.8  # loose at 80 replications
        assert abs(bench.bias) < 4 * math.sqrt(bench.empirical_var / 80)
        # one-sided bound-respect with variance-of-variance allowance
        assert bench.empirical_var >= bench.crb * (1 - 3 * math.sqrt(2 / 80))

    def test_crb_respected_across_configs(self):
        # empirical_var >= crb (1 - 3 sqrt(2/reps)) on a small grid
        import warnings as _warnings

        reps = 60
        allowance = 1 - 3 * math.sqrt(2 / reps)
        configs = [
            (ThermalSpec.from_mean_photon(5.0), M, 5e-3, 2000, 1),
            (CoherentSpec(8.0), M, 5e-3, 2000, 2),
            (ThermalSpec.from_mean_photon(5.0), P, 2e-2, 2000, 3),
        ]
        for spec, kind, eps, shots, seed in configs:
            with _warnings.catch_warnings():
                # near-flat likelihoods can trip the unimodality heuristic on
                # single replications; the best point is still returned
                _warnings.simplefilter("ignore", RuntimeWarning)
                bench = crb_benchmark(spec, kind, eps, shots=shots,
                                      replications=reps, seed=seed)
            assert bench.empirical_var >= bench.crb * allowance

    def test_non_estimable_at_zero_p(self):
        bench = crb_benchmark(CoherentSpec(5.0), P, 0.0, shots=100,
                              replications=60, seed=2)
        assert not bench.estimable
        assert math.isinf(bench.crb)
        assert math.isnan(bench.ratio)

    def test_validation(self):
        with pytest.raises(DomainError):
            crb_benchmark(CoherentSpec(1.0), M, 0.0, shots=0, replications=60, seed=0)
        with pytest.raises(DomainError):
            crb_benchmark(CoherentSpec(1.0), M, 0.0, shots=10, replications=1, seed=0)
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            crb_benchmark(CoherentSpec(1.0), M, 0.0, shots=10, replications=60, seed=-1)

    @pytest.mark.parametrize("name", ["shots", "replications", "seed"])
    def test_non_integer_counts_are_domain_errors(self, name):
        counts = {"shots": 1000, "replications": 50, "seed": 1}
        counts[name] += 0.5
        with pytest.raises(DomainError, match=f"{name} must be an integer, got "):
            crb_benchmark(CoherentSpec(5.0), M, 1e-2, **counts)

    def test_small_replication_warning(self):
        with pytest.warns(RuntimeWarning):
            crb_benchmark(ThermalSpec.from_mean_photon(2.0), M, 5e-3,
                          shots=500, replications=10, seed=4)


class TestBracketHoldsTheTruth:
    # The MLE bracket is clipped to [-0.5, 0.5] and to the admissible
    # minimum (-0.9 / |alpha|^2 = -0.45 here for M); outside it every
    # estimate sat on an edge and the ratio read 0.
    @pytest.mark.parametrize("kind, eps", [(M, 0.6), (P, -0.6), (M, -0.47), (P, 0.5)])
    def test_epsilon_outside_the_bracket_is_a_domain_error(self, kind, eps):
        with pytest.raises(DomainError, match="outside the MLE bracket"):
            crb_benchmark(CoherentSpec(2.0), kind, eps, shots=2000,
                          replications=50, seed=1)

    def test_epsilon_inside_the_clipped_bracket_runs(self):
        bench = crb_benchmark(CoherentSpec(2.0), M, 0.45, shots=2000,
                              replications=50, seed=1)
        assert bench.estimable and bench.failed == 0
        assert bench.empirical_var > 0.0 and bench.ratio > 0.1


def _cut(*point):
    return pytest.param(*point, marks=[
        pytest.mark.filterwarnings("ignore:log-likelihood appears non-unimodal"),
        pytest.mark.xfail(strict=True, raises=AssertionError,
                          reason="a bracket cut within a few sd of the truth: "
                                 "the CRB does not apply"),
    ])


class TestCrbPower:
    # With R = 2000 the variance ratio has a standard error of about
    # sqrt(2 / (R - 1)) = 3.2%, so a 4-SE band tells a saturated bound from
    # one missed by 13%.  The regular points lie far from every bracket cut
    # (M: the admissible minimum; P: the branch point epsilon = 0).  At the
    # cut points the estimator is truncated or mirrored, and the ratio
    # misses 1 by 11 SE or more.
    @pytest.mark.parametrize("family, kind, x, eps, shots", [
        ("coherent", M, 10.0, 0.01, 2000),
        ("cat", M, 5.0, 0.02, 5000),
        ("thermal", M, 20.0, 5e-3, 10_000),
        ("thermal", P, 5.0, 0.1, 5000),
        ("coherent", P, 8.0, 0.08, 5000),
        ("cat", P, 8.0, 0.06, 5000),
        _cut("coherent", P, 3.0, 0.05, 2000),
        _cut("cat", P, 5.67559, 0.0317, 5000),
        _cut("thermal", P, 2.0, 0.05, 2000),
        _cut("thermal", M, 2.0, 2e-3, 2000),
    ])
    def test_mle_saturates_the_crb(self, family, kind, x, eps, shots):
        spec = ThermalSpec.from_mean_photon(x) if family == "thermal" else FAMILIES[family](x)
        reps = 2000
        bench = crb_benchmark(spec, kind, eps, shots, reps, seed=11)
        assert bench.failed == 0
        assert abs(bench.ratio - 1.0) <= 4.0 * math.sqrt(2.0 / (reps - 1))
        assert abs(bench.bias) <= 4.0 * math.sqrt(bench.crb / reps)


# Properties.  derandomize keeps tier-1 deterministic; database=None keeps
# hypothesis from writing into the tree.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)


def _lone_likelihood(spec, kind, eps, ns, cs, n_support):
    """(value, None) or (None, message) of one sample at one epsilon."""
    lp = fixed_support_log_probs(spec, params(kind, eps), max(n_support, int(ns[-1])))[ns]
    if lp.min() < math.log(1e-300):
        return None, (f"observed outcome n={int(ns[int(np.argmin(lp))])} has "
                      f"probability below 1e-300 at epsilon={eps}")
    return float(cs @ lp), None


class TestLockstepBookkeeping:
    """_Likelihoods gathers and floor-checks every row of a kernel chunk at
    once, but each value must still be the lone evaluation's dot, bit for bit."""

    @PROPERTY
    @given(st.sampled_from(sorted(FAMILIES)), st.sampled_from([M, P]),
           st.floats(0.5, 8.0),
           st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 0.1)), min_size=1, max_size=4),
           st.integers(5, 60),
           st.lists(st.dictionaries(st.integers(0, 80), st.integers(1, 40),
                                    min_size=1, max_size=30), max_size=4),
           st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                    min_size=1, max_size=40),
           st.sampled_from([1 << 18, 200]))
    def test_values_and_failures_equal_lone_evaluations(
            self, family, kind, n, grid, n_support, drawn, picks, budget):
        spec = FAMILIES[family].from_mean_photon(n)
        beyond = {0: 3, n_support + 7: 2}  # largest outcome past n_support
        floored = {1: 2, 8000: 1}  # p_8000 < 1e-300 (cat: p_1 = 0 already)
        samples = [montecarlo._counts_arrays(CountSample(c, sum(c.values()), 0))
                   for c in [beyond, floored] + drawn]
        eps = np.array([grid[a % len(grid)] for a, _ in picks] + [grid[0]] * 2)
        reps = np.array([b % len(samples) for _, b in picks] + [0, 1])
        with mock.patch.object(montecarlo, "_ROW_BUDGET", budget):  # 200: many chunks
            loglik = montecarlo._Likelihoods(spec, kind, samples, n_support)
            values, ok = loglik(eps, reps)
            failures = {}
            for i, (e, r) in enumerate(zip(eps.tolist(), reps.tolist())):
                value, message = _lone_likelihood(spec, kind, e, *samples[r], n_support)
                assert ok[i] == (message is None)
                if message is None:
                    assert values[i].tobytes() == np.float64(value).tobytes()
                else:
                    failures.setdefault(r, message)
            assert 1 in failures
            assert {r: str(err) for r, err in loglik.failures.items()} == failures
            # A later call keeps each sample's first failure.
            loglik(eps[::-1], reps[::-1])
            assert {r: str(err) for r, err in loglik.failures.items()} == failures


def _unique_counts(dist, shots, seed):
    """The inverse-CDF sampler counted by np.unique over per-draw outcomes."""
    p = dist.probs / dist.probs.sum()
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    u = np.random.default_rng(seed).random(shots)
    values, mult = np.unique(np.searchsorted(cdf, u, side="right"), return_counts=True)
    return {int(v): int(m) for v, m in zip(values, mult)}


class TestSampleCounts:
    @PROPERTY
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=1,
                    max_size=120).filter(lambda p: sum(p) > 0.0),
           st.integers(1, 5000), st.integers(0, 2**64 - 1))
    @example([0.1, 0.4, 0.1, 0.0], 2000, 3)  # cdf[-2] = 1 + 2^-52 > cdf[-1] = 1
    def test_counts_equal_a_unique_based_reference(self, probs, shots, seed):
        # sample_counts reads probs only.
        dist = PhotonDistribution(probs=np.array(probs), log_probs=np.zeros(len(probs)),
                                  n_max=len(probs) - 1, tail_bound=0.0,
                                  params=params(M, 0.0), spec=CoherentSpec(1.0))
        sample = sample_counts(dist, shots, seed)
        assert list(sample.counts.items()) == list(_unique_counts(dist, shots, seed).items())
        assert all(type(n) is int and type(c) is int for n, c in sample.counts.items())
        assert sum(sample.counts.values()) == shots
