"""What crb_benchmark feeds its lockstep fits (the count arrays it samples,
the likelihood rows its kernel computes per call), and lockstep searches
stopped by the iteration cap."""

import numpy as np
import pytest

from qdeform import algebra, montecarlo
from qdeform.algebra import DeformationKind, DeformationParams
from qdeform.errors import BenchmarkError
from qdeform.montecarlo import crb_benchmark, sample_counts
from qdeform.states import CatSpec, CoherentSpec, ThermalSpec, build_distribution

M, P = DeformationKind.M, DeformationKind.P
CASES = [
    (CoherentSpec(10.0), M, 1e-2),
    (CatSpec(5.0), P, 0.05),
    (ThermalSpec.from_mean_photon(15.0), M, 5e-3),
]
IDS = ["coherent", "cat", "thermal"]
# 20 replications, as in the benchmark's pool; P cat likelihoods are near even in epsilon.
pytestmark = [
    pytest.mark.filterwarnings("ignore:fewer than 50 replications:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:log-likelihood appears non-unimodal:RuntimeWarning"),
]


def _fitted_samples(monkeypatch):
    """The samples handed to each _Likelihoods that crb_benchmark builds."""
    seen = []

    class Recording(montecarlo._Likelihoods):
        def __init__(self, spec, kind, samples, n_support):
            seen.append(samples)
            super().__init__(spec, kind, samples, n_support)

    monkeypatch.setattr(montecarlo, "_Likelihoods", Recording)
    return seen


@pytest.mark.parametrize("shots", [3, 2000, 5000])
@pytest.mark.parametrize("spec, kind, eps", CASES, ids=IDS)
def test_fitted_counts_are_those_of_sample_counts(monkeypatch, spec, kind, eps, shots):
    seen = _fitted_samples(monkeypatch)
    try:
        crb_benchmark(spec, kind, eps, shots=shots, replications=20, seed=11)
    except BenchmarkError:  # 3 shots can leave too many fits without an estimate
        pass
    (samples,) = seen
    dist = build_distribution(spec, DeformationParams(kind, eps))
    seeds = np.random.SeedSequence(11).generate_state(20, np.uint64)
    assert len(samples) == len(seeds)
    for (ns, cs), s in zip(samples, seeds):
        want_ns, want_cs = montecarlo._counts_arrays(sample_counts(dist, shots, int(s)))
        assert ns.dtype == want_ns.dtype and cs.dtype == want_cs.dtype
        assert ns.tobytes() == want_ns.tobytes()
        assert cs.tobytes() == want_cs.tobytes()


@pytest.mark.parametrize("spec, kind, eps", CASES, ids=IDS)
def test_each_distinct_epsilon_is_computed_once_per_call(monkeypatch, spec, kind, eps):
    # Rows are counted where ln [j] is computed, once per row of every level
    # vector; each likelihood call records the distinct (support, epsilon)
    # pairs it was asked for and how many rows it computed.
    calls = []
    real_rows, real_call = algebra._log_q_rows, montecarlo._Likelihoods.__call__

    def counting_rows(kind, eps, *args, **kwargs):
        if calls:
            calls[-1][1] += np.asarray(eps).size
        return real_rows(kind, eps, *args, **kwargs)

    def recording_call(self, eps, reps):
        pairs = set(zip(self.supports[reps].tolist(), eps.tolist()))
        calls.append([pairs, 0, len(reps)])
        return real_call(self, eps, reps)

    monkeypatch.setattr(algebra, "_log_q_rows", counting_rows)
    monkeypatch.setattr(montecarlo._Likelihoods, "__call__", recording_call)
    bench = crb_benchmark(spec, kind, eps, shots=2000, replications=20, seed=5)
    assert bench.failed == 0
    # The 9-point coarse scan and the first two golden points, shared by
    # every replication: 11 rows for 11 x 20 requests.
    assert [len(calls[0][0])] + calls[0][1:] == [11, 11, 11 * 20]
    assert len(calls) > 40
    for (pairs, computed, _), (before, _, _) in zip(calls[1:], calls):
        if pairs == before:  # two steps can land every search on the same points
            assert computed in (0, len(pairs))  # kept from the call before, or not
        else:
            assert computed == len(pairs)


@pytest.mark.parametrize("cap", [1, 7, 30])
@pytest.mark.parametrize("spec, kind, eps", CASES, ids=IDS)
def test_searches_stopped_by_the_iteration_cap_equal_lone_searches(
        monkeypatch, spec, kind, eps, cap):
    # Every lockstep search shares one step count; at the cap all stop
    # together, unconverged, each with the bracket of its lone search.
    from test_lockstep import ref_mle

    monkeypatch.setattr(montecarlo, "_MAX_ITER", cap)
    a, b = 0.5 * eps, 2.0 * eps
    dist = build_distribution(spec, DeformationParams(kind, eps))
    samples = [sample_counts(dist, 2000, s) for s in range(6)]
    n_support = montecarlo._bracket_support(spec, kind, a, b, 1e-12)
    loglik = montecarlo._Likelihoods(
        spec, kind, [montecarlo._counts_arrays(s) for s in samples], n_support)
    got = montecarlo._golden_section(loglik, a, b)
    want = [ref_mle(s, spec, kind, a, b, n_support, max_iter=cap) for s in samples]
    assert got == want
    assert all(r.iterations == cap and not r.converged for r in got)
