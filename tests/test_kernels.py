"""The in-place support passes against their plain formulations.

Each reference below is the straightforward numpy expression that a kernel
of states or estimation replaces: new arrays for every step, index arrays,
np.where.  The kernels must give the same bits on any row, including ties,
-inf columns (the odd levels of cat rows), a cut at the first or the last
position, and rows where no position meets tol.  The segmented weight row
of a build is checked the same way, against a round loop that computes the
whole row again in every doubling round.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qdeform import states
from qdeform.algebra import DeformationKind, DeformationParams
from qdeform.errors import DivergenceError, DomainError
from qdeform.estimation import PROB_FLOOR, _masked, estimation_report
from qdeform.states import CatSpec, CoherentSpec, ThermalSpec, build_distribution

M, P = DeformationKind.M, DeformationKind.P
KERNELS = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def ref_logsumexp(a):
    a = np.asarray(a, dtype=float)
    a_max = np.max(a, axis=-1, keepdims=True)
    at_max = a == a_max
    m = np.sum(at_max, axis=-1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sum(np.exp(np.where(at_max, -np.inf, a - a_max)), axis=-1, keepdims=True)
        return (np.log1p(s / m) + np.log(m) + a_max)[..., 0]


def ref_last_true(mask):
    keep = np.nonzero(mask)[0]
    return int(keep[-1]) if keep.size else 0


def ref_cut(lnw_sup, ln_tail, ln_total, tol):
    """(cut, tail_bound, q[:cut + 1]) from the suffix sums and their first
    position meeting tol."""
    with np.errstate(under="ignore"):
        q = np.exp(lnw_sup - ln_total)
    suffix = np.cumsum(np.append(math.exp(ln_tail - ln_total), q[::-1]))[::-1][1:]
    ok = np.nonzero(suffix <= tol)[0]
    cut = int(ok[0]) if ok.size else len(lnw_sup) - 1
    return cut, float(suffix[cut]), q[: cut + 1]


def ref_fisher(dist, hold):
    """F from the masked score, with a boolean mask and plain @ products."""
    p = dist.probs
    mask = p > PROB_FLOOR
    pm = p[mask]
    pm = pm / pm.sum()
    n = np.arange(dist.n_max + 1, dtype=float)[mask]
    d = dist.spec.eps_score(dist.params, dist.n_max)[mask]
    if hold == "mean_photon":
        t = dist.spec.ln_theta_score(dist)[mask]
        nc = n - float(pm @ n)
        cov_nd = float(pm @ (nc * (d - float(pm @ d))))
        cov_nt = float(pm @ (nc * (t - float(pm @ t))))
        if abs(cov_nt) >= 1e-290:
            d = d - cov_nd / cov_nt * t
    sc = d - float(pm @ d)
    return float(pm @ (sc * sc))


# Support log-weights: ties come from the few repeated values, and the
# range reaches past the _UNDERFLOW_LOG trim and the exp underflow.
weights = st.lists(st.one_of(st.floats(-900.0, 50.0), st.sampled_from([0.0, -1.0, -700.0])),
                   min_size=2, max_size=200)
tols = st.one_of(st.floats(1e-18, 1.0), st.just(0.0))


def _row(sup, cat):
    """The full weight row: support entries, and -inf odd columns for cat."""
    step = 2 if cat else 1
    lnw = np.full(step * (len(sup) - 1) + 1, -np.inf)
    lnw[::step] = sup
    return lnw, step


class TestLogSumExp:
    @KERNELS
    @given(st.lists(weights, min_size=1, max_size=4), st.booleans())
    def test_matches_the_where_formulation(self, rows, cat):
        width = min(len(r) for r in rows)
        a = np.array([_row(r[:width], cat)[0] for r in rows])
        assert states._logsumexp(a).tobytes() == ref_logsumexp(a).tobytes()
        for row in a:
            assert states._logsumexp(row).tobytes() == ref_logsumexp(row).tobytes()

    def test_infinite_maxima(self):
        for a in ([-np.inf, -np.inf], [np.inf, 0.0, np.inf], [0.0, 0.0, -np.inf]):
            assert states._logsumexp(a).tobytes() == ref_logsumexp(a).tobytes()


class TestLastKept:
    @KERNELS
    @given(weights, st.booleans())
    @example([0.0, -701.0], False)  # only the peak is above the trim
    @example([-800.0, 0.0, -699.0, -701.0, -699.5, -900.0], False)
    def test_matches_the_index_array(self, sup, cat):
        # The build's trim mask: entries within _UNDERFLOW_LOG of the peak.
        lnw, step = _row(sup, cat)
        lnw_sup = lnw[::step]
        mask = lnw_sup > float(np.max(lnw_sup)) - states._UNDERFLOW_LOG
        assert states._last_true(mask) == ref_last_true(mask)

    @KERNELS
    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    def test_any_mask(self, bits):
        mask = np.array(bits)
        assert states._last_true(mask) == ref_last_true(mask)
        assert states._last_true(np.zeros_like(mask)) == 0  # no True at all


class TestFinalizeCut:
    @staticmethod
    def _both(sup, tail_offset, tol, cat):
        lnw, step = _row(sup, cat)
        lnw_sup = lnw[::step]
        ln_tail = float(np.max(lnw_sup)) + tail_offset
        ln_total = float(np.logaddexp(states._logsumexp(lnw_sup), ln_tail))
        spec = CatSpec(1.0) if cat else CoherentSpec(1.0)
        dist = states._finalize(lnw, range(0, len(lnw_sup) * step, step), lnw_sup, ln_tail,
                                ln_total, tol, DeformationParams(M, 0.0), spec)
        cut, tail_bound, q = ref_cut(lnw_sup, ln_tail, ln_total, tol)
        assert dist.n_max == cut * step
        assert dist.tail_bound.hex() == tail_bound.hex()
        assert dist.probs[::step].tobytes() == q.tobytes()
        assert not (cat and dist.probs[1::2].any())
        assert dist.log_probs.tobytes() == (lnw[: cut * step + 1] - ln_total).tobytes()
        return cut, len(lnw_sup)

    @KERNELS
    @given(weights, st.floats(-800.0, 5.0), tols, st.booleans())
    def test_matches_the_suffix_search(self, sup, tail_offset, tol, cat):
        self._both(sup, tail_offset, tol, cat)

    @pytest.mark.parametrize("cat", [False, True])
    @pytest.mark.parametrize("sup, tail_offset, tol, where", [
        ([0.0, -50.0, -60.0], -70.0, 1e-6, "first"),
        ([0.0, 0.0, 0.0, 0.0], -40.0, 1e-12, "last"),  # only the last position meets tol
        ([0.0, 0.0, 0.0, 0.0], -5.0, 1e-6, "none"),  # the tail alone exceeds tol
        ([0.0, -1.0, -1.0, -1.0, -800.0], -30.0, 0.0, "none"),  # tol 0 and a positive tail
    ])
    def test_corners(self, sup, tail_offset, tol, where, cat):
        cut, size = self._both(sup, tail_offset, tol, cat)
        assert cut == {"first": 0, "last": size - 1, "none": size - 1}[where]


class TestMaskedViews:
    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(st.sampled_from(["coherent", "thermal", "cat"]), st.sampled_from([M, P]),
           st.floats(0.5, 150.0), st.floats(-2e-3, 2e-2),
           st.sampled_from(["mean_photon", "intensity"]))
    def test_view_path_equals_the_copy_path(self, family, kind, n, eps, hold):
        spec = {"coherent": CoherentSpec, "thermal": ThermalSpec,
                "cat": CatSpec}[family].from_mean_photon(n)
        if family == "thermal" and kind is M:
            eps = abs(eps)  # M thermal states diverge at every epsilon < 0
        pr = DeformationParams(kind, eps)
        dist = build_distribution(spec, pr)
        assert dist.n_max <= states._DOT_BLOCK  # where every @ is one dot product
        mask, pm, levels = _masked(dist)
        plain = dist.probs > PROB_FLOOR
        if family == "thermal":
            assert mask == slice(None)  # every thermal level is above the floor
        assert isinstance(mask, slice) == plain.all()
        want = dist.probs[plain]
        assert pm.tobytes() == (want / want.sum()).tobytes()
        assert levels.tobytes() == np.arange(dist.n_max + 1, dtype=float)[plain].tobytes()
        score = spec.eps_score(pr, dist.n_max)
        assert score[mask].tobytes() == score[plain].tobytes()
        fisher = estimation_report(spec, kind, eps, hold=hold).fisher
        assert fisher.hex() == ref_fisher(dist, hold).hex()


def ref_certify(lnw_sup):
    """Log tail bound from the whole trimmed row, as np.diff gives its ratios."""
    diffs = np.diff(lnw_sup)
    if diffs.size == 0:
        raise DivergenceError("support too small to certify truncation")
    if np.any(diffs[1:] > diffs[:-1] + states._RATIO_SLACK):
        raise DivergenceError("weight ratios are not non-increasing")
    r_log = float(diffs[-1]) + states._RATIO_SLACK
    if r_log >= 0.0:
        raise DivergenceError("boundary weight ratio has not fallen below 1")
    return float(lnw_sup[-1]) + r_log - math.log1p(-math.exp(r_log))


def ref_build(spec, params, tol):
    """build_distribution with a weight row computed whole in every round."""
    states._check_normalizable(spec, params)
    step, cap = spec.step, states.HARD_CAP
    where = f"({type(spec).__name__}, kind={params.kind.value}, epsilon={params.epsilon})"
    n_max = states._initial_n_max(spec.n0)
    while True:
        n_max = min(n_max + n_max % step, cap)
        lnw = spec.log_weight_rows(params.kind, [params.epsilon], n_max)[0]
        lnw_sup = lnw[::step]
        peak = float(np.max(lnw_sup))
        last = max(ref_last_true(lnw_sup > peak - states._UNDERFLOW_LOG), 1)
        trimmed = lnw_sup[: last + 1]
        try:
            ln_tail = ref_certify(trimmed)
        except DivergenceError:
            if n_max >= cap:
                raise DivergenceError(f"state sum not certifiably convergent within "
                                      f"n_max = {cap} {where}") from None
            n_max = min(2 * n_max, cap)
            continue
        if n_max < cap and states._tail_surely_above(peak, len(trimmed), ln_tail, tol):
            n_max = min(2 * n_max, cap)
            continue
        ln_total = float(np.logaddexp(states._logsumexp(trimmed), ln_tail))
        if math.exp(ln_tail - ln_total) <= tol:
            return states._finalize(lnw, range(0, (last + 1) * step, step), trimmed,
                                    ln_tail, ln_total, tol, params, spec)
        if n_max >= cap:
            raise DivergenceError(f"tail tolerance {tol} not reached at hard cap "
                                  f"n_max = {cap} {where}")
        n_max = min(2 * n_max, cap)


def _outcome(build, spec, params, tol):
    """A build's bits, or the type and message of its error, from fresh level rows."""
    build_distribution.cache_clear()
    try:
        dist = build(spec, params, tol)
    except (DivergenceError, DomainError) as exc:
        return type(exc), str(exc)
    return dist.probs.tobytes(), dist.log_probs.tobytes(), dist.n_max, dist.tail_bound.hex()


def _same_as_whole_rows(spec, params, tol=states.DEFAULT_TOL):
    got = _outcome(build_distribution, spec, params, tol)
    assert got == _outcome(ref_build, spec, params, tol)
    return got


def _segments(monkeypatch, cls):
    """Record (start, n_max) of every weight-row call on the spec class."""
    calls = []
    real = cls.log_weight_rows

    def spy(self, kind, eps, n_max, start=0, out=None):
        calls.append((start, n_max))
        return real(self, kind, eps, n_max, start, out)

    monkeypatch.setattr(cls, "log_weight_rows", spy)
    return calls


@dataclass(frozen=True)
class KinkedRow(states._Probe):
    """A probe with ln w_n = -slope n, whose log-ratio rises by 1e-3 once,
    between n = kink and kink + 1, and stays negative for slope > 1e-3: the
    build may certify no round whose support reaches past the kink."""

    n0: float
    slope: float
    kink: int

    m_divergence_rate = math.inf

    def log_weight_rows(self, kind, eps, n_max, start=0, out=None):
        n = np.arange(start, n_max + 1, dtype=float)
        row = n * -self.slope + np.maximum(n - self.kink, 0.0) * 1e-3
        if out is None:
            out = np.empty((len(eps), row.size))
        out[:] = row
        return out


class TestSegmentedRow:
    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(st.sampled_from(sorted(states.FAMILIES)), st.sampled_from([M, P]),
           st.integers(-300, 400), st.one_of(
               st.sampled_from([0.0, -0.0]), st.floats(-0.05, 0.05),
               st.floats(0.5, 0.999).map(lambda f: ("rate", f))),
           st.floats(-18.0, -6.0))
    @example("coherent", M, 200, ("rate", 0.999), -12.0)  # certify fails, then passes
    @example("cat", P, 370, 0.0, -18.0)
    @example("thermal", M, 230, 1e-4, -12.0)
    @example("thermal", M, 100, -1e-3, -12.0)  # not normalizable
    @example("coherent", P, 400, 0.01, -9.0)
    def test_builds_equal_whole_row_rounds(self, family, kind, log100_n, eps, log10_tol):
        # N from 1e-3 to 1e4, on a grid that hypothesis draws evenly
        spec = states.FAMILIES[family].from_mean_photon(10.0 ** (log100_n / 100))
        if isinstance(eps, tuple):  # M, epsilon < 0, a fraction of the divergence rate
            kind, eps = M, -eps[1] / spec.m_divergence_rate
        assume(eps > -1.0)
        _same_as_whole_rows(spec, DeformationParams(kind, eps), 10.0 ** log10_tol)

    # Rounds end at n = 16, 32, ... for n0 = 1; for n0 = 3000 the first
    # round's segments end at n = 6109, 12219 and 24439.
    @pytest.mark.parametrize("n0, kink", [
        (1.0, k) for k in (13, 14, 15, 16, 17, 31, 32, 33)] + [
        (3000.0, k) for k in (6108, 6109, 6110, 12218, 12219, 12220, 24437, 24438)])
    def test_kink_at_a_junction(self, n0, kink):
        got = _same_as_whole_rows(KinkedRow(n0, 1e-2, kink), DeformationParams(M, 0.0))
        assert got[0] is DivergenceError

    def test_round_that_fails_certify(self, monkeypatch):
        failed = []
        real = states._certify

        def spy(lnw_sup):
            ln_tail = real(lnw_sup)
            if ln_tail is None:
                failed.append(len(lnw_sup))
            return ln_tail

        monkeypatch.setattr(states, "_certify", spy)
        # |alpha|^2 |eps| = 0.9999: the first row still rises at its end
        got = _same_as_whole_rows(CoherentSpec(100.0), DeformationParams(M, -0.009999))
        assert failed and got[2] > 8 * 110

    def test_thermal_build_of_three_rounds(self, monkeypatch):
        rounds = []  # _certify runs once per round
        real = states._certify
        monkeypatch.setattr(states, "_certify", lambda lnw_sup: rounds.append(1) or real(lnw_sup))
        _same_as_whole_rows(ThermalSpec.from_mean_photon(200.0), DeformationParams(M, 1e-4))
        assert len(rounds) >= 3

    @pytest.mark.parametrize("spec, kind, eps, message", [
        (ThermalSpec(beta=1e-308), P, 0.3, "tail tolerance 1e-12 not reached at hard cap"),
        (CoherentSpec(1e300), M, 0.0, "not certifiably convergent within n_max = 1000000"),
        (ThermalSpec.from_mean_photon(1e6), M, 0.0, "not reached at hard cap"),
    ])
    def test_hard_cap_errors(self, spec, kind, eps, message):
        got = _same_as_whole_rows(spec, DeformationParams(kind, eps))
        assert got[0] is DivergenceError and message in got[1]


class TestSegmentWork:
    def test_coherent_row_stops_past_its_trim_point(self, monkeypatch):
        calls = _segments(monkeypatch, CoherentSpec)
        build_distribution.cache_clear()
        dist = build_distribution(CoherentSpec(5000.0), DeformationParams(M, 0.0))
        computed = sum(n_max + 1 - start for start, n_max in calls)
        assert computed <= 3 * (dist.n_max + 1)  # 40,567 when the round was computed whole

    def test_thermal_rounds_compute_each_entry_once(self, monkeypatch):
        calls = _segments(monkeypatch, ThermalSpec)
        spec, pr = ThermalSpec.from_mean_photon(2000.0), DeformationParams(M, 1e-5)
        build_distribution.cache_clear()
        build_distribution(spec, pr)
        segments = list(calls)
        starts = [start for start, _ in segments]
        assert starts == [0] + [n_max + 1 for _, n_max in segments[:-1]]  # contiguous
        assert segments[-1][1] > 2 * states._initial_n_max(spec.n0)  # it did double
        calls.clear()
        ref_build(spec, pr, states.DEFAULT_TOL)
        assert segments[-1][1] == calls[-1][1]  # the row ends at the last round's n_max
