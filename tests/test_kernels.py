"""The in-place support passes against their plain formulations.

Each reference below is the straightforward numpy expression that a kernel
of states or estimation replaces: new arrays for every step, index arrays,
np.where.  The kernels must give the same bits on any row, including ties,
-inf columns (the odd levels of cat rows), a cut at the first or the last
position, and rows where no position meets tol.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdeform import states
from qdeform.algebra import DeformationKind, DeformationParams
from qdeform.estimation import PROB_FLOOR, _masked, classical_fisher
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
        t = dist.spec.intensity_score(dist.params, dist.n_max)[mask]
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
        assert classical_fisher(spec, kind, eps, hold=hold).hex() == ref_fisher(dist, hold).hex()
