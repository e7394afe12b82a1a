"""Oracle tests for the q-number algebra.

The factored per-level product is the production path; the closed product
forms (for M, and for P with the algebraically required (1+q^n)/2 factor
restoring Delta_1 = 1) serve as independent oracles, alongside an exact
rational/Decimal evaluation pinned as a golden constant.
"""

import functools
import itertools
import math
import sys
from decimal import Decimal, getcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from qdeform.algebra import (
    DeformationKind,
    DeformationParams,
    _levels,
    _log_abs_expm1,
    dgamma_values,
    dlog_delta_values,
    dlog_q_number_values,
    log_delta,
    q_number,
)
from qdeform.errors import DomainError
from qdeform.estimation import estimation_report
from qdeform.oracles import delta_series, g_product, gamma_series, log_q_number_values
from qdeform.states import CoherentSpec

M, P = DeformationKind.M, DeformationKind.P
EPS_GRID = [0.1, -0.1, 1e-3, -1e-3, 1e-6, -1e-6]

# ln Delta_3 for the P deformation at eps = 1/100, evaluated from the exact
# rational product at 60-digit precision (see oracle below).
LOG_DELTA3_P_001 = 1.791940980708786885279417861807074


def params(kind, eps):
    return DeformationParams(kind, eps)


class TestQNumber:
    def test_undeformed_limit(self):
        assert q_number(params(M, 0.0), 5) == 5.0
        assert q_number(params(P, 0.0), 7) == 7.0

    def test_m_hand_value(self):
        # ((1.1)^2 - 1)/0.1
        assert q_number(params(M, 0.1), 2) == pytest.approx(2.1, rel=1e-14)

    def test_p_hand_value(self):
        # (1.1)^{-1} ((1.1)^4 - 1)/(0.1 * 2.1)
        assert q_number(params(P, 0.1), 2) == pytest.approx(2.0090909090909090, rel=1e-13)

    @pytest.mark.parametrize("kind", [M, P])
    def test_boundary_values(self, kind):
        for eps in EPS_GRID:
            assert q_number(params(kind, eps), 0) == 0.0
            assert q_number(params(kind, eps), 1) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_monotone_growth(self, kind, eps):
        pr = params(kind, eps)
        values = [q_number(pr, n) for n in range(1, 31)]
        assert all(v > 0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("eps", [0.5, -0.3, 2.0, 0.05, -0.05, 1e-3, -1e-3, 1e-9])
    def test_equals_the_kept_gamma_row(self, kind, eps):
        # One route to [n]: the gamma_n that every build reads, bit for bit,
        # +inf included.
        row = _levels(kind, [eps]).gamma(4000)[0]
        ns = np.random.default_rng(7).choice(4001, size=300, replace=False)
        got = np.array([q_number(params(kind, eps), int(n)) for n in ns])
        assert got.tobytes() == row[ns].tobytes()

    def test_finite_where_only_an_intermediate_overflows(self):
        # q^(2n) = 1.5^2000 overflows; [1000] itself is about 1.48e176.
        assert q_number(params(P, 0.5), 1000) == 1.4806087162874103e+176

    @pytest.mark.parametrize("kind, eps", [(M, 0.5), (P, 0.5), (M, 2.0), (P, -0.3),
                                           (P, 0.05), (M, 0.05)])
    def test_inf_exactly_past_the_float_range(self, kind, eps):
        # [n] against 50 digits across the n where it leaves the float range:
        # +inf past it, finite below it, down to where q^(2n) alone leaves
        # it.  e^x turns the rounding of x = ln [n], a few ulps of |x|, into
        # relative error (measured up to 1.6 u |x|, 1.1e-13 near the top of
        # the range).
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            q = 1 + mp.mpf(eps)
            top = int(mp.log(sys.float_info.max) / abs(mp.log(q)))  # [top] near the max
            for n in range(max(1, top // 2 - 50), top + 200, max(1, top // 400)):
                if kind is M:
                    exact = (q ** n - 1) / (q - 1)
                else:
                    exact = (q ** n - q ** -n) / (q - 1 / q)
                got = q_number(params(kind, eps), n)
                assert math.isinf(got) == (exact > sys.float_info.max), n
                if not math.isinf(got):
                    bound = 4.0 * sys.float_info.epsilon * max(1.0, float(mp.log(exact)))
                    assert abs(got - exact) <= bound * exact, n

    def test_domain_error(self):
        with pytest.raises(DomainError):
            DeformationParams(M, -1.0)
        with pytest.raises(DomainError):
            DeformationParams(M, -1.5)
        with pytest.raises(DomainError):
            q_number(params(M, 0.1), -1)

    # A level index is an integer: a float, NaN or string is a DomainError
    # whatever epsilon, and never a value (2.5 used to give 2.5 at eps = 0).
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("n", [2.5, math.nan, "3", 3.0])
    def test_level_index_must_be_an_integer(self, kind, eps, n):
        pr = params(kind, eps)
        for call in (lambda: q_number(pr, n), lambda: log_delta(pr, n),
                     lambda: dlog_q_number_values(pr, n), lambda: dlog_delta_values(pr, n),
                     lambda: dgamma_values(pr, n)):
            with pytest.raises(DomainError, match="must be an integer"):
                call()

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("kind", [M, P])
    def test_negative_level_index(self, kind, eps):
        pr = params(kind, eps)
        for call in (lambda: q_number(pr, -1), lambda: log_delta(pr, -1),
                     lambda: dlog_q_number_values(pr, -1), lambda: dlog_delta_values(pr, -1),
                     lambda: dgamma_values(pr, -1)):
            with pytest.raises(DomainError, match="must be >= 0, got -1"):
                call()

    @pytest.mark.parametrize("eps", [0.0, 0.1, -0.3])
    @pytest.mark.parametrize("kind", [M, P])
    def test_numpy_integers_keep_their_results(self, kind, eps):
        pr = params(kind, eps)
        for n in (0, 1, 7, 40):
            assert q_number(pr, np.int64(n)) == q_number(pr, n)
            assert log_delta(pr, np.int64(n)) == log_delta(pr, n)
            for f in (dlog_q_number_values, dlog_delta_values, dgamma_values):
                assert f(pr, np.int64(n)).tobytes() == f(pr, n).tobytes()


class TestGProduct:
    def test_single_factor(self):
        assert g_product(1.1, 1.1, 1) == pytest.approx(-0.1, rel=1e-14)

    def test_empty_product(self):
        assert g_product(3.7, -2.0, 0) == 1.0

    def test_hand_value(self):
        # (1 - (-1))(1 - (-1)(1.1)) = 2 * 2.1
        assert g_product(-1.0, 1.1, 2) == pytest.approx(4.2, rel=1e-14)


class TestLogDelta:
    def test_factorial_limit(self):
        assert log_delta(params(M, 0.0), 4) == pytest.approx(math.log(24), rel=1e-14)
        assert log_delta(params(M, 0.0), 0) == 0.0

    def test_m_two_level(self):
        assert log_delta(params(M, 0.1), 2) == pytest.approx(math.log(2.1), rel=1e-14)

    def test_p_golden_constant(self):
        # Independent oracle: exact rationals for the symmetric q-numbers at
        # eps = 1/100, then a 60-digit log.
        getcontext().prec = 60
        eps = Fraction(1, 100)
        q = 1 + eps
        delta = Fraction(1)
        for j in (1, 2, 3):
            delta *= q ** (1 - j) * (q ** (2 * j) - 1) / (eps * (2 + eps))
        oracle = Decimal(delta.numerator) / Decimal(delta.denominator)
        assert float(oracle.ln()) == pytest.approx(LOG_DELTA3_P_001, abs=1e-14)
        assert log_delta(params(P, 0.01), 3) == pytest.approx(LOG_DELTA3_P_001, rel=1e-13)

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_m_closed_form_oracle(self, eps):
        # Delta_n = (-1/eps)^n g_n(q, q) exactly, q = 1 + eps.  The closed
        # form cancels catastrophically near eps = 0 in floats, so the
        # oracle side is evaluated in exact rational arithmetic on the same
        # binary epsilon; comparison in the log domain, tolerance 1e-10.
        e = Fraction(eps)
        q = 1 + e
        pr = params(M, eps)
        ld = [log_delta(pr, n) for n in range(31)]
        getcontext().prec = 50
        for n in range(0, 31):
            g = Fraction(1)
            for k in range(n):
                g *= 1 - q * q ** k
            closed = (-1 / e) ** n * g
            ln_closed = float(
                (Decimal(closed.numerator) / Decimal(closed.denominator)).ln()
            )
            assert abs(ld[n] - ln_closed) < 1e-10

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_p_closed_form_oracle(self, eps):
        # The symmetric-product identity needs the extra (1 + q^n)/2 factor:
        # g_n(q^2, q^2) = g_n(q, q) g_n(-1, q) (1 + q^n)/2, which restores
        # Delta_0 = Delta_1 = 1.  Oracle in exact rationals; tolerance 1e-8
        # on the log (the factored production form is the authority).
        e = Fraction(eps)
        q = 1 + e
        pr = params(P, eps)
        ld = [log_delta(pr, n) for n in range(31)]
        getcontext().prec = 50
        for n in range(0, 31):
            g_minus = Fraction(1)
            g_plain = Fraction(1)
            for k in range(n):
                g_minus *= 1 + q ** k
                g_plain *= 1 - q * q ** k
            closed = (
                Fraction(-1) ** n
                * q ** (-n * (n - 1) // 2)
                * (e * (e + 2)) ** (-n)
                * g_minus
                * g_plain
                * (1 + q ** n)
                / 2
            )
            ln_closed = float(
                (Decimal(closed.numerator) / Decimal(closed.denominator)).ln()
            )
            assert abs(ld[n] - ln_closed) < 1e-8

    @pytest.mark.parametrize("kind", [M, P])
    def test_continuity_at_zero(self, kind):
        pr = params(kind, 1e-12)
        ld = [log_delta(pr, n) for n in range(31)]
        for n in range(31):
            assert abs(ld[n] - math.lgamma(n + 1)) < 1e-9


class TestDeltaSeries:
    def test_m_printed_form(self):
        eps = 0.02
        # n! [1 + eps n(n-1)/4] at n = 3 -> 6 (1 + 1.5 eps)
        assert delta_series(params(M, eps), 3) == pytest.approx(6 * (1 + 1.5 * eps))

    def test_p_printed_form(self):
        eps = 0.02
        # coefficient n(n-1)(2n+5)/36 at n = 2 is 1/2
        assert delta_series(params(P, eps), 2) == pytest.approx(2 * (1 + eps * eps / 2))

    def test_zero_level(self):
        assert delta_series(params(M, 0.3), 0) == 1.0
        assert delta_series(params(P, 0.3), 0) == 1.0

    @pytest.mark.parametrize("kind,shrink", [(M, 4.0), (P, 8.0)])
    def test_series_consistency_halving(self, kind, shrink):
        # |Delta_n - series|/n! is next order in eps: halving eps shrinks the
        # residual by 4x (M, first order) or 8x (P, second order).
        eps = 1e-3
        n = 12
        def resid(e):
            exact = math.exp(log_delta(params(kind, e), n))
            return abs(exact - delta_series(params(kind, e), n)) / math.factorial(n)
        ratio = resid(eps) / resid(eps / 2)
        assert ratio == pytest.approx(shrink, rel=0.20)


class TestGamma:
    def test_m_matches_q_number(self):
        assert q_number(params(M, 0.1), 2) == pytest.approx(2.1, rel=1e-14)

    def test_undeformed(self):
        assert q_number(params(P, 0.0), 7) == 7.0

    def test_m_series(self):
        eps = 1e-4
        # gamma_3 ~ 3 + 3 eps
        assert gamma_series(params(M, eps), 3) == pytest.approx(3 + 3 * eps)
        exact = q_number(params(M, eps), 3)
        assert exact == pytest.approx(3 + 3 * eps, abs=5 * eps ** 2)

    def test_p_series(self):
        eps = 1e-3
        # gamma_n ~ n + eps^2 n(n^2-1)/6
        approx = gamma_series(params(P, eps), 4)
        assert approx == pytest.approx(4 + eps * eps * 4 * 15 / 6)
        exact = q_number(params(P, eps), 4)
        assert exact == pytest.approx(approx, abs=5e-7)


class TestDerivativeArrays:
    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2, -1e-3, -1e-2])
    def test_dlog_q_matches_central_difference(self, kind, eps):
        # Agreement to relative 1e-6 on the score scale; entries near zero
        # are dominated by finite-difference rounding noise.
        h = max(1e-7, 1e-3 * abs(eps))
        hi = log_q_number_values(params(kind, eps + h), 60)[1:]
        lo = log_q_number_values(params(kind, eps - h), 60)[1:]
        fd = (hi - lo) / (2 * h)
        an = dlog_q_number_values(params(kind, eps), 60)[1:]
        scale = np.max(np.abs(fd))
        # rounding-noise floor of the finite difference itself
        noise = 64 * np.finfo(float).eps * np.max(np.abs(hi)) / (2 * h)
        assert np.all(
            np.abs(an - fd) <= 1e-6 * np.maximum(np.abs(fd), scale * 1e-2) + noise
        )

    @pytest.mark.parametrize("kind", [M, P])
    def test_dlog_delta_at_zero_limits(self, kind):
        dd = dlog_delta_values(params(kind, 0.0), 10)
        for n in range(11):
            if kind is M:
                assert dd[n] == pytest.approx(n * (n - 1) / 4.0, abs=1e-12)
            else:
                assert dd[n] == 0.0

    def test_gamma_values_overflow_to_inf(self):
        g = _levels(M, [0.5]).gamma(3000)[0]
        assert g[0] == 0.0
        assert np.isinf(g[-1])


def masked_log_abs_expm1(x):
    """ln|e^x - 1| with every entry routed through its own branch."""
    out = np.empty_like(x)
    big = x > 33.0
    out[big] = x[big] + np.log1p(-np.exp(-x[big]))
    with np.errstate(divide="ignore"):
        out[~big] = np.log(np.abs(np.expm1(x[~big])))
    return out


class TestLogAbsExpm1:
    # Arguments as _log_q_rows makes them (j L and 2 j L, either sign), over
    # lengths that end both on and off a SIMD block.
    @pytest.mark.parametrize("size", [1, 3, 8, 17, 64, 1001, 40_000])
    @pytest.mark.parametrize("case", ["below", "above", "straddling", "zero"])
    def test_fast_path_is_bit_identical(self, size, case):
        rng = np.random.default_rng(size)
        lo, hi = {"below": (-40.0, 33.0), "above": (33.0, 1500.0),
                  "straddling": (-5.0, 80.0), "zero": (-1e-3, 1e-3)}[case]
        x = rng.uniform(lo, hi, size=(2, size))
        if case == "zero":
            x[:, ::3] = 0.0
        elif case != "above":
            x[1, 0] = 33.0  # the threshold itself stays on the expm1 branch
        got, want = _log_abs_expm1(x.copy()), masked_log_abs_expm1(x)
        assert got.shape == x.shape
        assert got.tobytes() == want.tobytes()
        if case == "zero":
            assert np.all(got[:, ::3] == -np.inf)


# --------------------------------------------------------------------------
# 50-digit mpmath oracle, independent of the closed forms: [j] and d[j]/d eps
# follow from the defining recurrences [j+1] = 1 + q [j] (M) and
# [j+1] = (q + 1/q) [j] - [j-1] (P), in which nothing cancels near eps = 0.

ORACLE_EPS = [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, 0.3]
ORACLE_N = 3000


@functools.lru_cache(maxsize=None)
def mp_q_numbers(kind, eps, n):
    """[j] and d ln [j] / d eps for j = 1..n, as 50-digit mpmath numbers."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        q = 1 + mp.mpf(eps)
        qs, dqs = [mp.mpf(0), mp.mpf(1)], [mp.mpf(0), mp.mpf(0)]
        for j in range(1, n):
            if kind is M:
                qs.append(1 + q * qs[j])
                dqs.append(qs[j] + q * dqs[j])
            else:
                qs.append((q + 1 / q) * qs[j] - qs[j - 1])
                dqs.append((1 - q ** -2) * qs[j] + (q + 1 / q) * dqs[j] - dqs[j - 1])
        return qs[1:], [dqs[j] / qs[j] for j in range(1, n + 1)]


def floats(values):
    return np.array([float(x) for x in values])


def rel_err(got, want):
    scale = np.where(want == 0.0, 1.0, np.abs(want))
    return float(np.max(np.abs(got - want) / scale))


class TestMpmathOracle:
    # Bounds are about 2.5x the worst case measured on this grid, n <= 3000.
    # ln [j]: 3.8e-15 (M, eps = -1e-12).  Derivatives below |eps| = 1e-3,
    # where the series takes over: d ln [j] 6.2e-16, d ln Delta_n 3.0e-15
    # (the closed forms alone were off by 1.2e-4 for M and 2e8 for P at
    # eps = 1e-12).  At 1e-3 and 0.3 the closed forms stay: 4.3e-11 and
    # 1.3e-10 (P, 1e-3).
    @pytest.mark.parametrize("eps", ORACLE_EPS)
    @pytest.mark.parametrize("kind", [M, P])
    def test_log_q_numbers(self, kind, eps):
        mp = pytest.importorskip("mpmath")
        q_numbers, _ = mp_q_numbers(kind, eps, ORACLE_N)
        with mp.workdps(50):
            want = floats(mp.log(x) for x in q_numbers)
        got = log_q_number_values(params(kind, eps), ORACLE_N)
        assert got[0] == -math.inf
        assert rel_err(got[1:], want) <= 1e-14

    @pytest.mark.parametrize("eps", ORACLE_EPS)
    @pytest.mark.parametrize("kind", [M, P])
    def test_derivatives(self, kind, eps):
        mp = pytest.importorskip("mpmath")
        _, dlog_q = mp_q_numbers(kind, eps, ORACLE_N)
        with mp.workdps(50):
            dlog_delta = floats(itertools.accumulate(dlog_q))
        pr = params(kind, eps)
        bound = 1e-14 if abs(eps) < 1e-3 else 5e-10
        assert rel_err(dlog_q_number_values(pr, ORACLE_N)[1:], floats(dlog_q)) <= bound
        assert rel_err(dlog_delta_values(pr, ORACLE_N)[1:], dlog_delta) <= bound

    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10])
    def test_p_coherent_fisher_near_zero(self, eps):
        # F of the fixed-intensity family, Var_p[-d ln Delta_n / d eps] with
        # p_n ~ |alpha|^(2n) / Delta_n.  F / eps^2 tends to about 2.18e4; the
        # cancelling closed form gave 2.39e4 at 1e-9 and 6.7e8 at 1e-10.
        mp = pytest.importorskip("mpmath")
        alpha_sq, n = 10.0, 150
        q_numbers, dlog_q = mp_q_numbers(P, eps, n)
        with mp.workdps(50):
            w, score = [mp.mpf(1)], [mp.mpf(0)]
            for q_j, d_j in zip(q_numbers, dlog_q):
                w.append(w[-1] * alpha_sq / q_j)
                score.append(score[-1] - d_j)
            z = mp.fsum(w)
            mean = mp.fsum(a * s for a, s in zip(w, score)) / z
            want = float(mp.fsum(a * (s - mean) ** 2 for a, s in zip(w, score)) / z)
        got = estimation_report(CoherentSpec(alpha_sq), P, eps, hold="intensity").fisher
        assert got == pytest.approx(want, rel=1e-8, abs=0.0)


# --------------------------------------------------------------------------
# The level vectors kept for the last epsilon.  derandomize keeps tier-1
# deterministic; database=None keeps hypothesis from writing example files.

from hypothesis import given, settings, strategies as st  # noqa: E402

from qdeform import algebra  # noqa: E402
from qdeform.algebra import _Levels, _log_q_rows  # noqa: E402

SEGMENTS = settings(derandomize=True, deadline=None, database=None, max_examples=80)
signed_eps = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-9.0, math.log10(0.5))).map(
        lambda t: t[0] * 10.0 ** t[1]),
)


def one_shot(kind, eps, n_max):
    """ln [j], gamma_j and ln Delta_j for j = 0..n_max from one long call."""
    lq = _log_q_rows(kind, np.array([eps]), n_max)[0]
    with np.errstate(over="ignore"):
        g = np.exp(lq)
    ld = np.zeros(n_max + 1)
    ld[1:] = np.cumsum(lq[1:])
    return lq, g, ld


class TestLevelSegments:
    @SEGMENTS
    @given(st.sampled_from([M, P]), signed_eps, st.integers(0, 3000), st.data())
    def test_segment_equals_the_columns_of_one_long_call(self, kind, eps, n_max, data):
        start = data.draw(st.integers(0, n_max + 1))
        whole = _log_q_rows(kind, np.array([eps]), n_max)[0]
        part = _log_q_rows(kind, np.array([eps]), n_max, start)[0]
        assert part.tobytes() == whole[start:].tobytes()

    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("eps", [0.5, -0.3, 2e-2])
    def test_segments_across_large_arguments(self, kind, eps):
        # |j L| passes 33 (M) or 16.5 (P) inside [0, 4000], where
        # _log_abs_expm1 switches to its large-argument formula.
        n_max = 4000
        assert n_max * abs(math.log1p(eps)) > 33.0
        whole = _log_q_rows(kind, np.array([eps]), n_max)[0]
        for start in (1, 2, 33, 65, 66, 67, 127, 1651, 1652, 3999, 4000):
            part = _log_q_rows(kind, np.array([eps]), n_max, start)[0]
            assert part.tobytes() == whole[start:].tobytes()

    @SEGMENTS
    @given(st.sampled_from([M, P]), st.lists(signed_eps, min_size=1, max_size=4),
           st.lists(st.tuples(st.sampled_from(["gamma", "log_delta"]),
                              st.integers(0, 2500)), min_size=1, max_size=8))
    def test_grown_vectors_equal_one_shot_evaluations(self, kind, eps, requests):
        levels = _Levels(kind, np.array(eps))
        for vector, n_max in requests:
            got = getattr(levels, vector)(n_max)
            assert got.shape == (len(eps), n_max + 1)
            for row, e in zip(got, eps):  # each row is its own epsilon's, alone
                want = dict(zip(("log_q", "gamma", "log_delta"), one_shot(kind, e, n_max)))
                assert row.tobytes() == want[vector].tobytes()
            assert not got.flags.writeable


# --------------------------------------------------------------------------
# One structure function for both kinds: [n]_P(q) = q^(1-n) [n]_M(q^2), and
# K_P(u) = K_M(2u) - u between the series and the closed-form derivative.

STRUCTURE = settings(derandomize=True, deadline=None, database=None, max_examples=300)
U = np.finfo(float).eps


class TestStructureFunction:
    @STRUCTURE
    @given(st.one_of(st.floats(-0.999, 100.0), signed_eps), st.integers(1, 5000))
    def test_p_is_m_at_q_squared(self, eps, n_max):
        # ln [n]_P(eps) against (1 - n) L + ln [n]_M(eps (2 + eps)), L = ln(1 + eps).
        # Each side sums ln|e^(2nL) - 1|, (1 - n) L and ln|eps (2 + eps)|, each
        # rounded relative to its size; the exponential's argument 2nL carries
        # an absolute error of order n|L| u, and so does ln [n]_M through the
        # rounding of eps (2 + eps).  By the triangle inequality,
        # |ln|e^(2nL) - 1|| <= |ln [n]_P| + |(1 - n) L| + |ln|eps (2 + eps)||.
        L = math.log1p(eps)
        j = np.arange(1, n_max + 1, dtype=float)
        log_p = _log_q_rows(P, [eps], n_max)[0, 1:]
        log_m = _log_q_rows(M, [eps * (2.0 + eps)], n_max)[0, 1:]
        lead = (1.0 - j) * L
        log_den = abs(math.log(abs(eps * (2.0 + eps)))) if eps else 0.0
        size = np.abs(log_p) + np.abs(log_m) + 2.0 * np.abs(lead) + 2.0 * log_den \
            + 4.0 * j * abs(L) + 2.0
        assert np.all(np.abs(log_p - (lead + log_m)) <= 4.0 * U * size)

    @STRUCTURE
    @given(st.sampled_from([M, P]), st.sampled_from([1.0, -1.0]),
           st.floats(0.2 * algebra._SERIES_EPS, algebra._SERIES_EPS, exclude_max=True))
    def test_series_agrees_with_the_closed_form(self, kind, sign, size):
        # Just below the cut both are accurate: the series to a few u of its
        # value, the closed form to a few u of its two O((1 + b)/|eps|) terms
        # and its (1 - j) b term, which cancel to the value.
        eps = sign * size
        pr, b = params(kind, eps), kind._b
        series = dlog_q_number_values(pr, 3000)
        with mock.patch.object(algebra, "_SERIES_EPS", 0.0):  # the closed form alone
            closed = dlog_q_number_values(pr, 3000)
        j = np.arange(3001, dtype=float)
        m = int(np.count_nonzero(np.abs(j[1:] * math.log1p(eps)) < 0.5))
        assert m > 0 and np.array_equal(series[m + 1:], closed[m + 1:])
        js = j[1:m + 1]
        size = (1 + b) * (js + 1.0 / abs(eps)) + np.abs(closed[1:m + 1])
        assert np.all(np.abs(series[1:m + 1] - closed[1:m + 1]) <= 8.0 * U * size)


class TestLevelMemo:
    def test_keeps_one_epsilon_only(self):
        first = algebra._levels(M, [1e-3])
        assert algebra._levels(M, [1e-3]) is first
        second = algebra._levels(M, [2e-3])
        assert second is not first and algebra._levels(M, [2e-3]) is second
        assert algebra._kept_levels.cache_info().currsize == 1
        assert algebra._levels(P, [2e-3]) is not second  # the kind joins the key
        assert algebra._levels(P, [-0.0]) is not algebra._levels(P, [0.0])
        assert algebra._levels(M, [1e-3]) is not first  # first was dropped
        kept = algebra._levels(M, [1e-3])
        rows = algebra._levels(M, [1e-3, 2e-3])  # several epsilons: one rule
        assert algebra._levels(M, np.array([1e-3, 2e-3])) is rows
        assert algebra._kept_levels.cache_info().currsize == 1
        assert algebra._levels(M, [1e-3]) is not kept  # the sequence evicted it
        assert algebra._levels(M, [1e-3, 2e-3]) is not rows

    def test_clear_drops_the_kept_vectors(self):
        from qdeform.states import build_distribution

        kept = algebra._levels(M, [1e-3])
        build_distribution.cache_clear()
        assert algebra._kept_levels.cache_info().currsize == 0
        assert algebra._levels(M, [1e-3]) is not kept

    @pytest.mark.parametrize("kind, eps", [(M, 1e-3), (P, -2e-2), (P, 0.0)])
    def test_returned_arrays_are_fresh(self, kind, eps):
        pr = params(kind, eps)
        functions = (log_q_number_values, dgamma_values)
        before = [f(pr, 300).copy() for f in functions]
        for f in functions:
            values = f(pr, 300)
            assert values.flags.writeable
            values[...] = 7.0
        for f, want in zip(functions, before):
            assert f(pr, 300).tobytes() == want.tobytes()
            assert f(pr, 200).tobytes() == want[:201].tobytes()
        assert log_delta(pr, 250) == float(one_shot(kind, eps, 250)[2][250])
