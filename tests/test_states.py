"""State-construction tests: undeformed limits, normalization certificates,
parity, expansions, and the divergence guards."""

import dataclasses
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdeform import states
from qdeform.algebra import DeformationKind, DeformationParams
from qdeform.errors import DivergenceError, DomainError
from qdeform.oracles import cat_normalization_crosscheck, fixed_support_log_probs
from qdeform.states import (
    CatSpec,
    CoherentSpec,
    PhotonDistribution,
    ThermalSpec,
    _logsumexp,
    build_distribution,
    mean_photon,
    mean_photon_expansion,
)

M, P = DeformationKind.M, DeformationKind.P


def params(kind, eps):
    return DeformationParams(kind, eps)


class TestUndeformedLimits:
    def test_coherent_is_poisson(self):
        dist = build_distribution(CoherentSpec(1.0), params(M, 0.0))
        for n in range(dist.n_max + 1):
            expected = math.exp(-1.0) / math.factorial(n)
            assert abs(dist.probs[n] - expected) < 1e-12

    def test_thermal_is_geometric(self):
        dist = build_distribution(ThermalSpec(beta=math.log(2.0)), params(P, 0.0))
        for n in range(dist.n_max + 1):
            assert abs(dist.probs[n] - 0.5 ** (n + 1)) < 1e-12

    def test_thermal_from_mean_photon(self):
        spec = ThermalSpec.from_mean_photon(1.0)
        assert spec.beta == pytest.approx(math.log(2.0), rel=1e-14)
        assert spec.n_mean == pytest.approx(1.0, rel=1e-14)

    def test_cat_is_even_poisson(self):
        dist = build_distribution(CatSpec(1.0), params(M, 0.0))
        norm = math.cosh(1.0)  # sum over even n of 1/n!
        for n in range(dist.n_max + 1):
            expected = (1.0 / math.factorial(n)) / norm if n % 2 == 0 else 0.0
            assert abs(dist.probs[n] - expected) < 1e-12


class TestNormalization:
    @pytest.mark.parametrize("eps", [-0.05, -0.01, 0.0, 0.01, 0.05])
    @pytest.mark.parametrize("intensity", [0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("kind", [M, P])
    def test_grid(self, kind, eps, intensity):
        pr = params(kind, eps)
        tol = 1e-12
        specs = [CoherentSpec(intensity), ThermalSpec.from_mean_photon(intensity),
                 CatSpec(intensity)]
        for spec in specs:
            diverges = (
                kind is M and eps < 0.0 and (
                    isinstance(spec, ThermalSpec)
                    or getattr(spec, "alpha_sq", 0.0) * (-eps) >= 1.0
                )
            )
            if diverges:
                with pytest.raises(DivergenceError):
                    build_distribution(spec, pr, tol)
                continue
            dist = build_distribution(spec, pr, tol)
            total = float(dist.probs.sum())
            assert 1.0 - dist.tail_bound - 1e-14 <= total <= 1.0 + 1e-14
            assert dist.tail_bound <= tol
            assert np.all(dist.probs >= 0.0)

    def test_tail_bound_is_honest(self):
        # The certified bound must dominate the actual omitted mass, which a
        # much finer rebuild reveals.
        spec = CoherentSpec(5.0)
        pr = params(M, 0.02)
        coarse = build_distribution(spec, pr, 1e-6)
        fine = build_distribution(spec, pr, 1e-14)
        omitted = float(fine.probs[coarse.n_max + 1:].sum()) + fine.tail_bound
        assert omitted <= coarse.tail_bound * (1 + 1e-9)

    def test_tol_validation(self):
        with pytest.raises(DomainError):
            build_distribution(CoherentSpec(1.0), params(M, 0.0), tol=1e-3)
        with pytest.raises(DomainError):
            build_distribution(CoherentSpec(1.0), params(M, 0.0), tol=0.0)


class TestDivergenceGuards:
    def test_thermal_m_negative_eps(self):
        with pytest.raises(DivergenceError):
            build_distribution(ThermalSpec.from_mean_photon(5.0), params(M, -1e-3))

    def test_coherent_m_negative_eps_large_intensity(self):
        # |alpha|^2 |eps| >= 1: geometric weight ratio does not fall below 1.
        with pytest.raises(DivergenceError):
            build_distribution(CoherentSpec(100.0), params(M, -0.05))

    def test_coherent_m_negative_eps_small_intensity_ok(self):
        dist = build_distribution(CoherentSpec(10.0), params(M, -0.01))
        assert dist.tail_bound <= 1e-12
        # mean grows relative to the undeformed value for eps < 0
        assert mean_photon(dist) > 10.0

    def test_cat_m_negative_eps_large_intensity(self):
        with pytest.raises(DivergenceError):
            build_distribution(CatSpec(40.0), params(M, -0.05))

    @pytest.mark.parametrize("kind, eps", [(M, 0.0), (P, 0.3)])
    def test_thermal_beta_near_float_min(self, kind, eps):
        # n_mean = 1/beta is near the float maximum; the support search must
        # still end at the hard cap instead of overflowing its start size.
        with pytest.raises(DivergenceError):
            build_distribution(ThermalSpec(beta=1e-308), params(kind, eps))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta", [5e-324, 1e-323])
    def test_thermal_beta_at_the_smallest_subnormals(self, beta):
        # beta / 2 rounds to 0 at 5e-324, and 0 times an overflowed gamma
        # gave NaN weights and a RuntimeWarning; those levels are -inf.
        rows = ThermalSpec(beta=beta).log_weight_rows(M, [0.1], 10_000)
        assert not np.isnan(rows).any() and np.isneginf(rows[0, -1])
        with pytest.raises(DivergenceError):
            build_distribution(ThermalSpec(beta=beta), params(M, 0.1))


class TestNearVacuumThermal:
    """beta past ln(float max) ~ 709.78, where e^beta - 1 overflows."""

    @pytest.mark.parametrize("beta", [700.0, 709.78])
    def test_n_mean_keeps_its_formula(self, beta):
        assert ThermalSpec(beta=beta).n_mean == 1.0 / math.expm1(beta)

    @pytest.mark.parametrize("beta", [710.0, 800.0, 1e5, 1e308])
    def test_vacuum(self, beta):
        spec = ThermalSpec(beta=beta)
        assert spec.n_mean == math.exp(-beta)
        for kind, eps in [(M, 0.0), (P, 0.3)]:
            dist = build_distribution(spec, params(kind, eps))
            assert dist.n_max == 0 and dist.probs.tolist() == [1.0]

    @pytest.mark.parametrize("n_mean", [1e-320, 5e-324])
    def test_from_a_mean_whose_inverse_overflows(self, n_mean):
        # 1/n_mean is inf, and ln(1 + 1/n) equals -ln n in floats there.
        spec = ThermalSpec.from_mean_photon(n_mean)
        assert spec.beta == -math.log(n_mean)
        assert spec.n_mean == n_mean
        dist = build_distribution(spec, params(M, 0.0))
        assert dist.n_max == 0 and dist.probs.tolist() == [1.0]

    def test_intensity_keeps_its_formula_where_the_inverse_is_finite(self):
        n_mean = 5.6e-309  # 1/n_mean is 1.79e308, just inside the floats
        assert ThermalSpec.intensity_at(n_mean) == math.log1p(1.0 / n_mean)

    def test_small_expansion_at_zero_mean(self):
        # n_T = e^-800 underflows to 0; n ln n has the limit 0 there
        spec = ThermalSpec(beta=800.0)
        for kind in (M, P):
            assert mean_photon_expansion(spec, params(kind, 1e-3), regime="small") == 0.0


class TestCat:
    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("eps", [0.0, 1e-3, -1e-3, 1e-2])
    def test_parity(self, kind, eps):
        dist = build_distribution(CatSpec(4.0), params(kind, eps))
        assert np.all(dist.probs[1::2] == 0.0)
        assert np.all(dist.log_probs[1::2] == -np.inf)

    @pytest.mark.parametrize("alpha_sq", [0.5, 2.0, 10.0, 50.0, 300.0])
    def test_normalization_crosscheck(self, alpha_sq):
        # The alternating-sum formula and direct even-term summation agree
        # (worst case on this grid about 4e-16).  Every point is
        # normalizable: alpha_sq |eps| stays below 1 for M at eps < 0.
        for kind in (M, P):
            for eps in (-1e-3, 0.0, 1e-5, 1e-3, 1e-2, 0.1):
                wf, wd = cat_normalization_crosscheck(CatSpec(alpha_sq), params(kind, eps))
                assert wf == pytest.approx(wd, rel=1e-10), (kind, eps)

    def test_build_runs_no_crosscheck(self, monkeypatch):
        # A cat build must not build a coherent state along the way.
        calls = []
        real = states.build_distribution

        def counting(*args, **kwargs):
            calls.append(type(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(states, "build_distribution", counting)
        states.build_distribution(CatSpec(10.0), params(M, 1e-3))
        states.build_distribution(CatSpec(2.0), params(P, 1e-2))
        assert calls == [CatSpec, CatSpec]

    def test_mean_photon_limits(self):
        # large |alpha|: mean -> |alpha|^2; small |alpha|: mean -> |alpha|^4
        big = build_distribution(CatSpec(25.0), params(M, 0.0))
        assert mean_photon(big) == pytest.approx(25.0, rel=1e-9)
        small = build_distribution(CatSpec(0.1), params(M, 0.0))
        assert mean_photon(small) == pytest.approx(0.1 * math.tanh(0.1), rel=1e-7)
        assert mean_photon(small) == pytest.approx(0.01, rel=0.01)


class TestMeanPhoton:
    def test_poisson(self):
        dist = build_distribution(CoherentSpec(3.0), params(M, 0.0))
        assert mean_photon(dist) == pytest.approx(3.0, rel=1e-11)

    def test_geometric(self):
        # truncation shifts the mean by O(n_max * tail_bound)
        dist = build_distribution(ThermalSpec.from_mean_photon(1.0), params(M, 0.0))
        assert mean_photon(dist) == pytest.approx(
            1.0, abs=2 * (dist.n_max + 2) * dist.tail_bound
        )

    def test_coherent_m_first_order(self):
        # N = x - eps x^2 / 2 + O(eps^2) at x = 4, eps = 1e-3
        dist = build_distribution(CoherentSpec(4.0), params(M, 1e-3))
        assert mean_photon(dist) == pytest.approx(4.0 - 0.5e-3 * 16.0, abs=2e-4)

    def test_expansion_coherent(self):
        spec = CoherentSpec(4.0)
        assert mean_photon_expansion(spec, params(M, 1e-3)) == pytest.approx(4.0 - 0.008)
        x = 4.0
        assert mean_photon_expansion(spec, params(P, 1e-2)) == pytest.approx(
            x - 0.5e-4 * (x * x + x**3 / 3.0)
        )

    def test_expansion_thermal_branches(self):
        spec = ThermalSpec.from_mean_photon(30.0)
        n_t = spec.n_mean
        large = mean_photon_expansion(spec, params(M, 1e-3), regime="large")
        assert large == pytest.approx(n_t - 1e-3 * (2 * n_t**2 + 1.5 * n_t - 1 / 12))
        small_spec = ThermalSpec.from_mean_photon(0.05)
        small = mean_photon_expansion(small_spec, params(M, 1e-3), regime="small")
        assert small == pytest.approx(0.05 + 0.5e-3 * 0.05 * math.log(0.05), rel=1e-6)

    def test_expansion_small_thermal_informational(self):
        # Loose (50%) agreement of the small-n_T correction, both kinds.
        for kind, power in [(M, 1), (P, 2)]:
            spec = ThermalSpec.from_mean_photon(0.05)
            eps = 1e-3
            exact = mean_photon(build_distribution(spec, params(kind, eps)))
            approx = mean_photon_expansion(spec, params(kind, eps), regime="small")
            corr_exact = exact - spec.n_mean
            corr_approx = approx - spec.n_mean
            assert corr_exact != 0.0
            assert abs(corr_approx - corr_exact) <= 0.5 * abs(corr_exact)

    def test_expansion_cat_small_branch(self):
        for kind, rel in [(M, 0.25), (P, 0.25)]:
            spec = CatSpec(0.3)
            eps = 1e-2
            dist = build_distribution(spec, params(kind, eps))
            exact_corr = mean_photon(dist) - 0.3 * math.tanh(0.3)
            approx_corr = mean_photon_expansion(spec, params(kind, eps),
                                                regime="small") - 0.3 * math.tanh(0.3)
            assert abs(approx_corr - exact_corr) <= rel * abs(exact_corr)

    @pytest.mark.parametrize("regime", ["large", "small"])
    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("cls", [CoherentSpec, ThermalSpec, CatSpec])
    def test_expansion_at_huge_intensity_is_a_float(self, cls, kind, regime):
        # |alpha|^2 = 1e150: a cubed intensity leaves the float range, and
        # the expansion overflows to -inf instead of raising OverflowError.
        value = mean_photon_expansion(cls.from_mean_photon(1e150), params(kind, 1e-3), regime)
        assert isinstance(value, float) and not math.isnan(value)

    def test_expansion_regime_validation(self):
        with pytest.raises(DomainError):
            mean_photon_expansion(CoherentSpec(1.0), params(M, 0.0), regime="medium")


class TestThermalWeightExpansion:
    def test_m_first_order_weights(self):
        # nu_n ~ e^{-beta n} (1 - eps beta n^2 / 2): check the correction
        # term itself (next order is relatively O(eps n^2)).
        beta, eps = 0.7, 1e-4
        spec = ThermalSpec(beta=beta)
        dist = build_distribution(spec, params(M, eps))
        for n in range(1, 12):
            corr = dist.probs[n] / dist.probs[0] / math.exp(-beta * n) - 1.0
            assert corr == pytest.approx(-0.5 * eps * beta * n * n, rel=2e-2)

    def test_p_correction_is_second_order(self):
        # The P-deformation weight correction scales as eps^2 with
        # coefficient -(beta/12) n(1+n)(1+2n) (derived from exact gamma_n,
        # one power of eps beyond the M line).
        beta = 0.7
        spec = ThermalSpec(beta=beta)
        n = 6
        def correction(eps):
            dist = build_distribution(spec, params(P, eps))
            nu = dist.probs[n] / dist.probs[0]
            return nu / math.exp(-beta * n) - 1.0
        c1, c2 = correction(1e-3), correction(5e-4)
        assert c1 / c2 == pytest.approx(4.0, rel=0.05)  # quadratic in eps
        pred = -(beta / 12.0) * 1e-6 * n * (1 + n) * (1 + 2 * n)
        assert c1 == pytest.approx(pred, rel=0.01)


class TestTruncationControls:
    def test_extend_truncation_grows(self):
        dist = build_distribution(CoherentSpec(1.0), params(M, 0.0), tol=1e-8)
        finer = build_distribution(dist.spec, dist.params, dist.tail_bound / 100.0)
        assert finer.n_max > dist.n_max
        assert finer.tail_bound < dist.tail_bound
        # a few units for a Poisson tail
        assert finer.n_max - dist.n_max <= 8
        # retained entries agree up to the tiny renormalization shift
        shared = dist.probs[: dist.n_max + 1]
        assert np.allclose(finer.probs[: dist.n_max + 1], shared, rtol=1e-7, atol=0)

    def test_extend_truncation_geometric(self):
        dist = build_distribution(ThermalSpec.from_mean_photon(50.0),
                                  params(M, 0.0), tol=1e-6)
        finer = build_distribution(dist.spec, dist.params, 1e-12)
        assert finer.n_max > dist.n_max
        assert finer.n_max >= 100
        assert float(finer.probs.sum()) >= 1.0 - 1e-12 - 1e-15

    def test_fixed_support_matches_adaptive(self):
        spec = ThermalSpec.from_mean_photon(3.0)
        pr = params(P, 1e-3)
        dist = build_distribution(spec, pr)
        lp = fixed_support_log_probs(spec, pr, dist.n_max)
        assert np.allclose(lp, dist.log_probs, rtol=0, atol=1e-11)


class TestTruncationCut:
    # The cut is checked against a 50-digit sum of the certified terms that
    # _finalize receives: the support weights dropped beyond n_max plus the
    # geometric majorant past the certified support, over the normalizer.
    @pytest.mark.parametrize("spec, kind, eps", [
        (CoherentSpec(30.0), M, 1e-3),
        (CoherentSpec(30.0), P, -1e-2),
        (ThermalSpec.from_mean_photon(50.0), M, 2e-3),
        (ThermalSpec.from_mean_photon(50.0), P, 1e-2),
        (CatSpec(40.0), M, -1e-3),
        (CatSpec(40.0), P, 1e-3),
    ])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-15])
    def test_tail_bound_and_minimal_n_max(self, monkeypatch, spec, kind, eps, tol):
        mp = pytest.importorskip("mpmath")
        seen = []
        real = states._finalize

        def spy(lnw, lnw_sup, ln_tail, ln_total, *rest):
            seen.append((lnw_sup, ln_tail, ln_total))
            return real(lnw, lnw_sup, ln_tail, ln_total, *rest)

        monkeypatch.setattr(states, "_finalize", spy)
        dist = build_distribution(spec, params(kind, eps), tol)
        (lnw_sup, ln_tail, ln_total), = seen
        support = range(0, len(lnw_sup) * spec.step, spec.step)
        cut = int(np.searchsorted(support, dist.n_max))
        assert support[cut] == dist.n_max
        with mp.workdps(50):
            def mass_after(i):
                dropped = mp.fsum(mp.exp(mp.mpf(float(v))) for v in lnw_sup[i + 1:])
                return (dropped + mp.exp(mp.mpf(ln_tail))) / mp.exp(mp.mpf(ln_total))

            tail = mass_after(cut)
            assert abs(dist.tail_bound - tail) <= 1e-12 * tail
            assert tail <= tol
            assert cut > 0 and mass_after(cut - 1) > tol  # one step earlier breaks tol


class TestLastBuildMemo:
    def test_repeat_returns_the_kept_build(self):
        dist = build_distribution(CoherentSpec(10.0), params(M, 1e-3))
        assert build_distribution(CoherentSpec(10.0), params(M, 1e-3)) is dist
        assert build_distribution(CoherentSpec(10.0), params(M, 1e-3), 1e-12) is dist

    def test_arrays_are_read_only(self):
        dist = build_distribution(ThermalSpec.from_mean_photon(5.0), params(P, 1e-2))
        for values in (dist.probs, dist.log_probs):
            with pytest.raises(ValueError):
                values[0] = 0.5

    def test_other_tol_misses(self):
        spec, pr = CatSpec(6.0), params(P, 1e-3)
        coarse = build_distribution(spec, pr, 1e-8)
        fine = build_distribution(spec, pr, 1e-14)
        assert fine is not coarse
        assert fine.n_max > coarse.n_max and fine.tail_bound < coarse.tail_bound
        assert build_distribution(spec, pr, 1e-8) is not coarse  # only the last is kept

    def test_errors_are_not_kept(self, monkeypatch):
        # |alpha|^2 |eps| just below 1: normalizable, but not certifiable
        # below the hard cap, so the search itself raises.
        calls = []
        real = states._certify
        monkeypatch.setattr(states, "_certify", lambda lnw: calls.append(1) or real(lnw))
        per_call = []
        for _ in range(2):
            with pytest.raises(DivergenceError, match="hard cap"):
                build_distribution(CoherentSpec(100.0), params(M, -0.0099999))
            per_call.append(len(calls) - sum(per_call))
        assert per_call[0] > 0 and per_call[1] == per_call[0]

    def test_hit_equals_a_fresh_build_with_the_sign_of_zero(self):
        spec = CoherentSpec(3.0)
        plus = build_distribution(spec, params(P, 0.0))
        minus = build_distribution(spec, params(P, -0.0))
        assert minus is not plus
        assert build_distribution(spec, params(P, -0.0)) is minus
        build_distribution.cache_clear()
        fresh = build_distribution(spec, params(P, -0.0))
        assert fresh is not minus
        for field in dataclasses.fields(PhotonDistribution):
            hit, new = getattr(minus, field.name), getattr(fresh, field.name)
            if isinstance(new, np.ndarray):
                assert hit.tobytes() == new.tobytes()
            else:
                assert repr(hit) == repr(new)
        assert math.copysign(1.0, minus.params.epsilon) == -1.0


class TestLogSumExp:
    def test_bit_identical_to_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(20)
        for size in (1, 2, 7, 128, 1001):
            a = rng.normal(scale=50.0, size=size)
            a[rng.integers(size, size=size // 3)] = a.max()  # ties at the max
            assert _logsumexp(a) == scipy_special.logsumexp(a)
            rows = rng.normal(scale=50.0, size=(5, size))
            rows[1] = rows[1].max()
            rows[2, ::2] = rows[2].max()
            expected = scipy_special.logsumexp(rows, axis=1)
            assert np.array_equal(_logsumexp(rows), expected)
            for row, value in zip(rows, expected):
                assert _logsumexp(row) == value
        infinite = np.array([[-np.inf, -np.inf], [0.0, -np.inf], [np.inf, 0.0]])
        assert np.array_equal(_logsumexp(infinite),
                              scipy_special.logsumexp(infinite, axis=1))


class TestHighPrecisionOracle:
    def test_coherent_p_against_decimal_sum(self):
        # Independent 50-digit evaluation of the deformed Poisson weights at
        # |alpha|^2 = 2, eps = 0.01 (exactly representable choices avoided on
        # purpose: the oracle uses the same binary epsilon).
        getcontext().prec = 60
        eps_f = 0.01
        dist = build_distribution(CoherentSpec(2.0), params(P, eps_f))
        eps = Decimal(eps_f)
        q = 1 + eps
        x = Decimal(2)
        weights = []
        log_q_cache = []
        qn = Decimal(1)
        for n in range(dist.n_max + 1):
            if n == 0:
                weights.append(Decimal(1))
            else:
                qnum = q ** (1 - n) * (q ** (2 * n) - 1) / (eps * (2 + eps))
                log_q_cache.append(qnum)
                delta = Decimal(1)
                for v in log_q_cache:
                    delta *= v
                weights.append(x ** n / delta)
            qn *= q
        total = sum(weights)
        for n in range(dist.n_max + 1):
            expected = float(weights[n] / total)
            if expected > 1e-18:
                assert dist.probs[n] == pytest.approx(expected, rel=1e-10)


# --------------------------------------------------------------------------
# 50-digit mpmath oracle for normalized probabilities at large n.  The
# weights come from the defining recurrences [j+1] = 1 + q [j] (M) and
# [j+1] = q [j] + q^-j (P), not from the closed forms, and are normalized
# over 3 n_max levels, so the reference carries no truncation of its own.


def mp_log_probs(spec, kind, eps, n_ref):
    """ln p_n for n = 0..n_ref as 50-digit mpmath numbers (-inf off support)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        q = 1 + mp.mpf(eps)
        q_inv = 1 / q
        q_numbers, q_pow = [mp.mpf(0), mp.mpf(1)], q_inv
        for j in range(1, n_ref + 1):
            if kind is M:
                q_numbers.append(1 + q * q_numbers[j])
            else:
                q_numbers.append(q * q_numbers[j] + q_pow)
                q_pow *= q_inv
        if spec.family == "thermal":
            half_beta = mp.mpf(spec.beta) / 2
            lnw = [-half_beta * (q_numbers[n + 1] + q_numbers[n] - 1)
                   for n in range(n_ref + 1)]
        else:
            ln_alpha_sq, ln_delta, lnw = mp.log(mp.mpf(spec.alpha_sq)), mp.mpf(0), []
            for n in range(n_ref + 1):
                if n:
                    ln_delta += mp.log(q_numbers[n])
                lnw.append(n * ln_alpha_sq - ln_delta)
        support = range(0, n_ref + 1, spec.step)
        top = max(lnw[n] for n in support)
        ln_z = top + mp.log(mp.fsum(mp.exp(lnw[n] - top) for n in support))
        return [lnw[n] - ln_z if n % spec.step == 0 else -mp.inf for n in range(n_ref + 1)]


class TestMpmathProbabilities:
    # Bounds are about 2.5x the worst |d ln p_n| measured over the support:
    # coherent |alpha|^2 = 1000 7.8e-12 (M, 1e-4; n_max 1172) and 7.7e-12
    # (P, 1e-3), cat 400 3.2e-12; thermal n_T = 500 3.6e-14 (M, 1e-5;
    # n_max 12896) and 2.8e-14 (P, 1e-3), n_T = 20 1.8e-14 (P, 0.05).
    @pytest.mark.parametrize("spec, kind, eps, bound", [
        (CoherentSpec(1000.0), M, 1e-4, 2e-11),
        (CoherentSpec(1000.0), P, 1e-3, 2e-11),
        (CatSpec(400.0), M, -1e-3, 2e-11),
        (ThermalSpec.from_mean_photon(500.0), M, 1e-5, 1e-13),
        (ThermalSpec.from_mean_photon(500.0), P, 1e-3, 1e-13),
        (ThermalSpec.from_mean_photon(20.0), P, 0.05, 1e-13),
    ])
    def test_log_probs_and_probs(self, spec, kind, eps, bound):
        dist = build_distribution(spec, params(kind, eps))
        ref = mp_log_probs(spec, kind, eps, 3 * dist.n_max)[:dist.n_max + 1]
        want = np.array([float(x) for x in ref])
        on = slice(0, None, spec.step)
        assert np.max(np.abs(dist.log_probs[on] - want[on])) <= bound
        p_want = np.exp(want[on])
        tiny = np.finfo(float).tiny  # below it probs are subnormal or 0
        assert np.all(np.abs(dist.probs[on] - p_want) <= bound * p_want + tiny)
        if spec.step == 2:
            assert np.all(dist.probs[1::2] == 0.0)
            assert np.all(dist.log_probs[1::2] == -np.inf)


class TestStronglyDeformedThermal:
    """Thermal rows whose log-weights fall off super-geometrically, as
    0, -9.21, -920.6, ... for n_T = 5, M, eps = 99: the last entry above
    peak - 700 has a ratio of e^-9.2, far above the next ones, so the tail
    is certified through the first dropped entry.  15 of these 78 states
    were rejected as divergent when the certificate stopped at the last
    kept entry.  The worst |p_n| error measured is 5.0e-14 relative."""

    EPS = (10.0, 20.0, 30.0, 50.0, 70.0, 99.0, 120.0, 150.0, 200.0, 250.0, 300.0,
           400.0, 500.0)

    @pytest.mark.parametrize("n_mean", [1.0, 5.0, 20.0])
    @pytest.mark.parametrize("kind", [M, P])
    def test_builds_match_mpmath(self, n_mean, kind):
        spec = ThermalSpec.from_mean_photon(n_mean)
        for eps in self.EPS:
            dist = build_distribution(spec, params(kind, eps))
            assert dist.tail_bound <= 1e-12
            ref = mp_log_probs(spec, kind, eps, 3 * dist.n_max + 3)[:dist.n_max + 1]
            p_want = np.exp([float(x) for x in ref])
            tiny = np.finfo(float).tiny
            assert np.all(np.abs(dist.probs - p_want) <= 1e-12 * p_want + tiny), eps


class TestGrowthPath:
    # n_max, float.hex of tail_bound and of sum(probs), recorded before the
    # level vectors were kept between builds and before rounds that must
    # fail stopped summing their weights.  The first two thermal builds
    # take three doubling rounds (8N, 16N, 32N), the next two take two.
    @pytest.mark.parametrize("spec, kind, eps, tol, n_max, tail_hex, sum_hex", [
        (ThermalSpec.from_mean_photon(200.0), M, 1e-4, 1e-12,
         4353, "0x1.1781ae443e703p-40", "0x1.fffffffffdd0ep-1"),
        (ThermalSpec.from_mean_photon(1000.0), P, -1e-4, 1e-12,
         17042, "0x1.192e39662324bp-40", "0x1.fffffffffdcdbp-1"),
        (ThermalSpec.from_mean_photon(200.0), M, 1e-3, 1e-12,
         1825, "0x1.14df037fce1dbp-40", "0x1.fffffffffdd68p-1"),
        (ThermalSpec.from_mean_photon(250.0), P, 0.0, 1e-6,
         3460, "0x1.0c335ed121657p-20", "0x1.ffffde799425fp-1"),
        (ThermalSpec.from_mean_photon(4900.0), M, 1e-4, 1e-15,
         28149, "0x1.1f65097344f4fp-50", "0x1.ffffffffffff0p-1"),
        (CoherentSpec(300.0), M, -1e-3, 1e-12,
         514, "0x1.cfc5d8a9faab3p-41", "0x1.fffffffffe27cp-1"),
        (CoherentSpec(40.0), P, 1e-2, 1e-9,
         80, "0x1.3fe37d13e1028p-31", "0x1.fffffffb00738p-1"),
        (CatSpec(40.0), M, -1e-3, 1e-12,
         94, "0x1.dd102d8f559a6p-42", "0x1.ffffffffff11cp-1"),
        (CatSpec(250.0), P, 1e-3, 1e-15,
         380, "0x1.9f884746f7637p-51", "0x1.fffffffffffd7p-1"),
    ])
    def test_pinned_builds(self, spec, kind, eps, tol, n_max, tail_hex, sum_hex):
        dist = build_distribution(spec, params(kind, eps), tol)
        assert dist.n_max == n_max
        assert dist.tail_bound.hex() == tail_hex
        assert float(dist.probs.sum()).hex() == sum_hex

    @pytest.mark.parametrize("cls, kind, eps", [
        (ThermalSpec, P, -1e-4), (ThermalSpec, M, 1e-4), (CoherentSpec, M, -1e-4),
        (CatSpec, P, 1e-3),
    ])
    def test_builds_after_growth_equal_fresh_builds(self, cls, kind, eps):
        # The first spec grows the vectors furthest (thermal through 8N,
        # 16N and 32N), then smaller supports at the same epsilon read them.
        specs = [cls.from_mean_photon(n) for n in (300.0, 40.0, 299.0, 2.0, 150.0)]
        pr = params(kind, eps)
        kept = [build_distribution(spec, pr) for spec in specs]
        for spec, dist in zip(specs, kept):
            build_distribution.cache_clear()
            fresh = build_distribution(spec, pr)
            assert fresh is not dist
            for field in dataclasses.fields(PhotonDistribution):
                got, want = getattr(dist, field.name), getattr(fresh, field.name)
                if isinstance(want, np.ndarray):
                    assert got.tobytes() == want.tobytes()
                else:
                    assert repr(got) == repr(want)


SHORTCUT = settings(derandomize=True, deadline=None, database=None, max_examples=300)


class TestDoublingShortcut:
    @SHORTCUT
    @given(st.lists(st.floats(-2000.0, 2000.0), min_size=2, max_size=300),
           st.floats(-800.0, 60.0), st.floats(-18.0, -6.0), st.booleans())
    def test_shortcut_implies_the_full_test_fails(self, weights, offset, log10_tol, ties):
        lnw = np.array(weights)
        if ties:  # equal weights make the bound size e^peak exact
            lnw[:] = lnw.max()
        peak = float(lnw.max())
        ln_tail, tol = peak + offset, 10.0 ** log10_tol
        if states._tail_surely_above(peak, lnw.size, ln_tail, tol):
            ln_total = float(np.logaddexp(_logsumexp(lnw), ln_tail))
            assert math.exp(ln_tail - ln_total) > tol

    def test_margin(self):
        # Ten equal weights: the bound is the exact total, so the shortcut
        # fires once the tail exceeds tol by more than the 1e-6 margin.
        lnw, tol = np.zeros(10), 1e-9
        for excess, fires in ((2e-6, True), (0.5e-6, False)):
            # the tail at which tail / (10 + tail) = tol e^excess
            target = tol * math.exp(excess)
            ln_tail = math.log(10.0 * target / (1.0 - target))
            assert states._tail_surely_above(0.0, lnw.size, ln_tail, tol) is fires
            ln_total = float(np.logaddexp(_logsumexp(lnw), ln_tail))
            assert math.exp(ln_tail - ln_total) > tol

    def test_rounds_that_must_fail_skip_the_sum(self, monkeypatch):
        sums = []
        real = states._logsumexp
        monkeypatch.setattr(states, "_logsumexp", lambda a: sums.append(a.size) or real(a))
        dist = build_distribution(ThermalSpec.from_mean_photon(200.0), params(M, 1e-4))
        assert dist.n_max == 4353
        assert len(sums) == 1  # only the third round (32N) sums its weights
