"""Estimation-theory tests: F = H identities, derivative validation,
leading-order table, scaling exponents, and configuration plumbing."""

import functools
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import Polynomial

from qdeform import estimation, oracles, states
from qdeform.algebra import DeformationKind, DeformationParams
from qdeform.errors import DivergenceError, DomainError
from qdeform.estimation import (
    calibrate_intensity,
    estimation_report,
    leading_order_qsnr,
    measurements_needed,
    qsnr,
)
from qdeform.oracles import DerivativeInstabilityError, fd_information, qfi_pure
from qdeform.states import (
    CatSpec,
    CoherentSpec,
    ThermalSpec,
    build_distribution,
    mean_photon,
)

M, P = DeformationKind.M, DeformationKind.P


def spec_for(family, intensity):
    if family == "coherent":
        return CoherentSpec(intensity)
    if family == "cat":
        return CatSpec(intensity)
    return ThermalSpec.from_mean_photon(intensity)


class TestFisherEqualsQfi:
    @pytest.mark.parametrize("family", ["coherent", "cat", "thermal"])
    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("eps", [1e-4, -1e-4, 1e-3, -1e-3, 1e-2, -1e-2])
    @pytest.mark.parametrize("n_mean", [1.0, 5.0, 20.0])
    def test_grid(self, family, kind, eps, n_mean):
        spec = spec_for(family, n_mean)
        if family == "thermal" and kind is M and eps < 0:
            # non-normalizable corner: bounded spectrum, divergent Z
            with pytest.raises(DivergenceError):
                estimation_report(spec, kind, eps)
            return
        report = estimation_report(spec, kind, eps)
        fisher = report.fisher
        qfi = report.qfi if family == "thermal" else qfi_pure(spec, kind, eps)
        assert fisher >= 0.0
        assert qfi >= 0.0
        assert fisher <= qfi * (1 + 1e-8) + 1e-300
        if qfi > 0:
            assert abs(fisher - qfi) / qfi < 1e-6

    def test_qfi_pure_rejects_thermal(self):
        with pytest.raises(DomainError):
            qfi_pure(ThermalSpec(1.0), M, 1e-3)


class TestDegenerateFamilies:
    def test_flat_family_p_at_zero(self):
        # P-deformation scores vanish at eps = 0: frozen family, F = 0.
        assert estimation_report(CoherentSpec(5.0), P, 0.0).fisher == 0.0
        assert qfi_pure(CatSpec(5.0), P, 0.0) == 0.0

    def test_vacuum_limit(self):
        # beta -> inf: the state pins to the vacuum and carries no signal.
        f = estimation_report(ThermalSpec(beta=60.0), M, 1e-3).fisher
        assert f == pytest.approx(0.0, abs=1e-20)


class TestFiniteDifferenceValidation:
    @pytest.mark.parametrize("family", ["coherent", "cat", "thermal"])
    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("hold", ["intensity", "mean_photon"])
    def test_fd_matches_analytic(self, family, kind, hold):
        eps = 1e-3 if kind is M else 1e-2
        spec = spec_for(family, 8.0)
        analytic = estimation_report(spec, kind, eps, hold=hold).fisher
        fd, _ = fd_information(spec, kind, eps, hold=hold)
        assert fd == pytest.approx(analytic, rel=1e-6)

    @pytest.mark.parametrize("kind", [M, P])
    def test_fd_qfi_pure_matches(self, kind):
        eps = 1e-3
        spec = CoherentSpec(6.0)
        analytic = qfi_pure(spec, kind, eps)
        _, fd = fd_information(spec, kind, eps)
        assert fd == pytest.approx(analytic, rel=1e-6)

    def test_instability_detection(self):
        # An absurd step makes the h and h/2 estimates disagree (P kind so
        # the whole stencil stays normalizable).
        with pytest.raises(DerivativeInstabilityError):
            fd_information(CoherentSpec(10.0), P, 1e-2, step=0.2, richardson_rtol=1e-8)

    @pytest.mark.parametrize("family", ["coherent", "cat"])
    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("hold", ["mean_photon", "intensity"])
    def test_f_le_h_guard_accepts_valid_points(self, family, kind, hold):
        # F and H are two finite-difference estimates of one number, each
        # good to richardson_rtol; a 1e-8 guard rejected 11 of these 128 P
        # points (e.g. cat N = 1, eps = 1e-3, hold=intensity).  Both stay
        # within 9.1e-7 of the analytic F on this grid.
        for eps in (1e-3, -1e-3, 1e-2, 0.05):
            for n in (0.5, 1.0, 5.0, 20.0):
                spec = spec_for(family, n)
                fisher, qfi = fd_information(spec, kind, eps, hold=hold)
                analytic = estimation_report(spec, kind, eps, hold=hold).fisher
                assert fisher == pytest.approx(analytic, rel=2e-6), (eps, n)
                assert qfi == pytest.approx(analytic, rel=2e-6), (eps, n)


class TestCalibration:
    @pytest.mark.parametrize("family", ["coherent", "cat", "thermal"])
    @pytest.mark.parametrize("kind", [M, P])
    def test_calibrated_mean_hits_target(self, family, kind):
        eps = 5e-3
        target = 17.0
        spec = calibrate_intensity(spec_for(family, target),
                                   DeformationParams(kind, eps), target)
        dist = build_distribution(spec, DeformationParams(kind, eps))
        assert mean_photon(dist) == pytest.approx(target, rel=1e-11)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(DomainError):
            calibrate_intensity(CoherentSpec(1.0), DeformationParams(M, 0.0), -2.0)

    @pytest.mark.parametrize("family", ["coherent", "cat", "thermal"])
    @pytest.mark.parametrize("kind", [M, P])
    def test_newton_uses_only_the_intensity_score(self, monkeypatch, family, kind):
        def no_eps_score(*args, **kwargs):
            raise AssertionError("epsilon score evaluated during calibration")

        # The families' eps_score methods read these bindings.
        monkeypatch.setattr(states, "dlog_delta_values", no_eps_score)
        monkeypatch.setattr(states, "dgamma_values", no_eps_score)
        pr = DeformationParams(kind, 5e-3)
        spec = calibrate_intensity(spec_for(family, 17.0), pr, 17.0)
        assert mean_photon(build_distribution(spec, pr)) == pytest.approx(17.0, rel=1e-11)

    def test_far_target_is_bracketed(self):
        # The P thermal mean grows only like ln(1/beta) (172.7 at 1e-40,
        # 436.0 at 1e-100), so 200 photons at eps = 0.3 lie 40 decades of
        # beta below the undeformed start.
        pr = DeformationParams(P, 0.3)
        spec = calibrate_intensity(ThermalSpec.from_mean_photon(200.0), pr, 200.0)
        assert 1e-100 < spec.beta < 1e-40
        assert mean_photon(build_distribution(spec, pr)) == pytest.approx(200.0, rel=1e-12)

    @pytest.mark.parametrize("family", ["coherent", "cat"])
    @pytest.mark.parametrize("eps, target", [(-1e-2, 200.0), (-1e-2, 500.0), (-0.5, 10.0)])
    def test_m_negative_epsilon_target_past_the_divergence(self, family, eps, target):
        # The mean diverges as |alpha|^2 |eps| -> 1, so each target is
        # reached below 1/|eps| although the undeformed start lies beyond it.
        pr = DeformationParams(M, eps)
        spec = calibrate_intensity(spec_for(family, target), pr, target)
        assert spec.alpha_sq * -eps < 1.0
        assert mean_photon(build_distribution(spec, pr)) == pytest.approx(target, rel=1e-12)

    def test_m_negative_epsilon_bound_past_the_float_range(self):
        # |alpha|^2 |eps| underflows to 0 here, and used to end in a bare
        # ValueError from ln 0; the bound 1/|eps| lies past every float.
        pr = DeformationParams(M, -1e-310)
        spec = calibrate_intensity(CoherentSpec(1e-20), pr, 1e-20)
        assert abs(mean_photon(build_distribution(spec, pr)) - 1e-20) <= 1e-12

    @pytest.mark.parametrize("family", ["cat", "thermal"])
    def test_subnormal_target_keeps_the_start_positive(self, family):
        # The start's lower bound target / 3 underflows to 0 at 5e-324, and
        # an undeformed mean of 0 has no intensity (1/0 for thermal probes,
        # 0/0 in the cat's Newton step).
        pr = DeformationParams(M, 4.0)
        spec = calibrate_intensity(spec_for(family, 1.0), pr, 5e-324)
        assert mean_photon(build_distribution(spec, pr)) <= 1e-12

    def test_m_negative_epsilon_thermal_still_diverges(self):
        with pytest.raises(DivergenceError, match="non-normalizable"):
            calibrate_intensity(ThermalSpec.from_mean_photon(5.0),
                                DeformationParams(M, -1e-3), 5.0)

    def test_unreachable_target_is_a_domain_error(self):
        with pytest.raises(DomainError, match="out of reach"):
            calibrate_intensity(ThermalSpec.from_mean_photon(5000.0),
                                DeformationParams(P, 0.3), 5000.0)

    def test_exhausted_iterations_are_a_divergence_error(self, monkeypatch):
        monkeypatch.setattr(estimation, "_CALIBRATION_MAX_ITER", 2)
        with pytest.raises(DivergenceError, match="did not converge"):
            calibrate_intensity(ThermalSpec.from_mean_photon(200.0),
                                DeformationParams(P, 0.3), 200.0)

    def test_collapsed_bracket_explains_itself(self):
        # At N = 1e5 the computed mean wobbles by about 1e-11 relative
        # between neighbouring floats of |alpha|^2, so the Newton bracket
        # closes onto one float before the 1e-12 tolerance is met.
        with pytest.raises(DivergenceError) as caught:
            calibrate_intensity(CoherentSpec(1e5), DeformationParams(M, 1e-3), 1e5)
        message = str(caught.value)
        assert message.startswith(
            "intensity calibration did not converge for target 100000.0 after 29 builds: "
            "the bracket collapsed onto one float (alpha_sq = ")
        residual = float(re.search(r"best relative residual (\S+),", message).group(1))
        assert 1e-12 < residual < 1e-10
        assert message.endswith("tolerance 1e-12")

    def test_exhausted_iterations_say_so(self, monkeypatch):
        monkeypatch.setattr(estimation, "_CALIBRATION_MAX_ITER", 2)
        with pytest.raises(DivergenceError, match=r"after 2 builds: the iteration limit "
                                                  r"was reached; best relative residual"):
            calibrate_intensity(ThermalSpec.from_mean_photon(200.0),
                                DeformationParams(P, 0.3), 200.0)

    def test_flat_response_is_a_divergence_error(self):
        # At M, eps = 3 the levels grow like 4^n, so at the expansion start
        # (beta = 12.7) p_1 ~ e^(-5 beta / 2) is below tol: the certified
        # build is the vacuum alone, and the mean has no slope in beta.  The
        # target is reachable (near beta = 5.5), so this is a stall of the
        # iteration, not an out-of-reach target.
        with pytest.raises(DivergenceError, match="stalled"):
            calibrate_intensity(ThermalSpec.from_mean_photon(1e-6), DeformationParams(M, 3.0),
                                1e-6)

    @pytest.mark.parametrize("target", [5e-12, 1e-9, 1e-6])
    def test_small_cat_target_calibrates(self, target):
        # The given |alpha|^2 = t certifies the vacuum alone (p_2 ~ t^2 / 2 is
        # below tol), which used to stall; the expansion start solves
        # |alpha|^2 tanh |alpha|^2 = t instead, near sqrt(t).
        pr = DeformationParams(M, 0.0)
        spec = calibrate_intensity(CatSpec.from_mean_photon(target), pr, target)
        dist = build_distribution(spec, pr)
        assert dist.n_max >= 2
        assert abs(mean_photon(dist) - target) <= 1e-12

    def test_absolute_stop_rule_below_one_photon(self):
        # Below one photon the stop rule is |mean - target| <= 1e-12, so a
        # target of 1e-12 is met by a certified vacuum, with mean 0.
        pr = DeformationParams(M, 0.0)
        spec = calibrate_intensity(CatSpec.from_mean_photon(1e-12), pr, 1e-12)
        dist = build_distribution(spec, pr)
        assert (dist.n_max, mean_photon(dist)) == (0, 0.0)


def test_thermal_eps_score_overflow_is_a_divergence_error():
    # At M, eps = 0.01 the thermal epsilon-score gamma_n d ln [n] / d eps
    # leaves the float range between beta = 1e-301 and 1e-303, where beta
    # gamma_n is still about 6; F there is not finite, and no
    # floating-point warning escapes on the way to the error.
    assert estimation_report(ThermalSpec(1e-301), M, 0.01, hold="intensity").fisher \
        == 6800942.265136878
    with pytest.raises(DivergenceError, match="epsilon score overflows"):
        estimation_report(ThermalSpec(1e-303), M, 0.01, hold="intensity")


# derandomize keeps tier-1 deterministic; database=None keeps hypothesis from
# writing example files.
@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(st.sampled_from(["coherent", "cat", "thermal"]), st.sampled_from([M, P]),
       st.floats(-3.0, 4.0), st.floats(0.0, 1.0), st.booleans())
def test_every_regime_target_converges(family, kind, log10_n, u, negative):
    # N log-uniform in [1e-3, 1e4] and |eps| log-uniform in [1e-10,
    # min(0.5, 1/N)], either sign; thermal M at eps < 0 diverges for every
    # beta and is skipped.
    n = 10.0 ** log10_n
    size = math.exp(math.log(1e-10) + u * math.log(min(0.5, 1.0 / n) / 1e-10))
    eps = -size if negative else size
    assume(not (family == "thermal" and kind is M and negative))
    pr = DeformationParams(kind, eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = calibrate_intensity(spec_for(family, n), pr, n)
        assert abs(mean_photon(build_distribution(spec, pr)) - n) <= 1e-12 * max(1.0, n)


class TestCalibratedReport:
    @pytest.mark.parametrize("family", ["coherent", "cat", "thermal"])
    @pytest.mark.parametrize("kind", [M, P])
    def test_report_reuses_the_last_iterate(self, monkeypatch, family, kind):
        # Every calibration iterate is one build; the report on the solved
        # spec repeats the last one and gets it back without rebuilding.
        builds, calls = [], []
        real_finalize, real_build = states._finalize, estimation.build_distribution

        def finalize(*args):
            builds.append(args)
            return real_finalize(*args)

        def build(*args):
            calls.append(args)
            return real_build(*args)

        monkeypatch.setattr(states, "_finalize", finalize)
        monkeypatch.setattr(estimation, "build_distribution", build)
        eps, target = 1e-3, 300.0
        spec = calibrate_intensity(spec_for(family, target), DeformationParams(kind, eps),
                                   target)
        assert len(builds) == len(calls) >= 2  # one call per iterate
        report = estimation_report(spec, kind, eps)
        assert len(calls) == len(builds) + 1
        build_distribution.cache_clear()
        assert estimation_report(spec, kind, eps) == report
        assert len(builds) == len(calls) - 1


# float.hex of (fisher, qsnr, mean_photon) at calibrated points, each family
# at one low and one high mean photon number.  A change that moves one bit
# fails here first: the Monte Carlo CRB ratios move with the last bit of F.
PINNED_POINTS = [
    ("coherent", M, 10.0, 3e-3,
     "0x1.8a392246b8215p+3", "0x1.d10b69ebb68e8p-14", "0x1.3ffffffffffdbp+3"),
    ("coherent", P, 1000.0, 4e-4,
     "0x1.e138c381e65cap+14", "0x1.42f143a5e0e2fp-8", "0x1.f3ffffffff53dp+9"),
    ("thermal", M, 2000.0, 2e-4,
     "0x1.0bfb4d6e7e6bap+20", "0x1.67adcb3d53823p-5", "0x1.f3ffffffffff4p+10"),
    ("thermal", P, 5.0, 0.05,
     "0x1.7679579cb2e5ep+3", "0x1.df53a357ef3adp-6", "0x1.4000000000002p+2"),
    ("cat", M, 20.0, -2e-3,
     "0x1.968f37f461dbcp+5", "0x1.aa4ef87f68db4p-13", "0x1.4000000000137p+4"),
    ("cat", P, 500.0, 1e-3,
     "0x1.5bca860976316p+13", "0x1.6caf76effc452p-7", "0x1.f3ffffffffdefp+8"),
]


@pytest.mark.parametrize("family, kind, target, eps, fisher, q, mean", PINNED_POINTS)
def test_calibrated_point_bits(family, kind, target, eps, fisher, q, mean):
    spec = calibrate_intensity(spec_for(family, target), DeformationParams(kind, eps), target)
    report = estimation_report(spec, kind, eps)
    assert (report.fisher.hex(), report.qsnr.hex(), report.mean_photon.hex()) == (
        fisher, q, mean)


@pytest.mark.parametrize("family, kind, target, eps, fisher, q, mean", PINNED_POINTS)
def test_calibrated_point_fisher_matches_50_digits(family, kind, target, eps, fisher, q,
                                                   mean):
    # The pinned F, as the report computes it, against Var[d - lambda t]
    # with lambda = Cov[n,d]/Cov[n,t], in 50 digits at the calibrated spec.
    # Both sum over the levels with p_n above PROB_FLOOR, renormalized, so
    # they truncate alike and this checks the arithmetic.  [j] and
    # d ln [j] / d eps come from their recurrences, and t = d ln w_n / d ln
    # theta from its closed form (n, or ln w_n for thermal weights, which
    # are linear in beta).
    mp = pytest.importorskip("mpmath")
    from test_algebra import mp_q_numbers

    pr = DeformationParams(kind, eps)
    spec = calibrate_intensity(spec_for(family, target), pr, target)
    dist = build_distribution(spec, pr)
    levels = np.flatnonzero(dist.probs > estimation.PROB_FLOOR)
    qs, dlq = mp_q_numbers(kind, eps, dist.n_max + 1)
    with mp.workdps(50):
        if family == "thermal":
            half_beta = mp.mpf(spec.beta) / 2
            g = [mp.mpf(0)] + qs  # gamma_j for j = 0..n_max + 1
            dg = [mp.mpf(0)] + [a * b for a, b in zip(qs, dlq)]
            lnw = [-half_beta * (g[n + 1] + g[n] - 1) for n in levels]
            d = [-half_beta * (dg[n + 1] + dg[n]) for n in levels]
            t = lnw
        else:
            ln_delta, d_ln_delta = [mp.mpf(0)], [mp.mpf(0)]
            for a, b in zip(qs, dlq):
                ln_delta.append(ln_delta[-1] + mp.log(a))
                d_ln_delta.append(d_ln_delta[-1] + b)
            ln_theta = mp.log(mp.mpf(spec.alpha_sq))
            lnw = [n * ln_theta - ln_delta[n] for n in levels]
            d = [-d_ln_delta[n] for n in levels]
            t = [mp.mpf(int(n)) for n in levels]
        top = max(lnw)
        w = [mp.exp(x - top) for x in lnw]
        z = mp.fsum(w)
        p = [x / z for x in w]

        def mean_of(v):
            return mp.fdot(p, v)

        def cov(u, v):
            mu, mv = mean_of(u), mean_of(v)
            return mp.fdot(p, [(a - mu) * (b - mv) for a, b in zip(u, v)])

        n = [mp.mpf(int(k)) for k in levels]
        lam = cov(n, d) / cov(n, t)
        s = [a - lam * b for a, b in zip(d, t)]
        want = float(cov(s, s))
    got = estimation_report(spec, kind, eps).fisher
    assert (got.hex(), abs(got - want) <= 1e-12 * want) == (fisher, True)


# One calibrated point whose support exceeds the 10^4 entries above which
# OpenBLAS splits a dot product over its threads.
_THREAD_PROBE = """
from qdeform.algebra import DeformationKind, DeformationParams
from qdeform.estimation import calibrate_intensity, estimation_report
from qdeform.states import ThermalSpec, build_distribution

kind, eps, target = DeformationKind.M, 2e-4, 2000.0
spec = calibrate_intensity(ThermalSpec.from_mean_photon(target),
                           DeformationParams(kind, eps), target)
report = estimation_report(spec, kind, eps)
print(build_distribution(spec, DeformationParams(kind, eps)).n_max,
      report.fisher.hex(), report.qsnr.hex(), report.mean_photon.hex())
"""


def _cpu_count():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(_cpu_count() < 2,
                    reason="OpenBLAS caps its threads at the core count, so one core "
                           "cannot run the two-thread dot product this compares against")
def test_large_support_bits_do_not_depend_on_blas_threads():
    src = str(Path(states.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert int(outputs[0].split()[0]) > 10_000
    assert outputs[0] == outputs[1]


ZERO_CASES = [(family, n) for family in ("coherent", "thermal", "cat") for n in (1, 10, 100)]


@functools.lru_cache(maxsize=None)
def exact_zero_information(family, n, hold, kind=M):
    pytest.importorskip("mpmath")
    oracle = oracles.m_zero_information if kind is M else oracles.p_zero_information
    return oracle(spec_for(family, n), hold)


def p_zero_limit(family, n, hold, tol):
    """c = lim F (1 + eps)^2 / L^2 at P, with L = ln(1 + eps), from production
    F at eps = 1e-6 and 2e-6: the ratio is c + a L^2 + O(L^4), since F is
    even in L, so one Richardson step in L^2 removes a."""
    points = []
    for eps in (1e-6, 2e-6):
        ell2 = math.log1p(eps) ** 2
        f = estimation_report(spec_for(family, n), P, eps, tol=tol, hold=hold).fisher
        points.append((f * (1.0 + eps) ** 2 / ell2, ell2))
    (g1, a1), (g2, a2) = points
    return (g1 * a2 - g2 * a1) / (a2 - a1)


def _moments(n, top, geometric=False):
    """E[k^j] for j = 0..top under Poisson(n), or the geometric law of mean
    n, exact for a Fraction n or a polynomial in n: sum_i S(j, i) mu_i, with
    S the Stirling numbers of the second kind and mu_i the factorial
    moments E[k (k-1) ... (k-i+1)], n^i (Poisson) or i! n^i (geometric)."""
    stirling = [[Fraction(1)]]
    for j in range(1, top + 1):
        prev = stirling[-1] + [Fraction(0)]
        stirling.append([Fraction(0)] + [i * prev[i] + prev[i - 1] for i in range(1, j + 1)])
    mu = [(math.factorial(i) if geometric else 1) * n**i for i in range(top + 1)]
    return [sum(s * mu[i] for i, s in enumerate(row)) for row in stirling]


class TestExactZeroInformation:
    # As eps -> 0 the epsilon-score is a polynomial in n (at M) or L times
    # one (at P), and F or its limit over L^2 a moment of the undeformed law,
    # summed in 50 digits by the oracles.

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_oracle_gives_the_coherent_closed_forms(self, n):
        assert exact_zero_information("coherent", n, "intensity") == n**3 / 4 + n**2 / 8
        assert exact_zero_information("coherent", n, "mean_photon") == n**2 / 8

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_p_oracle_gives_the_coherent_moments(self, n):
        # d = -(sum_{j<=k} j^2 - k)/3 = -(2k^3 + 3k^2 - 5k)/18, whose moments
        # up to k^6 under Poisson(n) are exact polynomials in n.
        m = _moments(Fraction(n), 6)

        def mean(coeffs):  # E[sum_j coeffs[j] k^j]
            return sum(c * m[j] for j, c in enumerate(coeffs))

        d = [0, Fraction(5, 18), Fraction(-3, 18), Fraction(-2, 18)]
        d2 = [Fraction(0)] * 7
        for i, a in enumerate(d):
            for k, b in enumerate(d):
                d2[i + k] += a * b
        var_d = mean(d2) - mean(d) ** 2
        cov = mean([0] + d) - n * mean(d)
        assert exact_zero_information("coherent", n, "intensity", P) == float(var_d)
        assert exact_zero_information("coherent", n, "mean_photon", P) == float(
            var_d - cov**2 / n)

    @pytest.mark.parametrize("hold", ["intensity", "mean_photon"])
    @pytest.mark.parametrize("family, n", ZERO_CASES)
    def test_fisher_at_a_fine_tolerance(self, family, n, hold):
        # Measured: at most 1.6e-14 (coherent, cat) and 6.7e-13 (thermal).
        want = exact_zero_information(family, n, hold)
        got = estimation_report(spec_for(family, n), M, 0.0, tol=1e-18, hold=hold).fisher
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("hold", ["intensity", "mean_photon"])
    @pytest.mark.parametrize("family, n", ZERO_CASES)
    def test_p_limit_at_a_fine_tolerance(self, family, n, hold):
        # Measured: at most 1.7e-13 (coherent, cat) and 2.0e-11 (thermal).
        want = exact_zero_information(family, n, hold, P)
        got = p_zero_limit(family, n, hold, tol=1e-18)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the default tol certifies the "
                       "probability mass only, not the Fisher sum")
    def test_fisher_at_the_default_tolerance(self):
        # Off by up to 5.0e-9 (coherent), 1.1e-9 (cat) and 1.3e-7 (thermal,
        # mean_photon) at tol = 1e-12.
        for family, n in ZERO_CASES:
            for hold in ("intensity", "mean_photon"):
                want = exact_zero_information(family, n, hold)
                got = estimation_report(spec_for(family, n), M, 0.0, hold=hold).fisher
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (family, n, hold)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the default tol certifies the "
                       "probability mass only, not the Fisher sum")
    def test_p_limit_at_the_default_tolerance(self):
        # Off by up to 3.2e-8 (coherent), 5.1e-9 (cat) and 1.5e-6 (thermal)
        # at tol = 1e-12.
        for family, n in ZERO_CASES:
            for hold in ("intensity", "mean_photon"):
                want = exact_zero_information(family, n, hold, P)
                got = p_zero_limit(family, n, hold, tol=states.DEFAULT_TOL)
                assert got == pytest.approx(want, rel=1e-10, abs=0.0), (family, n, hold)


class TestLeadingOrderTable:
    def test_pinned_constants(self):
        eps, n = 1e-3, 10.0
        u2, u4 = (eps * n) ** 2, (eps * n) ** 4
        assert leading_order_qsnr("coherent", M, eps, n) == pytest.approx(u2 / 8)
        assert leading_order_qsnr("superposition", M, eps, n) == pytest.approx(u2 / 8)
        assert leading_order_qsnr("thermal", M, eps, n) == pytest.approx(u2)
        assert leading_order_qsnr("coherent", P, eps, n) == pytest.approx(2 * u4 / 9)
        assert leading_order_qsnr("superposition", P, eps, n) == pytest.approx(2 * u4 / 9)
        assert leading_order_qsnr("thermal", P, eps, n) == pytest.approx(40 * u4)

    def test_unknown_class(self):
        with pytest.raises(DomainError):
            leading_order_qsnr("squeezed", M, 1e-3, 10.0)

    def test_coherent_m_limit_constant(self):
        # The energy-calibrated Fisher information approaches N^2/8 exactly
        # as eps -> 0 for the M coherent probe.
        for n in [5.0, 20.0]:
            f = estimation_report(CoherentSpec(n), M, 1e-6).fisher
            assert f == pytest.approx(n * n / 8.0, rel=1e-4)

    def test_richardson_extrapolation_toward_eighth(self):
        # qsnr/(eps N)^2 over N in {10, 20, 40} at eps = 1e-3 extrapolates
        # to 1/8 within 10%.
        eps = 1e-3
        ratios = {}
        for n in (10.0, 20.0, 40.0):
            pr = DeformationParams(M, eps)
            spec = calibrate_intensity(CoherentSpec(n), pr, n)
            q = qsnr(eps, qfi_pure(spec, M, eps))
            ratios[n] = q / (eps * n) ** 2
        extrap = 2 * ratios[20.0] - ratios[40.0]
        assert extrap == pytest.approx(0.125, rel=0.10)

    @pytest.mark.parametrize("kind,slope,eps", [(M, 2.0, 1e-4), (P, 4.0, 1e-3)])
    def test_slope_versus_n(self, kind, slope, eps):
        # log Q vs log N at fixed small eps: 2 +- 0.1 (M), 4 +- 0.1 (P).
        ns = np.array([20.0, 40.0, 80.0])
        qs = []
        for n in ns:
            pr = DeformationParams(kind, eps)
            spec = calibrate_intensity(CoherentSpec(n), pr, n)
            qs.append(qsnr(eps, qfi_pure(spec, kind, eps)))
        fit = np.polyfit(np.log(ns), np.log(qs), 1)[0]
        assert abs(fit - slope) <= 0.1

    @pytest.mark.parametrize("family_class, kind", [("coherent", M), ("thermal", P)])
    def test_overflow_is_infinite(self, family_class, kind):
        # (eps N)^k past the float maximum, as for N = 1e308
        assert leading_order_qsnr(family_class, kind, 1e-3, 1e308) == math.inf

    @pytest.mark.parametrize("epsilon, n_mean, message", [
        (math.nan, 1.0, "epsilon must be finite and > -1, got nan"),
        (1e-3, math.nan, "n_mean must be finite and >= 0, got nan")])
    def test_rejects_nan(self, epsilon, n_mean, message):
        with pytest.raises(DomainError, match=message):
            leading_order_qsnr("thermal", P, epsilon, n_mean)

    # DeformationParams owns the rule on (kind, eps); N must be finite, >= 0.
    @pytest.mark.parametrize("kind, epsilon, n_mean, message", [
        (M, -5.0, 1.0, "epsilon must be finite and > -1, got -5.0"),
        (M, math.inf, 0.0, "epsilon must be finite and > -1, got inf"),
        (M, 1e-3, -1.0, "n_mean must be finite and >= 0, got -1.0"),
        (P, 0.0, math.inf, "n_mean must be finite and >= 0, got inf"),
        ("M", 1e-3, 1.0, "kind must be a DeformationKind, got 'M'"),
    ])
    def test_rejects_inputs_outside_the_table(self, kind, epsilon, n_mean, message):
        with pytest.raises(DomainError, match=message):
            leading_order_qsnr("coherent", kind, epsilon, n_mean)


# The variable of a polynomial with Fraction coefficients: the photon
# number k in a score d(k), the mean N of the undeformed law in a moment.
_X = Polynomial(np.array([Fraction(0), Fraction(1)], dtype=object))


def zero_information_in_n(kind, pure):
    """(numerator, denominator): the eps -> 0 information at
    hold="mean_photon", Var[d] - Cov[k, d]^2 / Var[k], as a ratio of
    polynomials in N, with d(k) from oracles._ZERO_SCORES and the moments
    of Poisson(N) (pure probes) or of the geometric law of mean N (thermal
    ones).  Thermal information is this ratio times h^2 = (beta/2)^2, with
    beta = ln(1 + 1/N)."""
    degree, score = oracles._ZERO_SCORES[kind, pure]
    d = score(_X, Fraction(1))
    m = _moments(_X, 2 * degree, geometric=not pure)

    def mean(poly):  # E[poly(k)], a polynomial in N
        return sum(c * m[j] for j, c in enumerate(poly.coef))

    var_k = mean(_X * _X) - mean(_X) ** 2
    cov = mean(_X * d) - mean(_X) * mean(d)
    var_d = mean(d * d) - mean(d) ** 2
    return var_d * var_k - cov**2, var_k


def leading_term(kind, pure):
    """(c, degree) of the eps -> 0 information's leading term c N^degree;
    h^2 = 1/(4 N^2) + O(1/N^3) scales the thermal one."""
    num, den = zero_information_in_n(kind, pure)
    const, degree = num.coef[-1] / den.coef[-1], num.degree() - den.degree()
    return (const, degree) if pure else (const / 4, degree - 2)


class TestLeadingOrderConstants:
    """The four constants of the leading-order table, derived exactly."""

    TABLE = {(M, True): (Fraction(1, 8), 2), (M, False): (Fraction(1), 2),
             (P, True): (Fraction(2, 9), 4), (P, False): (Fraction(40), 4)}

    @pytest.mark.parametrize("kind, pure", list(TABLE))
    def test_derived_leading_term(self, kind, pure):
        assert leading_term(kind, pure) == self.TABLE[kind, pure]

    @pytest.mark.parametrize("kind, pure", list(TABLE))
    def test_table_holds_the_derived_constants(self, kind, pure):
        const, degree = self.TABLE[kind, pure]
        for family_class in (("coherent", "superposition") if pure else ("thermal",)):
            assert estimation._LEADING[kind, family_class] == (float(const), degree)

    @pytest.mark.parametrize("kind, pure", list(TABLE))
    def test_ratio_matches_the_oracle_at_n_10(self, kind, pure):
        num, den = zero_information_in_n(kind, pure)
        h2 = 1.0 if pure else (math.log1p(1 / 10) / 2) ** 2
        want = exact_zero_information("coherent" if pure else "thermal", 10, "mean_photon", kind)
        assert h2 * float(num(Fraction(10)) / den(Fraction(10))) == pytest.approx(
            want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("hold", ["intensity", "mean_photon"])
    def test_superposition_row_is_the_coherent_one(self, kind, hold):
        # The even-Poisson moments at |alpha|^2 = 50 differ from the Poisson
        # ones by about e^-100.
        assert exact_zero_information("cat", 50, hold, kind) == pytest.approx(
            exact_zero_information("coherent", 50, hold, kind), rel=1e-12, abs=0.0)


class TestScalars:
    def test_qsnr_zero_at_zero_eps(self):
        assert qsnr(0.0, 123.0) == 0.0

    def test_qsnr_arithmetic(self):
        assert qsnr(1e-3, 8e4) == pytest.approx(0.08)

    def test_qsnr_rejects_negative(self):
        with pytest.raises(DomainError):
            qsnr(1e-3, -1.0)

    def test_measurements_needed(self):
        assert measurements_needed(1.0, 9.0) == pytest.approx(1.0)
        assert measurements_needed(0.1, 0.09) == pytest.approx(9 / (0.01 * 0.09))
        assert measurements_needed(0.1, 0.0) == math.inf

    def test_measurements_needed_validation(self):
        with pytest.raises(DomainError):
            measurements_needed(0.0, 1.0)
        with pytest.raises(DomainError):
            measurements_needed(0.1, -1.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan)])
    def test_measurements_needed_rejects_nan_and_infinite_delta(self, args):
        with pytest.raises(DomainError):
            measurements_needed(*args)

    def test_measurements_needed_is_zero_at_infinite_qsnr(self):
        assert measurements_needed(0.1, math.inf) == 0.0

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (1e-3, math.nan)])
    def test_qsnr_rejects_nan(self, args):
        with pytest.raises(DomainError):
            qsnr(*args)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    def test_qsnr_rejects_infinite_qfi(self, epsilon):
        # 0 * inf gave a NaN QSNR, which measurements_needed then rejected.
        with pytest.raises(DomainError, match="qfi must be finite and >= 0, got inf"):
            qsnr(epsilon, math.inf)


class TestReport:
    def test_report_fields_consistent(self):
        spec = ThermalSpec.from_mean_photon(5.0)
        report = estimation_report(spec, M, 2e-3)
        assert report.qsnr == pytest.approx(report.epsilon**2 * report.qfi, rel=1e-14)
        assert report.fisher == pytest.approx(report.qfi, rel=1e-6)
        assert report.m_delta_coeff == pytest.approx(9.0 / report.qsnr, rel=1e-14)
        assert report.m_delta_coeff == measurements_needed(1.0, report.qsnr)
        assert report.mean_photon > 0

    def test_report_frozen_family_sentinel(self):
        report = estimation_report(CoherentSpec(3.0), P, 0.0)
        assert report.qsnr == 0.0
        assert math.isinf(report.m_delta_coeff)
        assert report.m_delta_coeff == measurements_needed(1.0, report.qsnr)

    def test_two_parametrizations_differ(self):
        # The raw-intensity family carries the energy signal as well, so its
        # Fisher information exceeds the calibrated one by roughly 2N for
        # the M coherent probe.
        n = 20.0
        f_cal = estimation_report(CoherentSpec(n), M, 1e-4).fisher
        f_raw = estimation_report(CoherentSpec(n), M, 1e-4, hold="intensity").fisher
        assert f_raw / f_cal == pytest.approx(2 * n + 1, rel=0.05)


class TestLargeMeanScore:
    """_score_variance where centering cancels a score mean of 5e9: the
    variance matches a long-double reference to 1e-6."""

    @staticmethod
    def draw(seed):
        # A score of mean 5e9 and spread 500: centering rounds by ~ulp(5e9)
        rng = np.random.default_rng(seed)
        pm = rng.random(2000)
        pm /= pm.sum()
        return pm, 5e9 + rng.normal(0.0, 500.0, 2000)

    @pytest.mark.parametrize("seed", range(5))
    def test_large_mean_passes(self, seed):
        pm, s = self.draw(seed)
        lp, ls = pm.astype(np.longdouble), s.astype(np.longdouble)
        ref = float(lp @ (ls - lp @ ls) ** 2)
        assert estimation._score_variance(pm, s) == pytest.approx(ref, rel=1e-6)

    def test_calibrated_cat_at_large_n(self):
        # The score mean is 5e9 here, its spread after centering about 484
        pr = DeformationParams(M, 1e-3)
        spec = calibrate_intensity(CatSpec(1e5), pr, 1e5)
        report = estimation_report(spec, M, 1e-3)
        assert report.fisher == pytest.approx(499500.5404577, rel=1e-9)


class TestOneBuildReport:
    @pytest.fixture
    def build_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_distribution(*args, **kwargs)

        monkeypatch.setattr(estimation, "build_distribution", counting)
        return calls

    @pytest.mark.parametrize("family", ["coherent", "cat", "thermal"])
    @pytest.mark.parametrize("hold", ["mean_photon", "intensity"])
    def test_analytic_report_builds_once(self, build_calls, family, hold):
        estimation_report(spec_for(family, 6.0), M, 2e-3, hold=hold)
        assert len(build_calls) == 1

    @pytest.mark.parametrize("family", ["coherent", "cat", "thermal"])
    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("hold", ["mean_photon", "intensity"])
    def test_fields_match_the_public_functions(self, family, kind, hold):
        spec, eps = spec_for(family, 6.0), 2e-3
        report = estimation_report(spec, kind, eps, hold=hold)
        dist = build_distribution(spec, DeformationParams(kind, eps))
        assert report.fisher == estimation._fisher(dist, hold)
        assert report.mean_photon == mean_photon(dist)
        assert report.qfi == report.fisher
        if family != "thermal":
            assert qfi_pure(spec, kind, eps, hold=hold) == pytest.approx(report.qfi, rel=1e-12)

    @pytest.mark.parametrize("family", ["coherent", "thermal"])
    def test_fd_report_takes_one_stencil(self, monkeypatch, family):
        stencil_rows = []
        real = oracles.fixed_support_log_probs

        def counting(*args, **kwargs):
            stencil_rows.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracles, "fixed_support_log_probs", counting)
        spec = spec_for(family, 6.0)
        fisher, qfi = fd_information(spec, M, 1e-3, hold="intensity")
        assert len(stencil_rows) == 5
        analytic = estimation_report(spec, M, 1e-3, hold="intensity").fisher
        assert fisher == pytest.approx(analytic, rel=1e-6)
        if family == "thermal":
            assert qfi == fisher  # Fock-diagonal: H is the classical sum
        else:
            assert qfi == pytest.approx(qfi_pure(spec, M, 1e-3, hold="intensity"), rel=1e-6)

    def test_fd_report_keeps_the_f_le_h_guard(self, monkeypatch):
        # F may exceed H by the Richardson accuracy (1e-4), not beyond it.
        monkeypatch.setattr(oracles, "_richardson", lambda *args: (1.0 + 5e-5, 1.0))
        assert fd_information(CoherentSpec(6.0), M, 1e-3) == (1.0 + 5e-5, 1.0)
        monkeypatch.setattr(oracles, "_richardson", lambda *args: (1.0 + 2e-4, 1.0))
        with pytest.raises(DerivativeInstabilityError, match="exceeds QFI"):
            fd_information(CoherentSpec(6.0), M, 1e-3)


class TestCalibrationBuilds:
    """Real builds (one _finalize each) that a calibration makes."""

    @pytest.fixture
    def finalized(self, monkeypatch):
        specs = []
        real = states._finalize

        def counting(*args):
            specs.append(args[-1])
            return real(*args)

        monkeypatch.setattr(states, "_finalize", counting)
        return specs

    def test_builds_over_the_regime_grid(self, finalized):
        # 3 families x 2 kinds x N in {2, 30, 300, 3000} x eps N in {1e-3,
        # 0.1, 0.9}: 186 builds, 2.58 per point and at most 3 (272 builds,
        # 3.78 per point and at most 6 with Newton steps from the given spec).
        counts = []
        for family in ("coherent", "cat", "thermal"):
            for kind in (M, P):
                for n in (2.0, 30.0, 300.0, 3000.0):
                    for eps_n in (1e-3, 0.1, 0.9):
                        build_distribution.cache_clear()
                        before = len(finalized)
                        calibrate_intensity(spec_for(family, n),
                                            DeformationParams(kind, eps_n / n), n)
                        counts.append(len(finalized) - before)
        assert (len(counts), sum(counts), max(counts)) == (72, 186, 3)

    @pytest.mark.parametrize("family", ["coherent", "cat", "thermal"])
    @pytest.mark.parametrize("kind", [M, P])
    @pytest.mark.parametrize("eps_n", [1.5, 40.0])
    def test_outside_the_regime_the_first_build_is_the_given_spec(self, finalized, family,
                                                                   kind, eps_n):
        n = 20.0
        spec = spec_for(family, n)
        calibrate_intensity(spec, DeformationParams(kind, eps_n / n), n)
        assert finalized[0] is spec
