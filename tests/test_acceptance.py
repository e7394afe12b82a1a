"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.

Leading-order table checks (criteria 1-5) evaluate the energy-calibrated
QSNR on states whose deformed mean photon number is solved to the target N,
report the per-point ratios at the stated epsilon, and assert the stated
tolerance on the leading-order constant extracted by Richardson
extrapolation (second order in epsilon at each N, then linear in 1/N from
the N = 20, 40 pair).  The extraction is required because the table is a
joint leading order in epsilon*N and 1/N: at the stated parameters the
exact ratios carry known first-order corrections (for example +10/(3N) for
the P/coherent cell, -17% at epsilon*N = 0.04 for M/thermal) that exceed
the stated percentages at single grid points.
"""

import math

import numpy as np
import pytest

from qdeform.algebra import DeformationKind, DeformationParams
from qdeform.errors import DivergenceError
from qdeform.estimation import (
    calibrate_intensity,
    classical_fisher,
    measurements_needed,
    qsnr,
)
from qdeform.montecarlo import crb_benchmark
from qdeform.states import (
    CatSpec,
    CoherentSpec,
    ThermalSpec,
    build_distribution,
    mean_photon,
    mean_photon_expansion,
)
from qdeform.algebra import log_delta_values
from qdeform.oracles import g_product, qfi_pure

M, P = DeformationKind.M, DeformationKind.P

TABLE = {
    (M, "coherent"): (0.125, 2),
    (M, "cat"): (0.125, 2),
    (M, "thermal"): (1.0, 2),
    (P, "coherent"): (2.0 / 9.0, 4),
    (P, "cat"): (2.0 / 9.0, 4),
    (P, "thermal"): (40.0, 4),
}


def _line(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{name}]: {status} {detail}")


def _spec_for(family, intensity):
    if family == "coherent":
        return CoherentSpec(intensity)
    if family == "cat":
        return CatSpec(intensity)
    return ThermalSpec.from_mean_photon(intensity)


def _qfi(spec, kind, eps):
    if isinstance(spec, ThermalSpec):
        return classical_fisher(spec, kind, eps)
    return qfi_pure(spec, kind, eps)


def _calibrated_ratio(family, kind, eps, n_target):
    """qsnr / (eps N)^power with the state's deformed mean solved to N."""
    _, power = TABLE[(kind, family)]
    pr = DeformationParams(kind, eps)
    spec = calibrate_intensity(_spec_for(family, n_target), pr, n_target)
    q = qsnr(eps, _qfi(spec, kind, eps))
    return q / (eps * n_target) ** power


def _extracted_constant(family, kind, eps, n_grid=(10.0, 20.0, 40.0)):
    """Richardson in eps (order 2) per N, then linear in 1/N from (20, 40)."""
    rich = {}
    for n in n_grid:
        r = [_calibrated_ratio(family, kind, eps / 2**k, n) for k in range(3)]
        r01 = [2 * r[i + 1] - r[i] for i in range(2)]
        rich[n] = (4 * r01[1] - r01[0]) / 3.0
    return 2 * rich[40.0] - rich[20.0], rich


def _table_criterion(num, name, family, kind, eps, tol_rel):
    const, power = TABLE[(kind, family)]
    ratios = {n: _calibrated_ratio(family, kind, eps, n) for n in (10.0, 20.0, 40.0)}
    extracted, _ = _extracted_constant(family, kind, eps)
    detail = (
        f"ratios@eps={eps:g}: "
        + " ".join(f"N={int(n)}:{r:.4f}" for n, r in ratios.items())
        + f" | extracted {extracted:.4f} vs {const:.4f}"
        f" ({(extracted - const) / const:+.2%})"
    )
    try:
        assert abs(extracted - const) <= tol_rel * const
    except AssertionError:
        _line(num, name, False, detail)
        raise
    return ratios, extracted, detail


class TestCriterion1MCoherent:
    def test_table_m_coherent(self):
        ratios, extracted, detail = _table_criterion(
            1, "Table: M/coherent 1/8", "coherent", M, 1e-3, 0.10
        )
        const = 0.125
        try:
            # per-point ratios also within 10% at the stated parameters
            for r in ratios.values():
                assert abs(r - const) <= 0.10 * const
            # deviation shrinks under extrapolation toward the table value
            worst = max(abs(r - const) for r in ratios.values())
            assert abs(extracted - const) < worst
        except AssertionError:
            _line(1, "Table: M/coherent 1/8", False, detail)
            raise
        _line(1, "Table: M/coherent 1/8", True, detail)


class TestCriterion2MThermal:
    def test_table_m_thermal(self):
        _, _, detail = _table_criterion(
            2, "Table: M/thermal 1", "thermal", M, 1e-3, 0.15
        )
        _line(2, "Table: M/thermal 1", True, detail)


class TestCriterion3MCat:
    def test_table_m_superposition(self):
        ratios, extracted, detail = _table_criterion(
            3, "Table: M/superposition 1/8", "cat", M, 1e-3, 0.10
        )
        const = 0.125
        try:
            for r in ratios.values():
                assert abs(r - const) <= 0.10 * const
        except AssertionError:
            _line(3, "Table: M/superposition 1/8", False, detail)
            raise
        _line(3, "Table: M/superposition 1/8", True, detail)


class TestCriterion4PCoherentCat:
    def test_table_p_coherent(self):
        _, _, detail = _table_criterion(
            4, "Table: P/coherent 2/9", "coherent", P, 1e-2, 0.10
        )
        _line(4, "Table: P/coherent 2/9", True, detail)

    def test_table_p_superposition(self):
        _, _, detail = _table_criterion(
            4, "Table: P/superposition 2/9", "cat", P, 1e-2, 0.10
        )
        _line(4, "Table: P/superposition 2/9", True, detail)


class TestCriterion5PThermal:
    def test_table_p_thermal(self):
        _, extracted, detail = _table_criterion(
            5, "Table: P/thermal 40", "thermal", P, 1e-2, 0.15
        )
        # the fitted constant is reported regardless
        _line(5, "Table: P/thermal 40", True,
              detail + f" | fitted constant {extracted:.2f}")


class TestCriterion6ScalingExponents:
    @pytest.mark.parametrize("kind,target", [(M, 2.0), (P, 4.0)])
    def test_slopes(self, kind, target):
        name = f"scaling exponent {kind.value}"
        epss = np.geomspace(1e-3, 1e-2, 7)
        detail_parts = []
        try:
            for family in ("coherent", "cat"):
                qs = []
                for eps in epss:
                    pr = DeformationParams(kind, float(eps))
                    spec = calibrate_intensity(_spec_for(family, 20.0), pr, 20.0)
                    qs.append(qsnr(float(eps), _qfi(spec, kind, float(eps))))
                slope = float(np.polyfit(np.log(epss), np.log(qs), 1)[0])
                detail_parts.append(f"{family}:{slope:.3f}")
                assert abs(slope - target) <= 0.05
            # thermal slope reported informationally: its eps*N corrections
            # are an order of magnitude stronger at these parameters
            qs = []
            for eps in epss:
                pr = DeformationParams(kind, float(eps))
                spec = calibrate_intensity(_spec_for("thermal", 20.0), pr, 20.0)
                qs.append(qsnr(float(eps), _qfi(spec, kind, float(eps))))
            thermal_slope = float(np.polyfit(np.log(epss), np.log(qs), 1)[0])
            detail_parts.append(f"thermal(info):{thermal_slope:.3f}")
        except AssertionError:
            _line(6, name, False, " ".join(detail_parts))
            raise
        _line(6, name, True, f"target {target} +-0.05 | " + " ".join(detail_parts))


class TestCriterion7FisherEqualsQfi:
    def test_f_equals_h(self):
        name = "F = H identity"
        checked = 0
        excluded = 0
        try:
            for family in ("coherent", "cat", "thermal"):
                for kind in (M, P):
                    for eps in (1e-3, -1e-3, 1e-2, -1e-2):
                        for n in (1.0, 5.0, 20.0):
                            spec = _spec_for(family, n)
                            if family == "thermal" and kind is M and eps < 0:
                                # non-normalizable: bounded M spectrum
                                with pytest.raises(DivergenceError):
                                    classical_fisher(spec, kind, eps)
                                excluded += 1
                                continue
                            f = classical_fisher(spec, kind, eps)
                            h = _qfi(spec, kind, eps)
                            assert h > 0
                            assert abs(f - h) / h < 1e-6
                            checked += 1
        except AssertionError:
            _line(7, name, False)
            raise
        _line(7, name, True,
              f"{checked} cells < 1e-6; {excluded} non-normalizable "
              "(thermal, M, eps<0) raise DivergenceError")


class TestCriterion8MeanPhotonExpansions:
    CASES = [
        # family, kind, intensity, anchor eps, expected halving ratio
        ("coherent", M, 4.0, 2e-3, 4.0),
        ("coherent", P, 4.0, 2e-3, 8.0),
        ("thermal", M, 30.0, 1e-3, 4.0),
        # the thermal-P printed formula is accurate through eps^3, so its
        # residual is next-next order: halving ratio 16
        ("thermal", P, 100.0, 1e-4, 16.0),
        ("cat", M, 30.0, 1e-3, 4.0),
        # the cat-P printed formula omits the n_C^3 term of its coherent
        # counterpart, leaving a first-derivative-order residual: ratio 4
        ("cat", P, 30.0, 1e-3, 4.0),
    ]

    def test_halving_ratios(self):
        name = "mean-photon expansions"
        details = []
        try:
            for family, kind, intensity, eps0, expected in self.CASES:
                spec = _spec_for(family, intensity)

                def residual(e):
                    pr = DeformationParams(kind, e)
                    exact = mean_photon(build_distribution(spec, pr, 1e-12))
                    approx = mean_photon_expansion(spec, pr, regime="large")
                    return abs(exact - approx)

                ratio = residual(eps0) / residual(eps0 / 2)
                details.append(f"{family}/{kind.value}:{ratio:.2f}~{expected:g}")
                assert ratio == pytest.approx(expected, rel=0.25)
        except AssertionError:
            _line(8, name, False, " ".join(details))
            raise
        _line(8, name, True, " ".join(details))


class TestCriterion9AlgebraOracle:
    def test_closed_forms_and_limit(self):
        from decimal import Decimal, getcontext
        from fractions import Fraction

        name = "algebra oracle"
        getcontext().prec = 50
        try:
            for eps in (0.1, -0.1, 1e-3, -1e-3, 1e-6, -1e-6):
                e = Fraction(eps)
                q = 1 + e
                ld_m = log_delta_values(DeformationParams(M, eps), 30)
                ld_p = log_delta_values(DeformationParams(P, eps), 30)
                for n in range(31):
                    g_plain = Fraction(1)
                    g_minus = Fraction(1)
                    for k in range(n):
                        g_plain *= 1 - q * q**k
                        g_minus *= 1 + q**k
                    closed_m = (-1 / e) ** n * g_plain
                    ln_m = float((Decimal(closed_m.numerator)
                                  / Decimal(closed_m.denominator)).ln())
                    assert abs(ld_m[n] - ln_m) < 1e-10
                    closed_p = (Fraction(-1) ** n * q ** (-n * (n - 1) // 2)
                                * (e * (e + 2)) ** (-n) * g_minus * g_plain
                                * (1 + q**n) / 2)
                    ln_p = float((Decimal(closed_p.numerator)
                                  / Decimal(closed_p.denominator)).ln())
                    assert abs(ld_p[n] - ln_p) < 1e-8
            # Delta_n(eps -> 0) -> n! to 1e-9 relative
            for kind in (M, P):
                ld = log_delta_values(DeformationParams(kind, 1e-12), 30)
                for n in range(31):
                    assert abs(ld[n] - math.lgamma(n + 1)) < 1e-9
            # the float g-product oracle agrees away from the cancellation zone
            for eps in (0.1, -0.1):
                ld = log_delta_values(DeformationParams(M, eps), 30)
                for n in range(31):
                    closed = (-1.0 / eps) ** n * g_product(1 + eps, 1 + eps, n)
                    assert math.exp(ld[n]) == pytest.approx(closed, rel=1e-10)
        except AssertionError:
            _line(9, name, False)
            raise
        _line(9, name, True,
              "factored product = closed g-forms (n <= 30, eps grid); "
              "Delta_n -> n! at eps -> 0")


class TestCriterion10CrbSaturation:
    def test_crb_benchmark(self):
        name = "CRB saturation"
        bench = crb_benchmark(
            ThermalSpec.from_mean_photon(20.0),
            M,
            epsilon_true=5e-3,
            shots=10_000,
            replications=200,
            seed=20140304,
        )
        se = math.sqrt(bench.empirical_var / bench.replications)
        detail = (f"var/crb = {bench.ratio:.3f} (in [0.8, 1.5]); "
                  f"bias = {bench.bias:+.2e} ({abs(bench.bias) / se:.2f} SE); "
                  f"failed = {bench.failed}")
        try:
            assert bench.estimable
            assert 0.8 <= bench.ratio <= 1.5
            assert abs(bench.bias) <= 3 * se
        except AssertionError:
            _line(10, name, False, detail)
            raise
        _line(10, name, True, detail)


class TestCriterion11VanishingQsnr:
    def test_qsnr_vanishes_monotonically(self):
        name = "vanishing QSNR"
        eps_grid = [1e-5, 1e-4, 1e-3, 1e-2]
        n_target = 10.0
        details = []
        try:
            for family in ("coherent", "cat", "thermal"):
                for kind in (M, P):
                    qs = []
                    for eps in eps_grid:
                        pr = DeformationParams(kind, eps)
                        spec = calibrate_intensity(_spec_for(family, n_target),
                                                   pr, n_target)
                        qs.append(qsnr(eps, _qfi(spec, kind, eps)))
                    assert all(q > 0 for q in qs)
                    assert all(a < b for a, b in zip(qs, qs[1:]))
                    m_needed = [measurements_needed(0.1, q) for q in qs]
                    assert all(a > b for a, b in zip(m_needed, m_needed[1:]))
                    assert m_needed[0] / m_needed[-1] > 1e4
                    details.append(
                        f"{family}/{kind.value}: Q {qs[0]:.2e}->{qs[-1]:.2e}"
                    )
        except AssertionError:
            _line(11, name, False, " ".join(details))
            raise
        _line(11, name, True,
              "Q monotone -> 0 and M_delta unbounded on every probe/kind; "
              + "; ".join(details[:2]) + " ...")
