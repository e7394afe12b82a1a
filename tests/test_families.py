"""The probe-family protocol: every family in FAMILIES provides the same
attributes, the package reaches families only through them, and property
tests over (family, kind, epsilon, intensity) hold for each family."""

import argparse
import importlib
import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qdeform
from qdeform import serialize
from qdeform.algebra import _SERIES_EPS, DeformationKind, DeformationParams
from qdeform.cli import build_parser
from qdeform.errors import DivergenceError, DomainError
from qdeform.estimation import (
    PROB_FLOOR,
    calibrate_intensity,
    estimation_report,
    family_class_of,
    leading_order_qsnr,
)
from qdeform.montecarlo import CountSample, crb_benchmark, mle_epsilon
from qdeform.oracles import (
    fd_information,
    fixed_support_log_probs,
    log_q_number_values,
    qfi_pure,
)
from qdeform.states import (
    FAMILIES,
    build_distribution,
    mean_photon_expansion,
)

M, P = DeformationKind.M, DeformationKind.P
U = sys.float_info.epsilon

PROTOCOL = (
    "family", "family_class", "field", "step", "pure", "n0", "m_divergence_rate",
    "log_weight_rows", "eps_score", "ln_theta_score", "mean_expansion",
    "from_mean_photon",
)

MODULES = ("algebra", "errors", "states", "estimation", "montecarlo", "serialize",
           "cli", "oracles")
# One builder, one Fisher function: these left the production modules, and
# the validation-only ones among them live in qdeform.oracles.
REMOVED = (
    "qfi_diagonal", "AmplitudeVector", "_with_amplitudes", "coherent_distribution",
    "thermal_distribution", "cat_distribution", "extend_truncation",
    "spec_from_dict", "distribution_from_dict", "report_from_dict", "benchmark_from_dict",
    "gamma_values", "log_delta_values", "_fixed_support_log_prob_rows",
    "classical_fisher", "_ordered_bracket", "_last_levels", "_clear_levels",
)
MOVED_TO_ORACLES = ("qfi_pure", "log_likelihood_gradient", "fixed_support_log_probs",
                    "log_likelihood", "DerivativeInstabilityError", "log_q_number_values")


def _exports(module):
    """The module's __all__, else the public names it defines itself."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [name for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__]


class TestConformance:
    @pytest.mark.parametrize("name", MODULES)
    def test_every_exported_name_resolves(self, name):
        module = importlib.import_module(f"qdeform.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), (name, attr)

    def test_package_exports_come_from_the_modules(self):
        exported = {attr for name in MODULES
                    for attr in _exports(importlib.import_module(f"qdeform.{name}"))}
        assert set(qdeform.__all__) <= exported | {"__version__"}
        assert all(hasattr(qdeform, attr) for attr in qdeform.__all__)
        assert len(qdeform.__all__) <= 29

    def test_removed_names_are_gone_from_production(self):
        production = [qdeform] + [importlib.import_module(f"qdeform.{name}")
                                  for name in MODULES if name != "oracles"]
        for module in production:
            for attr in REMOVED + MOVED_TO_ORACLES:
                assert not hasattr(module, attr), (module.__name__, attr)
        oracles = importlib.import_module("qdeform.oracles")
        assert set(MOVED_TO_ORACLES) <= set(oracles.__all__)

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_every_family_has_the_protocol(self, name):
        cls = FAMILIES[name]
        spec = cls.from_mean_photon(3.0)
        assert type(spec) is cls and cls.family == name
        for attr in PROTOCOL:
            assert hasattr(spec, attr), (name, attr)
        assert getattr(spec, cls.field) > 0
        assert cls.step in (1, 2) and isinstance(cls.pure, bool)
        assert leading_order_qsnr(cls.family_class, M, 1e-3, 10.0) > 0
        rows = spec.log_weight_rows(M, np.array([0.0, 1e-3]), 20)
        assert rows.shape == (2, 21)
        pr = DeformationParams(P, 1e-3)
        dist = build_distribution(spec, pr)
        assert spec.eps_score(pr, dist.n_max).shape == spec.ln_theta_score(dist).shape \
            == (dist.n_max + 1,)

    def test_cli_family_choices_are_the_families(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command in ("fisher", "qsnr", "benchmark"):
            family = next(a for a in sub.choices[command]._actions if a.dest == "family")
            assert list(family.choices) == list(FAMILIES)
        state = next(a for a in sub.choices["state"]._actions
                     if isinstance(a, argparse._SubParsersAction))
        assert list(state.choices) == list(FAMILIES)

    def test_no_type_dispatch_on_specs(self):
        pattern = re.compile(r"isinstance\(.*Spec")
        for path in sorted(Path(qdeform.__file__).parent.glob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                assert not pattern.search(line), f"{path.name}:{number}: {line.strip()}"

    def test_production_modules_leave_the_oracles_alone(self):
        pattern = re.compile(r'oracles|DerivativeConfig|method == "fd"')
        for path in sorted(Path(qdeform.__file__).parent.glob("*.py")):
            if path.name == "oracles.py":
                continue
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                assert not pattern.search(line), f"{path.name}:{number}: {line.strip()}"

    def test_importing_the_package_and_cli_loads_no_oracles(self):
        src = str(Path(qdeform.__file__).parent.parent)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import qdeform, qdeform.cli; "
                "print('qdeform.oracles' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize("call", [
        lambda s: build_distribution(s, DeformationParams(M, 0.0)),
        lambda s: fixed_support_log_probs(s, DeformationParams(M, 0.0), 10),
        lambda s: mean_photon_expansion(s, DeformationParams(M, 0.0)),
        lambda s: calibrate_intensity(s, DeformationParams(M, 0.0), 2.0),
        lambda s: mle_epsilon(CountSample({0: 1}, 1, 0), s, M, (0.0, 0.1)),
        lambda s: qfi_pure(s, M, 1e-3),
        lambda s: estimation_report(s, M, 1e-3),
        lambda s: family_class_of(s),
        lambda s: crb_benchmark(s, M, 1e-3, 100, 50, 1),
        lambda s: serialize.spec_to_dict(s),
    ])
    def test_non_spec_is_a_domain_error(self, call):
        with pytest.raises(DomainError, match="unknown probe spec"):
            call(object())


# --------------------------------------------------------------------------
# Properties.  derandomize keeps tier-1 deterministic; database=None keeps
# hypothesis from writing example files.

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)
families = st.sampled_from(list(FAMILIES.values()))
kinds = st.sampled_from(list(DeformationKind))
intensities = st.floats(0.05, 200.0)


def _near_divergence(spec, kind, eps):
    """M, eps < 0 and m_divergence_rate |eps| > 0.99: past or so close to
    the divergence that the certified support outgrows the hard cap."""
    return kind is M and eps < 0.0 and spec.m_divergence_rate * -eps > 0.99


@PROPERTY
@given(families, kinds, st.floats(-0.5, 0.5), intensities,
       st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_probs_sum_to_one_minus_the_certified_tail(cls, kind, eps, n, tol):
    spec = cls.from_mean_photon(n)
    assume(not _near_divergence(spec, kind, eps))
    dist = build_distribution(spec, DeformationParams(kind, eps), tol)
    assert 0.0 <= dist.tail_bound <= tol
    # Normalizing in the log domain rounds ln Z to its last bit, which moves
    # every p_n by that much relative: 1.3e-14 at ln Z = 133 (coherent,
    # |alpha|^2 = 135, eps = 0).
    lnw = spec.log_weight_rows(kind, [eps], dist.n_max)[0]
    peak = int(np.argmax(dist.log_probs))
    ln_z = float(lnw[peak] - dist.log_probs[peak])
    bound = 1e-14 + 2.0 * math.ulp(abs(ln_z))
    assert abs(float(np.sum(dist.probs)) - (1.0 - dist.tail_bound)) <= bound


@PROPERTY
@given(families, kinds, st.floats(-0.5, 0.5), intensities,
       st.sampled_from(["intensity", "mean_photon"]))
def test_fisher_is_nonnegative(cls, kind, eps, n, hold):
    spec = cls.from_mean_photon(n)
    assume(not _near_divergence(spec, kind, eps))
    assert estimation_report(spec, kind, eps, hold=hold).fisher >= 0.0


@PROPERTY
@given(families, st.floats(1e-300, 1e300))
def test_spec_dict_round_trip(cls, value):
    spec = cls(**{cls.field: value})
    data = json.loads(json.dumps(serialize.spec_to_dict(spec)))
    assert data["family"] == cls.family
    family = FAMILIES[data["family"]]
    assert family(**{family.field: data[family.field]}) == spec


@PROPERTY
@given(families, st.floats(-0.9, -1e-6), intensities)
def test_m_divergence_exactly_at_rate_times_abs_eps_one(cls, eps, n):
    # Outside (0.99, 1), where the certified support would outgrow the
    # hard cap before the weights diverge, a build fails exactly when
    # m_divergence_rate |eps| >= 1.
    spec = cls.from_mean_photon(n)
    r = spec.m_divergence_rate * -eps
    assume(not 0.99 < r < 1.0)
    params = DeformationParams(M, eps)
    if r >= 1.0:
        with pytest.raises(DivergenceError, match="non-normalizable"):
            build_distribution(spec, params)
    else:
        assert build_distribution(spec, params).n_max >= 1


@PROPERTY
@given(families, kinds, st.floats(1e-3, 0.1), st.booleans(), st.floats(0.5, 30.0))
def test_analytic_fisher_matches_finite_differences(cls, kind, size, negative, n):
    # FD-stable domain: |eps| in [1e-3, 0.1] and N in [0.5, 30] at fixed
    # intensity.  There the step max(1e-7, 1e-3 |eps|) leaves the Richardson
    # pair well inside its 1e-4 agreement, and F is far above rounding
    # (measured worst disagreement on a grid over it: 4e-7).
    eps = -size if negative else size
    spec = cls.from_mean_photon(n)
    assume(not _near_divergence(spec, kind, eps))
    analytic = estimation_report(spec, kind, eps, hold="intensity").fisher
    fd, _ = fd_information(spec, kind, eps, hold="intensity")
    assert fd == pytest.approx(analytic, rel=1e-5)


@PROPERTY
@given(families, kinds, st.floats(-0.5, 0.5), intensities)
def test_ln_theta_score_is_the_log_weight_slope(cls, kind, eps, n):
    # ln_theta_score is d ln w_n / d ln theta up to an added constant, so
    # centered under p it equals a centered central difference of the
    # log-weights in ln theta.  At step h the difference is exact for
    # coherent and cat weights (linear in ln theta) and off by h^2/6
    # relative for thermal ones (linear in theta), 1.7e-9 at h = 1e-4; its
    # rounding is about ulp(|ln w_n|)/h.  The bound is relative to the
    # largest centered score entry.
    spec = cls.from_mean_photon(n)
    assume(not _near_divergence(spec, kind, eps))
    dist = build_distribution(spec, DeformationParams(kind, eps))
    keep = dist.probs > PROB_FLOOR
    p = dist.probs[keep] / dist.probs[keep].sum()
    theta, h = getattr(spec, cls.field), 1e-4
    up, down = (replace(spec, **{cls.field: theta * math.exp(s)})
                .log_weight_rows(kind, [eps], dist.n_max)[0][keep] for s in (h, -h))
    fd = (up - down) / (2.0 * h)
    score = spec.ln_theta_score(dist)[keep]
    fd -= p @ fd
    score -= p @ score
    assert np.max(np.abs(score - fd)) <= 1e-8 * max(1.0, np.max(np.abs(score)))


signed_small = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-6.0, math.log10(0.5))).map(
    lambda t: t[0] * 10.0 ** t[1])


def _log_weight_operands(spec, eps, n_max):
    """Size of the terms each P log-weight ln w_n, n = 0..n_max, is computed
    from; the rounding of ln w_n is a few ulps of it.  ln [j] is
    ln|e^(2jL) - 1| + (1 - j) L - ln|eps (2 + eps)| with L = ln(1 + eps), so it
    carries b_j = |ln [j]| + 2j|L| + |ln|eps (2 + eps)||.  Coherent and cat
    weights add n ln theta to the running sum of the ln [j]; thermal ones
    scale gamma_j = e^(ln [j]) by beta/2, so they are |ln w_n| (1 + b_(n+1))."""
    j = np.arange(n_max + 2)
    den = abs(eps * (2.0 + eps))
    b = (np.abs(log_q_number_values(DeformationParams(P, eps), n_max + 1))
         + 2.0 * j * abs(math.log1p(eps)) + (abs(math.log(den)) if den else 0.0))
    b[0] = 0.0
    if spec.pure:
        return np.abs(j[:-1] * math.log(spec.alpha_sq)) + np.cumsum(b[:-1])
    return np.abs(spec.log_weight_rows(P, [eps], n_max)[0]) * (1.0 + b[1:])


@settings(PROPERTY, max_examples=200)  # a few ms each; more of them reach the 1e-3 band
@given(families, st.one_of(st.floats(-0.5, 0.5), signed_small), intensities)
def test_p_cannot_tell_q_from_its_inverse(cls, eps, n):
    # P's [n] = (q^n - q^-n)/(q - 1/q) is even in ln q, so eps and its mirror
    # eps* = -eps/(1 + eps), with q* = 1/q, give one state; photon counting
    # sees only |ln q|.  F picks up the squared Jacobian (1 + eps)^-4.
    spec = cls.from_mean_photon(n)
    mirror = -eps / (1.0 + eps)
    dist = build_distribution(spec, DeformationParams(P, eps))
    other = build_distribution(spec, DeformationParams(P, mirror))
    assert other.n_max == dist.n_max
    # ln p_n = ln w_n - ln Z: each side carries the rounding of its ln w_n
    # and of ln Z, the p-weighted mean of the ln w_n roundings (measured at
    # most 1.1 u of this model on 400 random points).
    seen = dist.probs > 0.0
    size = _log_weight_operands(spec, eps, dist.n_max)[seen]
    bound = 4.0 * U * (1.0 + size + dist.probs[seen] @ size)
    assert np.all(np.abs(other.log_probs[seen] - dist.log_probs[seen]) <= bound)
    # Where either side is past _SERIES_EPS, d ln [j]/d eps comes from the P
    # closed form, which cancels to about 7 u/eps^2 relative (1.5e-9 at
    # |eps| = 1e-3, 1.7e-14 at 0.1); below it both sides sum the series.
    rtol = 2e-13
    if max(abs(eps), abs(mirror)) >= _SERIES_EPS:
        rtol += 16.0 * U / (eps * eps)
    for hold in ("intensity", "mean_photon"):
        want = estimation_report(spec, P, eps, hold=hold).fisher * (1.0 + eps) ** 4
        assert abs(estimation_report(spec, P, mirror, hold=hold).fisher - want) <= rtol * want
