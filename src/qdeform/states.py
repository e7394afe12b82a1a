"""Photon-number distributions of deformed coherent, thermal and cat states.

Each probe family is described in one place, its spec class (listed by
name in FAMILIES), which carries the unnormalized log-weights ln w_n:

  coherent:  ln w_n = n ln|alpha|^2 - ln Delta_n
  thermal:   ln w_n = -(beta/2) (gamma_{n+1} + gamma_n - 1)
  cat:       coherent weights restricted to even n (odd amplitudes cancel)

and everything else the package needs to know about the family (_Probe).

Weights are summed in the log domain after subtracting the running max.
Truncation is certified: once the boundary weight ratio r is below 1 (and
the ratio sequence is non-increasing, which holds for every normalizable
configuration of these families), the omitted mass is bounded by the
geometric majorant w_last r/(1-r).  Distributions are normalized against
the truncated sum plus that certified tail, so sum(probs) = 1 - tail_bound.
The support is then cut back to the smallest n_max whose dropped mass
meets tol: the dropped masses are one cumulative sum taken from the end,
which never decreases, so the cut is a binary search in it.

A calibrated point builds supports of up to 10^5 levels several times, so
each pass over a support runs in place in one buffer, without index arrays
or throwaway copies; every result has the bits of the plain expressions.
log_weight_rows takes a start column, like algebra's level rows, and can
write its columns into a given buffer: a build grows one weight row by
segments, and each entry depends on its own n, so a segment has the bits
of the same columns of a whole row.

Non-normalizable corners raise DivergenceError instead of looping: the M
deformation with epsilon < 0 has a bounded spectrum (gamma_n saturates at
1/|epsilon|), so the weights diverge once m_divergence_rate |epsilon|
reaches 1 -- for every thermal state (the rate is infinite) and for
coherent/cat states once |alpha|^2 |epsilon| >= 1.

The cat normalization formula and the large-n probabilities are checked
by the tests against independent evaluations (an alternating sum, and
50-digit recurrences); nothing here calls those checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple, Type, Union

import numpy as np

from .algebra import (
    DeformationKind,
    DeformationParams,
    _kept_levels,
    _levels,
    dgamma_values,
    dlog_delta_values,
)
from .errors import DivergenceError, DomainError

__all__ = [
    "CoherentSpec",
    "ThermalSpec",
    "CatSpec",
    "ProbeSpec",
    "FAMILIES",
    "PhotonDistribution",
    "build_distribution",
    "mean_photon",
    "mean_photon_expansion",
]

HARD_CAP = 1_000_000
DEFAULT_TOL = 1e-12

# Log-weights this far below the peak underflow any certified tolerance and
# are trimmed before ratio analysis (exp stays in the normal float range).
_UNDERFLOW_LOG = 700.0
_RATIO_SLACK = 1e-9
# Shortest first segment of a build's weight row.  Each segment costs fixed
# work worth a few thousand entries read from kept level rows, so rows up to
# this size are computed in one segment.
_MIN_SEGMENT = 4096
# OpenBLAS's x86-64 ddot runs on one thread up to this many entries and
# splits a longer dot product over its threads, so that its bits depend on
# the thread count; _dot sums in blocks of this size instead.  Other BLAS
# builds or architectures may split shorter dot products; only this one was
# measured.
_DOT_BLOCK = 10_000


class _Probe:
    """Base of the spec classes.  Each family class provides:

    family, family_class   CLI/JSON name; row of leading_order_qsnr
    field                  name of the intensity parameter theta
    step, pure             Fock support step; pure (else Fock-diagonal)
    n0                     undeformed mean photon number (sizes a build)
    m_divergence_rate      M, epsilon < 0: the weights diverge once
                           m_divergence_rate |epsilon| >= 1
    linear_in_theta        ln w_n is linear in theta (thermal: beta), not in
                           ln theta; so d t / d ln theta is t, else 0, for
                           t = ln_theta_score
    log_weight_rows(kind, eps, n_max, start=0, out=None)
                                        ln w_n for n = start..n_max, one row
                                        per epsilon, read from algebra's
                                        level rows; written into out
                                        (rows x columns) when one is given
    eps_score(params, n_max)            d ln w_n / d epsilon
    ln_theta_score(dist)                d ln w_n / d ln theta up to a constant
                                        (a new array): n, or ln p_n if thermal
    expansion_at(n0, params, regime)    leading-order mean photon number at
                                        undeformed mean n0
    intensity_at(n0)                    theta whose undeformed mean is n0
    from_mean_photon(n)                 spec from a mean photon number n
    """

    step: ClassVar[int] = 1
    linear_in_theta: ClassVar[bool] = False


def _probe(spec):
    """The spec itself; DomainError unless it belongs to one of FAMILIES."""
    if not isinstance(spec, _Probe):
        raise DomainError(f"unknown probe spec {spec!r}")
    return spec


@dataclass(frozen=True)
class _AlphaSqProbe(_Probe):
    """Shared part of the coherent and cat families, both set by |alpha|^2."""

    alpha_sq: float

    field: ClassVar[str] = "alpha_sq"
    pure: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha_sq) and self.alpha_sq > 0):
            raise DomainError(f"alpha_sq must be positive, got {self.alpha_sq}")

    @classmethod
    def from_mean_photon(cls, n_mean: float):
        """Spec at |alpha|^2 = n_mean, the undeformed mean of a coherent probe
        (a cat's is n_mean tanh n_mean)."""
        return cls(alpha_sq=n_mean)

    @property
    def n0(self) -> float:
        return self.alpha_sq

    @property
    def m_divergence_rate(self) -> float:
        return self.alpha_sq

    def log_weight_rows(self, kind: DeformationKind, eps, n_max: int, start: int = 0,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
        n = np.arange(start, n_max + 1, dtype=float)
        n *= math.log(self.alpha_sq)
        return np.subtract(n, _levels(kind, eps).log_delta(n_max)[:, start:], out=out)

    def eps_score(self, params: DeformationParams, n_max: int) -> np.ndarray:
        return -dlog_delta_values(params, n_max)

    def ln_theta_score(self, dist: PhotonDistribution) -> np.ndarray:
        return np.arange(dist.n_max + 1, dtype=float)

    @staticmethod
    def intensity_at(n0: float) -> float:
        return n0


@dataclass(frozen=True)
class CoherentSpec(_AlphaSqProbe):
    """Deformed coherent probe, parametrized by the intensity |alpha|^2."""

    family: ClassVar[str] = "coherent"
    family_class: ClassVar[str] = "coherent"

    @staticmethod
    def expansion_at(x: float, params: DeformationParams, regime: str) -> float:
        eps = params.epsilon
        if params.kind is DeformationKind.M:
            return x - 0.5 * eps * x * x
        return x - 0.5 * eps * eps * (x * x + x * x * x / 3.0)


@dataclass(frozen=True)
class ThermalSpec(_Probe):
    """Deformed thermal probe at inverse temperature beta (unit frequency)."""

    beta: float

    family: ClassVar[str] = "thermal"
    family_class: ClassVar[str] = "thermal"
    field: ClassVar[str] = "beta"
    pure: ClassVar[bool] = False
    m_divergence_rate: ClassVar[float] = math.inf
    linear_in_theta: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise DomainError(f"beta must be positive, got {self.beta}")

    @classmethod
    def from_mean_photon(cls, n_mean: float) -> "ThermalSpec":
        """Build from the undeformed mean photon number via beta =
        intensity_at(n) = ln(1 + 1/n), which is -ln n where 1/n overflows."""
        if not (math.isfinite(n_mean) and n_mean > 0):
            raise DomainError(f"n_mean must be positive, got {n_mean}")
        return cls(beta=cls.intensity_at(n_mean))

    @staticmethod
    def intensity_at(n0: float) -> float:
        """ln(1 + 1/n0), or -ln n0, equal to it in floats, where 1/n0
        overflows (n0 below about 5.6e-309)."""
        inverse = 1.0 / n0
        return math.log1p(inverse) if inverse < math.inf else -math.log(n0)

    @property
    def n_mean(self) -> float:
        """Undeformed mean photon number 1/(e^beta - 1), or e^-beta, equal to
        it in floats, where e^beta overflows."""
        try:
            return 1.0 / math.expm1(self.beta)
        except OverflowError:
            return math.exp(-self.beta)

    n0 = n_mean

    def log_weight_rows(self, kind: DeformationKind, eps, n_max: int, start: int = 0,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
        g = _levels(kind, eps).gamma(n_max + 1)[:, start:]
        with np.errstate(over="ignore"):
            lnw = np.add(g[:, 1:], g[:, :-1], out=out)
            lnw -= 1.0
            # beta, then 1/2: -(beta / 2) rounds to 0 at beta = 5e-324, and
            # 0 * inf at an overflowed gamma would give NaN, not -inf.
            lnw *= -self.beta
            lnw *= 0.5
        return lnw

    def eps_score(self, params: DeformationParams, n_max: int) -> np.ndarray:
        dg = dgamma_values(params, n_max + 1)
        s = np.add(dg[1:], dg[:-1])
        s *= -(self.beta / 2.0)
        return s

    def ln_theta_score(self, dist: PhotonDistribution) -> np.ndarray:
        return dist.log_probs.copy()  # ln w_n - ln Z, finite where p_n > 0

    @staticmethod
    def expansion_at(n_t: float, params: DeformationParams, regime: str) -> float:
        eps = params.epsilon
        if regime == "small" and n_t == 0.0:
            return 0.0  # the n -> 0 limit (n ln n -> 0), where e^-beta underflows
        if params.kind is DeformationKind.M:
            if regime == "large":
                return n_t - eps * (2.0 * n_t * n_t + 1.5 * n_t - 1.0 / 12.0)
            return n_t + 0.5 * eps * n_t * math.log(n_t)
        if regime == "large":
            return n_t - eps * eps * n_t * (3.0 * n_t * n_t + 4.5 * n_t + 1.5)
        return n_t + 0.5 * eps * eps * n_t * math.log(n_t)


@dataclass(frozen=True)
class CatSpec(_AlphaSqProbe):
    """Even superposition of +alpha and -alpha deformed coherent states."""

    family: ClassVar[str] = "cat"
    family_class: ClassVar[str] = "superposition"
    step: ClassVar[int] = 2

    @property
    def n0(self) -> float:
        return self.alpha_sq * math.tanh(self.alpha_sq)

    def log_weight_rows(self, kind: DeformationKind, eps, n_max: int, start: int = 0,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
        lnw = super().log_weight_rows(kind, eps, n_max, start, out)
        lnw[:, 1 - start % 2::2] = -np.inf  # the odd n
        return lnw

    @staticmethod
    def intensity_at(n0: float) -> float:
        """|alpha|^2 with x tanh x = n0, by Newton steps from n0 (or its root
        below 1): five or fewer reach rounding for every positive float n0."""
        x = n0 if n0 >= 1.0 else math.sqrt(n0)
        for _ in range(8):
            t = math.tanh(x)
            step = (x * t - n0) / (t + x * (1.0 - t * t))
            x -= step
            if abs(step) <= 1e-15 * x:
                break
        return x

    @staticmethod
    def expansion_at(n_c: float, params: DeformationParams, regime: str) -> float:
        """The paper's printed formulas.  The P "large" one, n_c - eps^2 n_c^2 / 2,
        lacks the coherent -eps^2 n_c^3 / 6 term that a large cat's mean follows:
        acceptance criterion 8 pins its halving ratio of 4, which that term makes 9.47."""
        eps = params.epsilon
        order = eps if params.kind is DeformationKind.M else eps * eps
        if regime == "large":
            return n_c - 0.5 * order * n_c * n_c
        return n_c - 0.5 * order * n_c


ProbeSpec = Union[CoherentSpec, ThermalSpec, CatSpec]

FAMILIES: Dict[str, Type[_Probe]] = {
    cls.family: cls for cls in (CoherentSpec, ThermalSpec, CatSpec)
}


@dataclass(frozen=True, eq=False)
class PhotonDistribution:
    """Truncated Fock-basis probability vector with a certified tail bound.

    probs[n] for n = 0..n_max sums to 1 - tail_bound; log_probs carries the
    same information without underflow in the far tail.  Both arrays are
    read-only, since build_distribution hands the same object to every
    caller that repeats its last build.
    """

    probs: np.ndarray
    log_probs: np.ndarray
    n_max: int
    tail_bound: float
    params: DeformationParams
    spec: ProbeSpec


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """ln sum exp(a) along the last axis, with scipy.special.logsumexp's formula.

    The maxima are split out of the sum, log1p(sum_{a != max} e^(a - max) / m)
    + ln m + max with m the number of maxima, so results match scipy bit for
    bit (golden-section MLE resolves epsilon finely enough to see the last
    bit).  Every NaN-free row has a maximum, so where the maxima number one
    per row, m = 1 and the division and ln m change no bit: they are skipped.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis=-1, keepdims=True)
    at_max = a == a_max
    with np.errstate(divide="ignore", invalid="ignore"):
        e = a - a_max  # one buffer: the maxima are set to e^-inf, the rest exponentiated
        np.copyto(e, -np.inf, where=at_max)
        np.exp(e, out=e)
        s = e.sum(axis=-1)
        a_max = a_max[..., 0]
        if np.count_nonzero(at_max) == s.size:
            return np.log1p(s) + a_max
        m = at_max.sum(axis=-1, dtype=float)
        return np.log1p(s / m) + np.log(m) + a_max


def _initial_n_max(n0: float) -> int:
    n0 = min(n0, HARD_CAP)  # beta near 0 puts n0 near the float maximum
    return int(max(16, math.ceil(8.0 * (n0 + math.sqrt(n0)))))


def _certify(lnw_sup: np.ndarray) -> Optional[float]:
    """Certified log tail bound beyond the last retained support weight, or
    None where the geometric majorant does not apply.

    It applies when the successive log-ratios are non-increasing (up to
    slack) and the boundary ratio is < 1.  A build passes each round only
    the support entries that no earlier round certified, with the two before
    them: the ratio pair across that junction is checked, and every pair
    before it has been already.  A row past its trim point passes the same
    entries in every round, so a None there is final.
    """
    diffs = lnw_sup[1:] - lnw_sup[:-1]  # np.diff, without its dispatch
    if diffs.size == 0 or (diffs[1:] > diffs[:-1] + _RATIO_SLACK).any():
        return None
    r_log = float(diffs[-1]) + _RATIO_SLACK
    if r_log >= 0.0:
        return None
    # tail <= w_last * r / (1 - r)
    return float(lnw_sup[-1]) + r_log - math.log1p(-math.exp(r_log))


def build_distribution(
    spec: ProbeSpec,
    params: DeformationParams,
    tol: float = DEFAULT_TOL,
) -> PhotonDistribution:
    """Certified photon distribution of any probe family.

    The last build is kept: a call that repeats it, such as the report on a
    spec that calibrate_intensity has just solved, gets the same read-only
    distribution back without rebuilding.  Errors are not kept, and
    build_distribution.cache_clear() drops the kept build, together with the
    level vectors that algebra keeps for the last epsilon.

    Those vectors are shared by every build at one (kind, epsilon), whatever
    the intensity, and a longer support only appends their new segment: each
    entry of ln [j] depends on its own j alone, gamma_j is its elementwise
    exponential and ln Delta_j a running sum, so a build reads the same bits
    as from a fresh evaluation, and its result never depends on what was
    built before.
    """
    _check_normalizable(spec, params)
    if not (0.0 < tol <= 1e-6):
        raise DomainError(f"tol must lie in (0, 1e-6], got {tol}")
    # -0.0 == 0.0 and both hash alike, so the sign of epsilon joins the key:
    # a hit never hands back the other zero in dist.params.
    return _build_last(spec, params, tol, math.copysign(1.0, params.epsilon))


def _tail_surely_above(peak: float, size: int, ln_tail: float, tol: float) -> bool:
    """Whether the certified tail must exceed tol, without summing the weights.

    The total of `size` log-weights at most `peak` is at most size e^peak,
    so ln_tail - ln_total is at least what this bound gives; the margin
    covers the rounding of both logs, so the exact test would fail too.
    """
    ln_bound = float(np.logaddexp(peak + math.log(size), ln_tail))
    return ln_tail - ln_bound > math.log(tol) + 1e-6


def _last_true(mask: np.ndarray) -> int:
    """Position of the last True of a 1-D mask, 0 when there is none.

    numpy bools are the bytes 0 and 1, so a reverse byte search finds it
    from the end, far faster than argmax over the reversed view.
    """
    return max(mask.tobytes().rfind(1), 0)


@functools.lru_cache(maxsize=1)
def _build_last(spec: ProbeSpec, params: DeformationParams, tol: float,
                eps_sign: float) -> PhotonDistribution:
    """Support search of build_distribution, on checked arguments.

    The rounds double n_max from _initial_n_max up to HARD_CAP and share one
    weight row.  It grows by segments of at most its current length, the
    first ending near 2 n0, and each segment only appends its columns, with
    the bits of a whole-row evaluation.  A segment updates the peak and
    `top`, the last support entry above peak - _UNDERFLOW_LOG (a new peak
    lies in the segment, and so does the last entry above its threshold);
    _certify checks each round's new support entries from their junction.

    The row stops growing once an entry past its peak lies below that
    threshold: with non-increasing ratios, which the tail certificate
    assumes anyway, no later entry rises above it again.  Such a row is
    final: every later round would read the same trimmed prefix and the same
    junction, and fail as this one does, so a failing round raises the
    HARD_CAP error at once.  Each round reaches one outcome: the finished
    distribution, or a failure that doubles n_max or, at HARD_CAP or on a
    final row, raises.
    """
    step, kind, eps = spec.step, params.kind, [params.epsilon]
    n_max = _initial_n_max(spec.n0)
    first = max(n_max // 4, _MIN_SEGMENT)
    lnw, have, peak, top, checked, crossed = np.empty(0), 0, -math.inf, -1, 1, False
    while True:
        n_max = min(n_max + n_max % step, HARD_CAP)  # even support needs even n_max
        while not crossed and have <= n_max:
            end = min(max(2 * have - 1, first), n_max)
            if len(lnw) <= end:  # one buffer per round
                grown = np.empty(n_max + 1)
                grown[:have] = lnw[:have]
                lnw = grown
            spec.log_weight_rows(kind, eps, end, have, lnw[None, have:end + 1])
            base = -(-have // step)  # support index of the first new support entry
            have = end + 1
            seg = lnw[base * step:have:step]
            peak = max(peak, float(seg.max()))
            above = (seg > peak - _UNDERFLOW_LOG).tobytes().rfind(1)
            if above >= 0:
                top = base + above
            crossed = top < end // step  # an entry past the peak is below the threshold
        # Trim underflowed tail entries before ratio analysis, keeping the
        # two support points that _certify needs for one ratio.
        last = max(top, 1)
        trimmed = lnw[::step][: last + 1]
        ln_tail = _certify(trimmed[checked - 1:])
        if ln_tail is None:
            failure = f"state sum not certifiably convergent within n_max = {HARD_CAP}"
        else:
            checked = last
            if n_max >= HARD_CAP or not _tail_surely_above(peak, len(trimmed), ln_tail, tol):
                ln_total = float(np.logaddexp(_logsumexp(trimmed), ln_tail))
                if math.exp(ln_tail - ln_total) <= tol:
                    return _finalize(lnw, trimmed, ln_tail, ln_total, tol, params, spec)
            failure = f"tail tolerance {tol} not reached at hard cap n_max = {HARD_CAP}"
        if crossed or n_max >= HARD_CAP:
            raise DivergenceError(f"{failure} ({type(spec).__name__}, "
                                  f"kind={params.kind.value}, epsilon={params.epsilon})")
        n_max = min(2 * n_max, HARD_CAP)


def _clear_kept() -> None:
    """Drop the kept build and the kept level vectors of algebra."""
    _build_last.cache_clear()
    _kept_levels.cache_clear()


build_distribution.cache_clear = _clear_kept


def _finalize(
    lnw: np.ndarray,
    lnw_sup: np.ndarray,
    ln_tail: float,
    ln_total: float,
    tol: float,
    params: DeformationParams,
    spec: ProbeSpec,
) -> PhotonDistribution:
    """Trim the certified support down to the smallest n_max meeting tol."""
    # q = normalized support weights (the trimmed support lies within
    # _UNDERFLOW_LOG of the peak, so this runs in the linear domain).
    # acc[k] = the certified beyond-support tail plus the last k of q,
    # summed from the end: the mass strictly after position len(q) - 1 - k.
    # A rounded sum of non-negative floats never decreases, so acc is
    # sorted and the cut is found by binary search: the position of the
    # last acc[k] <= tol, else the last position.  acc[k] is at least each
    # of its terms, so it is summed only back to the last q above tol.
    size = len(lnw_sup)
    q = np.subtract(lnw_sup, ln_total)
    with np.errstate(under="ignore"):
        np.exp(q, out=q)
    last = _last_true(q > tol)
    acc = np.empty(size - last)
    acc[0] = math.exp(ln_tail - ln_total)
    acc[1:] = q[:last:-1]
    np.cumsum(acc, out=acc)
    met = int(np.searchsorted(acc, tol, side="right"))
    cut = size - met if met else size - 1
    n_max = cut * spec.step
    tail_bound = float(acc[size - 1 - cut])

    log_probs = lnw[: n_max + 1] - ln_total
    probs = np.zeros(n_max + 1)
    probs[::spec.step] = q[: cut + 1]
    probs.flags.writeable = log_probs.flags.writeable = False
    return PhotonDistribution(
        probs=probs,
        log_probs=log_probs,
        n_max=n_max,
        tail_bound=tail_bound,
        params=params,
        spec=spec,
    )


def _check_normalizable(spec: ProbeSpec, params: DeformationParams) -> None:
    """Reject non-specs, and configurations whose state sum provably diverges.

    M deformation with epsilon < 0 bounds the q-numbers by 1/|epsilon|, so
    coherent weights decay geometrically with limit ratio |alpha|^2
    |epsilon| and thermal weights approach a positive constant: the sum
    diverges once the family's m_divergence_rate times |epsilon| reaches 1.
    """
    _probe(spec)
    eps = params.epsilon
    rate = spec.m_divergence_rate
    if params.kind is DeformationKind.M and eps < 0.0 and rate * -eps >= 1.0 - 1e-12:
        raise DivergenceError(
            f"M-deformed {spec.family} state is non-normalizable at epsilon = {eps}: "
            f"its weights diverge once {rate:g} |epsilon| >= 1"
        )


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b of two vectors, summed in an order that no thread count changes.

    The vectors are taken in _DOT_BLOCK-entry blocks, each a single-threaded
    dot (a.dot(b) is the BLAS call of a @ b, with less dispatch), and the
    block sums are added from the first to the last.  Up to _DOT_BLOCK
    entries that is one block, with the bits of a @ b.
    """
    total = 0.0
    for i in range(0, len(a), _DOT_BLOCK):
        total += float(a[i:i + _DOT_BLOCK].dot(b[i:i + _DOT_BLOCK]))
    return total


def mean_photon(dist: PhotonDistribution) -> float:
    """Mean photon number sum_n n p_n of a truncated distribution.

    Truncation contributes an error of at most n_max * tail_bound.
    """
    return _dot(np.arange(dist.n_max + 1, dtype=float), dist.probs)


def mean_photon_expansion(
    spec: ProbeSpec,
    params: DeformationParams,
    regime: str = "large",
) -> float:
    """Leading-order mean-photon prediction for comparison with the exact value.

    Coherent states have a single first-order formula; thermal and cat
    probes expose their large- and small-intensity asymptotic branches via
    `regime` ("large" or "small").
    """
    if regime not in ("large", "small"):
        raise DomainError(f"regime must be 'large' or 'small', got {regime!r}")
    return _probe(spec).expansion_at(spec.n0, params, regime)


def _fixed_support_weight_rows(
    spec: ProbeSpec,
    kind: DeformationKind,
    eps: np.ndarray,
    n_support: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """ln w_n for n = 0..n_support, one row per epsilon in `eps`, and each
    row's ln Z, so that ln p_n = ln w_n - ln Z.

    Plumbing for likelihood evaluation, where nearby states must share one
    outcome support.  The caller checks normalizability and sizes n_support
    so the omitted mass is negligible.  Each row is normalized over its
    support columns (the even ones for cat states), exactly as a one-row
    call.  A thermal level whose gamma overflowed has ln w = -inf, which
    _logsumexp adds as an exact zero (e^-inf); beta gamma is past e^9.8
    before gamma overflows, so such a level had no weight anyway.
    """
    lnw = spec.log_weight_rows(kind, eps, n_support)
    return lnw, _logsumexp(lnw[:, ::spec.step])
