"""q-number algebra for the M and P boson deformations.

Two deformations of the oscillator algebra are supported, both written in
terms of q = 1 + epsilon:

  M:  a a+ - q a+ a = 1        basic q-number      [n] = (q^n - 1)/(q - 1)
  P:  a a+ - q a+ a = q^-N     symmetric q-number  [n] = (q^n - q^-n)/(q - q^-1)

Everything downstream (coherent-state weights, thermal Boltzmann factors)
is built from the per-level factors [n], their running log-product
Delta_n = [1][2]...[n] (the deformed factorial), and the level coefficients
gamma_n, which for both deformations coincide with [n].

Numerical strategy: all products are carried in the log domain (Delta_n
grows super-factorially and overflows float64 near n ~ 170 even at
epsilon = 0), and the removable singularity of [n] at epsilon = 0 is
evaluated through expm1/log1p, with epsilon = 0 special-cased to the
undeformed limits.  The epsilon-derivatives cancel near epsilon = 0 in
closed form, so there a Taylor series takes over (dlog_q_number_values).
The level vectors of the last (kind, epsilon) asked about are kept and
grown by new segments only (_Levels): a calibrated point evaluates one
epsilon at many intensities.  Every weight row reads its levels from
_Levels; the rows of many epsilons that a lockstep likelihood asks for
are computed by the same code and not kept.
The product forms and small-epsilon expansions that the tests check these
values against are not part of this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "DeformationKind",
    "DeformationParams",
    "q_number",
    "log_delta",
    "dlog_q_number_values",
    "dlog_delta_values",
    "dgamma_values",
]


class DeformationKind(Enum):
    """Which deformed commutation relation governs the coefficient formulas."""

    M = "M"
    P = "P"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class DeformationParams:
    """Deformation kind plus strength epsilon, with q = 1 + epsilon > 0."""

    kind: DeformationKind
    epsilon: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, DeformationKind):
            raise DomainError(f"kind must be a DeformationKind, got {self.kind!r}")
        eps = float(self.epsilon)
        if not math.isfinite(eps) or eps <= -1.0:
            raise DomainError(f"epsilon must be finite and > -1, got {self.epsilon}")
        object.__setattr__(self, "epsilon", eps)


def _log_abs_expm1(x: np.ndarray) -> np.ndarray:
    """ln|e^x - 1| written over the float array x: expm1, abs and log of every
    entry, then x + ln(1 - e^-x) from a copy of the entries above 33, where
    e^x may overflow (looked for only when the largest entry is above 33).
    Each step is elementwise, bit for bit per branch."""
    big = x > 33.0 if x.size and x.max() > 33.0 else None
    if big is not None:
        xb = x[big]
    with np.errstate(over="ignore", divide="ignore"):
        np.expm1(x, out=x)
        np.abs(x, out=x)
        np.log(x, out=x)
    if big is not None:
        xb += np.log1p(-np.exp(-xb))
        x[big] = xb
    return x


def _log_q_rows(kind: DeformationKind, eps: np.ndarray, n_max: int,
                start: int = 0, out: Optional[np.ndarray] = None) -> np.ndarray:
    """ln [j] for j = start..n_max, one row per epsilon (column j = 0 holds -inf),
    written into `out` when one is given.

    Every row is bit-identical to evaluating that epsilon alone: the
    per-epsilon constants go through scalar math.log1p/math.log, and the
    rest is elementwise.  So every entry depends on its own j and epsilon
    only, and the columns of a call from `start` are bit for bit those of
    a call from 0; _Levels grows its rows by such segments, each written
    straight into the grown buffer.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    eps = np.asarray(eps, dtype=float)
    if out is None:
        out = np.empty((eps.size, n_max + 1 - start))
    first = max(start, 1)
    if start < first:
        out[:, 0] = -np.inf
    if n_max < first:
        return out
    el = eps.tolist()  # scalar math on each epsilon, as on one alone
    dens = el if kind is DeformationKind.M else [e * (2.0 + e) for e in el]
    L = np.fromiter(map(math.log1p, el), float, len(el))[:, None]
    log_den = np.array([math.log(abs(d)) if d else 0.0 for d in dens])[:, None]
    j = np.arange(first, n_max + 1, dtype=float)
    body = out[:, first - start:]
    if kind is DeformationKind.M:
        _log_abs_expm1(np.multiply(j, L, out=body))
    else:
        _log_abs_expm1(np.multiply(2.0 * j, L, out=body))
        body += (1.0 - j) * L
    body -= log_den
    if 0.0 in el:
        body[eps == 0.0] = np.log(j)
    return out


class _Levels:
    """gamma_j = [j] and ln Delta_j for j = 0..n, one row per epsilon of eps.

    Only the last single epsilon asked about is kept (_kept_levels), since
    between the Newton iterates of a calibrated point only the intensity
    changes.  Each vector is grown on demand by its new columns only:
    _log_q_rows writes their ln [j] into the grown buffer from a start
    column, gamma exponentiates them in place, and ln Delta continues each
    row's cumulative sum from its last kept entry.  A new vector is its
    j = 0 column, gamma_0 = ln Delta_0 = 0, so its first growth is that run
    from column 0.
    Every entry is elementwise or a sequential sum along its row, so each
    row has the bits of a fresh evaluation of its epsilon alone.  The arrays
    are read-only; the public functions return copies.  Callers in two
    threads can at worst compute a segment twice: every array stored holds
    the same values.
    """

    def __init__(self, kind: DeformationKind, eps: np.ndarray) -> None:
        self.kind, self.eps = kind, eps
        start = np.zeros((len(eps), 1))  # gamma_0 = ln Delta_0 = 0
        start.flags.writeable = False
        self._gamma = self._log_delta = start

    def _grow(self, name: str, n_max: int, fill) -> np.ndarray:
        """Rows `name` for j = 0..n_max.  Longer rows are one new buffer:
        _log_q_rows writes ln [j] into it from the last kept column on, and
        fill(run, last) turns that run into values, given the last kept
        column.  New rows hold the j = 0 column only, so their first growth
        runs from column 0."""
        if n_max < 0:
            raise DomainError("n_max must be >= 0")
        have = getattr(self, name)
        width = have.shape[1]
        if width > n_max:
            return have[:, : n_max + 1]
        grown = np.empty((len(self.eps), n_max + 1))
        grown[:, :width - 1] = have[:, :-1]
        fill(_log_q_rows(self.kind, self.eps, n_max, width - 1, out=grown[:, width - 1:]),
             have[:, -1:])
        grown.flags.writeable = False
        setattr(self, name, grown)
        return grown

    def gamma(self, n_max: int) -> np.ndarray:
        def fill(run, last):
            # exp of ln [j] at the last kept column gives its kept entry back,
            # bit for bit; gamma_j beyond float range is +inf
            with np.errstate(over="ignore"):
                np.exp(run, out=run)

        return self._grow("_gamma", n_max, fill)

    def log_delta(self, n_max: int) -> np.ndarray:
        def fill(run, last):  # each running sum continues from its last kept entry
            run[:, :1] = last
            np.cumsum(run, axis=1, out=run)

        return self._grow("_log_delta", n_max, fill)


def _levels(kind: DeformationKind, eps) -> _Levels:
    """The level rows of (kind, eps), one per epsilon of the sequence eps.

    Rows of one epsilon are kept (_kept_levels), replacing those of any
    other epsilon.  Rows of several epsilons, which only lockstep
    likelihoods ask for, each call at new epsilons, are computed fresh and
    not kept: they leave the kept rows of the last build in place."""
    eps = np.array(eps, dtype=float)
    if len(eps) != 1:
        return _Levels(kind, eps)
    return _kept_levels(kind, eps.tobytes())


@functools.lru_cache(maxsize=1)
def _kept_levels(kind: DeformationKind, eps_bytes: bytes) -> _Levels:
    """The rows of one epsilon, keyed on its bits, so -0.0 and 0.0 are kept
    apart."""
    return _Levels(kind, np.frombuffer(eps_bytes))


# Taylor coefficients of K(u) = 1 + c_1 u + sum_k c_2k u^2k, the function in
# dlog_q_number_values: c_1 = 1/2 and c_2k = B_2k / (2k)! for M, where
# K(u) = u / (1 - e^-u); c_1 = 0 and c_2k = 4^k B_2k / (2k)! for P, where
# K(u) = u coth u.  B_2..B_24 reach double precision for |u| < 1/2 (the
# radii of convergence are 2 pi and pi).
_BERNOULLI_EVEN = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730,
)
_K_LINEAR = {DeformationKind.M: 0.5, DeformationKind.P: 0.0}
_K_EVEN = {
    kind: tuple((1.0 if kind is DeformationKind.M else 4.0**k) * b / math.factorial(2 * k)
                for k, b in enumerate(_BERNOULLI_EVEN, start=1))
    for kind in DeformationKind
}
# The series serves |epsilon| below this.  It would serve any epsilon;
# above it the closed forms still keep 9 digits, and with them the bits
# of every result computed there (Monte Carlo CRB ratios move by 3e-6
# when F moves in its last bit, through the MLE bracket).
_SERIES_EPS = 1e-3


def _k_even_sum(kind: DeformationKind, w):
    """sum_k c_2k w^(k-1), by Horner's rule."""
    coeffs = _K_EVEN[kind]
    acc = coeffs[-1] * w  # one new array for an array w, updated in place
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= w
        acc += c
    return acc


def dlog_q_number_values(params: DeformationParams, n_max: int) -> np.ndarray:
    """d/d epsilon of ln [j] for j = 0..n_max (index 0 is unused, set to 0).

    Both kinds give (K(jL) - K(L)) / (L (1 + eps)) with L = ln(1 + eps), which
    the closed forms below evaluate as a difference of two O(1/eps) terms:
    they lose about log10(1/|jL|) digits for M and twice that for P.  For
    |eps| < 1e-3 the entries with |jL| < 1/2 are therefore summed from the
    Taylor series of K instead, c_1 (j-1) + L (j^2 S(j^2 L^2) - S(L^2)) with
    S(w) = sum_k c_2k w^(k-1), in which nothing cancels; eps = 0 gives the
    limits (j-1)/2 for M and 0 for P.  At |eps| >= 1e-3 the closed forms
    keep at least 9 digits (2.4e-10 relative for P at eps = -1e-3), and the
    results computed there keep the bits they always had.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    kind, eps = params.kind, params.epsilon
    out = np.zeros(n_max + 1)
    j = np.arange(1, n_max + 1, dtype=float)
    L = math.log1p(eps)
    m = 0
    if abs(eps) < _SERIES_EPS:
        m = int(np.count_nonzero(np.abs(j * L) < 0.5))  # |jL| grows with j
        js = j[:m]
        u = js * L
        out[1:m + 1] = (_K_LINEAR[kind] * (js - 1.0) + L * (
            js * js * _k_even_sum(kind, u * u) - _k_even_sum(kind, L * L))) / (1.0 + eps)
    if m == n_max:
        return out
    j = j[m:]
    with np.errstate(over="ignore"):  # q^-j overflows for eps < 0: the term tends to 0
        if kind is DeformationKind.M:
            u = j * L
            out[m + 1:] = j / ((1.0 + eps) * (-np.expm1(-u))) - 1.0 / eps
        else:
            v = 2.0 * j * L
            out[m + 1:] = (
                (1.0 - j) / (1.0 + eps)
                + 2.0 * j / ((1.0 + eps) * (-np.expm1(-v)))
                - 2.0 * (1.0 + eps) / (eps * (2.0 + eps))
            )
    return out


def dlog_delta_values(params: DeformationParams, n_max: int) -> np.ndarray:
    """d/d epsilon of ln Delta_n for n = 0..n_max: the running sum of
    d ln [j] / d epsilon, whose entry 0 is 0."""
    return np.cumsum(dlog_q_number_values(params, n_max))


def dgamma_values(params: DeformationParams, n_max: int) -> np.ndarray:
    """d/d epsilon of gamma_n = [n] for n = 0..n_max: the kept gamma row times
    d ln [n] / d epsilon, whose entries 0 are both 0."""
    gamma = _levels(params.kind, [params.epsilon]).gamma(n_max)[0]
    return gamma * dlog_q_number_values(params, n_max)


def q_number(params: DeformationParams, n: int) -> float:
    """The q-number [n] for the given deformation; [0] = 0, [1] = 1.

    At epsilon = 0 the undeformed limit [n] = n is returned exactly; else
    e^(ln [n]) of column n of _log_q_rows (-inf at n = 0), the gamma_n of
    every build bit for bit, and +inf where [n] exceeds the float range.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if params.epsilon == 0.0:
        return float(n)
    with np.errstate(over="ignore"):
        return float(np.exp(_log_q_rows(params.kind, [params.epsilon], n, n)[0, 0]))


def log_delta(params: DeformationParams, n: int) -> float:
    """ln Delta_n, the log of the deformed factorial; log_delta(., 0) = 0."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return float(_levels(params.kind, [params.epsilon]).log_delta(n)[0, n])
