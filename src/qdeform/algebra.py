"""q-number algebra for the M and P boson deformations.

Two deformations of the oscillator algebra are supported, both written in
terms of q = 1 + epsilon:

  M:  a a+ - q a+ a = 1        basic q-number      [n] = (q^n - 1)/(q - 1)
  P:  a a+ - q a+ a = q^-N     symmetric q-number  [n] = (q^n - q^-n)/(q - q^-1)

Both are [n]_{p,q} = p^(1-n) [n]_M(pq) at p = q^b, with b = 0 for M and
b = 1 for P, so [n]_P(q) = q^(1-n) [n]_M(q^2).  With L = ln(1 + epsilon)
each kernel is written once in b:

  ln [n] = ln|e^((1+b) n L) - 1| + b (1 - n) L - ln|epsilon (1 + b + b epsilon)|

Coherent and thermal weights are built from [n] = gamma_n and the deformed
factorial Delta_n = [1][2]...[n], carried in the log domain (Delta_n
overflows float64 near n ~ 170 even at epsilon = 0); [n] goes through
expm1/log1p, and at epsilon = 0 is its limit n.  Near epsilon = 0 the
closed-form epsilon-derivatives cancel, so a Taylor series takes over
(dlog_q_number_values).  The level rows of the last (kind, epsilons) are
kept and grown by new segments only (_Levels).  The product forms and
small-epsilon expansions the tests check against are not in this module.
"""

from __future__ import annotations

import functools
import math
import operator
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

    def __init__(self, value: str) -> None:
        # the exponent b of p = q^b in [n]_{p,q}: 0 for M, 1 for P
        self._b = {"M": 0, "P": 1}[value]

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


def _count(value, name: str, least: int) -> int:
    """value as an int by operator.index, which takes numpy integers too;
    DomainError for anything else, such as a float, or below `least`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value


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

    The per-epsilon constants go through scalar math.log1p/math.log and the
    rest is elementwise, so every entry depends on its own j and epsilon
    only: a row has the bits of its epsilon alone, and the columns of a call
    from `start` the bits of a call from 0.
    """
    n_max = _count(n_max, "n_max", 0)
    eps = np.asarray(eps, dtype=float)
    if out is None:
        out = np.empty((eps.size, n_max + 1 - start))
    first = max(start, 1)
    if start < first:
        out[:, 0] = -np.inf
    b = kind._b
    el = eps.tolist()  # scalar math on each epsilon, as on one alone
    L = np.fromiter(map(math.log1p, el), float, len(el))[:, None]
    log_den = np.array([math.log(abs(d)) if d else 0.0
                        for d in (e * (1 + b + b * e) for e in el)])[:, None]
    j = np.arange(first, n_max + 1, dtype=float)
    body = out[:, first - start:]
    # j (2L) is (2j) L bit for bit: scaling by a power of two is exact
    _log_abs_expm1(np.multiply(j, (1 + b) * L, out=body))
    if b:
        body += (1.0 - j) * L
    body -= log_den
    if 0.0 in el:
        body[eps == 0.0] = np.log(j)
    return out


class _Levels:
    """gamma_j = [j] and ln Delta_j for j = 0..n, one row per epsilon of eps.

    Only the rows of the last epsilons asked about are kept (_kept_levels):
    between the Newton iterates of a calibrated point only the intensity
    changes.  Each vector is grown by its new columns only (_grow): gamma
    exponentiates their ln [j] in place, and ln Delta continues each row's
    cumulative sum from its last kept entry.  So each row has the bits of a
    fresh evaluation of its epsilon alone.  The arrays are read-only; the
    public functions return copies.  Callers in two threads can at worst
    compute a segment twice: every array stored holds the same values.
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
        n_max = _count(n_max, "n_max", 0)
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
    """The level rows of (kind, eps), one per epsilon of the sequence eps,
    kept (_kept_levels) until another sequence is asked for."""
    return _kept_levels(kind, np.array(eps, dtype=float).tobytes())


@functools.lru_cache(maxsize=1)
def _kept_levels(kind: DeformationKind, eps_bytes: bytes) -> _Levels:
    """The rows of the last epsilon sequence, keyed on its bits, so -0.0 and
    0.0 are kept apart."""
    return _Levels(kind, np.frombuffer(eps_bytes))


# K(u) = 1 + c_1 u + sum_k c_2k u^2k of dlog_q_number_values is u / (1 - e^-u)
# for M and K_M(2u) - u = u coth u for P: c_1 = (1 - b)/2 and
# c_2k = (1 + b)^2k B_2k / (2k)!.  B_2..B_24 reach double precision for
# |u| < 1/2 (the radii of convergence are 2 pi and pi).
_BERNOULLI_EVEN = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730,
)
_K_EVEN = {
    kind: tuple((1 + kind._b) ** (2 * k) * bernoulli / math.factorial(2 * k)
                for k, bernoulli in enumerate(_BERNOULLI_EVEN, start=1))
    for kind in DeformationKind
}
# The series serves |epsilon| below this, though it would serve any; above
# it the closed form keeps 9 digits and the bits of every result computed
# there (a CRB ratio moves by 3e-6 when F moves in its last bit).
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

    With L = ln(1 + eps) this is (K(jL) - K(L)) / (L (1 + eps)), and its
    closed form, evaluated in this order of operations, is

      (1-j) b/(1+eps) + (1+b) j/((1+eps)(1 - e^(-(1+b)jL)))
        - (1+b)(1+b eps)/(eps (1+b+b eps)).

    At b = 0 each extra factor is an exact 1 and the b term is skipped.  It
    loses about (1 + b) log10(1/|jL|) digits to cancellation, so for
    |eps| < 1e-3 the entries with |jL| < 1/2 are summed from the Taylor
    series instead, c_1 (j-1) + L (j^2 S(j^2 L^2) - S(L^2)) with
    S(w) = sum_k c_2k w^(k-1); eps = 0 gives (j-1)/2 for M and 0 for P.  At
    |eps| >= 1e-3 the closed form keeps 9 digits (2.4e-10 relative for P at
    eps = -1e-3), and the results computed there keep the bits they had.
    """
    n_max = _count(n_max, "n_max", 0)
    kind, eps, b = params.kind, params.epsilon, params.kind._b
    out = np.zeros(n_max + 1)
    j = np.arange(1, n_max + 1, dtype=float)
    L = math.log1p(eps)
    m = 0
    if abs(eps) < _SERIES_EPS:
        m = int(np.count_nonzero(np.abs(j * L) < 0.5))  # |jL| grows with j
        js = j[:m]
        u = js * L
        out[1:m + 1] = ((1 - b) / 2 * (js - 1.0) + L * (
            js * js * _k_even_sum(kind, u * u) - _k_even_sum(kind, L * L))) / (1.0 + eps)
    if m == n_max:
        return out
    j, body = j[m:], out[m + 1:]
    with np.errstate(over="ignore"):  # q^-j overflows for eps < 0: the term tends to 0
        np.expm1(np.multiply(j, -(1 + b) * L, out=body), out=body)
        body *= -(1.0 + eps)
        np.divide((1 + b) * j, body, out=body)
        if b:
            body += (1.0 - j) * b / (1.0 + eps)
        body -= (1 + b) * (1.0 + b * eps) / (eps * (1 + b + b * eps))
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
    n = _count(n, "n", 0)
    if params.epsilon == 0.0:
        return float(n)
    with np.errstate(over="ignore"):
        return float(np.exp(_log_q_rows(params.kind, [params.epsilon], n, n)[0, 0]))


def log_delta(params: DeformationParams, n: int) -> float:
    """ln Delta_n, the log of the deformed factorial; log_delta(., 0) = 0."""
    n = _count(n, "n", 0)
    return float(_levels(params.kind, [params.epsilon]).log_delta(n)[0, n])
