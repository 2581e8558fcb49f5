"""Levin and Weniger (S) sequence transformations.

Both arise from the model sequence s_n = s + omega_n z_n by annihilating the
correction term z_n with a weighted k-th forward difference:

    Levin:   z_n a truncated series in powers of 1/(beta+n),
             weights (beta+n+j)^(k-1)
    Weniger: z_n a truncated factorial series in beta+n,
             weights (beta+n+j)_(k-1), each from the last by the ratio
             (beta+n+j+k-1)/(beta+n+j)

The textbook weights carry a common factor 1/(beta+n+k)^(k-1), resp.
1/(beta+n+k)_(k-1), which cancels from the ratio and is left out.  Each
table cell (k, n) is evaluated directly from the binomial sums over
s_n..s_{n+k} and omega_n..omega_{n+k}: exactly when that window and beta are
rational (int or Fraction), rounding only the final numerator and
denominator, once each; otherwise in mpf at working precision plus 10 guard
digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, prod
from typing import Callable, Sequence

import mpmath

from .errors import DomainError, EstimateError, InstabilityError
from .series import PrecisionContext, Real, to_mpf

__all__ = [
    "TransformInput",
    "levin",
    "weniger_s",
    "remainder_estimates",
    "transform_table",
]


def _exact_or_mpf(x: Real):
    """x itself when it is rational (int or Fraction), else x as an mpf."""
    return x if isinstance(x, (int, Fraction)) else to_mpf(x)


@dataclass(frozen=True)
class TransformInput:
    """Partial sums, remainder estimates, and the shift parameter beta > 0."""

    s: tuple
    omega: tuple
    beta: Real = 1

    def __post_init__(self):
        if len(self.omega) < len(self.s):
            raise DomainError("need a remainder estimate for every partial sum")
        if float(self.beta) <= 0:
            raise DomainError(f"beta must be > 0, got {self.beta}")

    @classmethod
    def from_terms(
        cls, terms: Sequence, strategy: str = "first_neglected", beta: Real = 1
    ) -> "TransformInput":
        """Partial sums and remainder estimates of a term list; rational terms stay exact."""
        ts = [_exact_or_mpf(t) for t in terms]
        s = tuple(accumulate(ts))
        omega = remainder_estimates(ts, strategy, beta)
        n = min(len(s), len(omega))
        return cls(s[:n], omega[:n], beta)


def remainder_estimates(terms: Sequence, strategy: str, beta: Real = 1) -> tuple:
    """Build omega_n from the term sequence a_n (rational terms stay exact).

    first_neglected: omega_n = a_{n+1} (natural for alternating series; the
    returned sequence is one shorter than the input).
    scaled_term:     omega_n = (beta+n) a_n.
    """
    ts = [_exact_or_mpf(t) for t in terms]
    if strategy == "first_neglected":
        out = ts[1:]
    elif strategy == "scaled_term":
        b = _exact_or_mpf(beta)
        out = [(b + n) * t for n, t in enumerate(ts)]
    else:
        raise DomainError(f"unknown remainder-estimate strategy {strategy!r}")
    if any(w == 0 for w in out):
        raise EstimateError("zero term produced a zero remainder estimate")
    return tuple(out)


def _weighted_ratio(
    inp: TransformInput,
    k: int,
    n: int,
    weights: Callable,
    prec: PrecisionContext,
) -> mpmath.mpf:
    """sum_j c_j s_{n+j} / sum_j c_j, c_j = (-1)^j C(k, j) w_j / omega_{n+j},
    with the k+1 weights w_j = weights(beta + n, k)."""
    if k < 0 or n < 0:
        raise DomainError(f"need k, n >= 0, got k={k}, n={n}")
    if n + k >= len(inp.s):
        raise DomainError(
            f"cell (k={k}, n={n}) needs {n + k + 1} entries, have {len(inp.s)}"
        )
    with prec.workdps(10):
        window = (inp.beta, *inp.s[n : n + k + 1], *inp.omega[n : n + k + 1])
        exact = all(isinstance(x, (int, Fraction)) for x in window)
        beta, *rest = map(Fraction if exact else to_mpf, window)
        s, omega = rest[: k + 1], rest[k + 1 :]
        num = den = scale = 0
        for j, w in enumerate(weights(beta + n, k)):
            if omega[j] == 0:
                raise EstimateError(f"omega[{n + j}] is zero")
            c = (-1) ** j * comb(k, j) * w / omega[j]
            num += c * s[j]
            den += c
            scale = max(scale, abs(c))
        # one rounding each; mpf and Fraction do not compare, so test after it
        num, den, scale = to_mpf(num), to_mpf(den), to_mpf(scale)
        if abs(den) < prec.tol(6) * scale:
            raise InstabilityError(
                f"denominator vanished at (k={k}, n={n}): |den|={abs(den)}"
            )
        return num / den


def _power_weights(b, k: int) -> list:
    """(b+j)^(k-1) for j = 0..k (all 1 when k <= 1)."""
    return [(b + j) ** max(k - 1, 0) for j in range(k + 1)]


def _pochhammer_weights(b, k: int) -> list:
    """(b+j)_(k-1) for j = 0..k (all 1 when k <= 1), each from the last by a ratio."""
    m = max(k - 1, 0)
    out = [prod((b + i for i in range(m)), start=1)]
    for j in range(k):
        out.append(out[-1] * (b + j + m) / (b + j))
    return out


def levin(
    inp: TransformInput, k: int, n: int = 0, prec: PrecisionContext = PrecisionContext()
) -> mpmath.mpf:
    """Levin transformation L_k^(n); exact for power-type correction terms."""
    return _weighted_ratio(inp, k, n, _power_weights, prec)


def weniger_s(
    inp: TransformInput, k: int, n: int = 0, prec: PrecisionContext = PrecisionContext()
) -> mpmath.mpf:
    """Weniger S transformation S_k^(n); exact for factorial-type correction terms."""
    return _weighted_ratio(inp, k, n, _pochhammer_weights, prec)


_METHODS = {"levin": levin, "weniger": weniger_s}


def transform_table(
    inp: TransformInput,
    method: str,
    k_max: int,
    n: int = 0,
    prec: PrecisionContext = PrecisionContext(),
) -> dict:
    """Column of transform values {k: T_k^(n)} for k = 0..k_max."""
    if method not in _METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {sorted(_METHODS)}")
    fn = _METHODS[method]
    return {k: fn(inp, k, n, prec) for k in range(k_max + 1)}
