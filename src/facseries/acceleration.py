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
rational (int or Fraction), otherwise in mpf at working precision plus 10
guard digits.  The exact cell is formed over cleared integers: with
p/q = beta + n, the weights are integers over q^(k-1) (Weniger's ratio
divides exactly), the c_j integers over q^(k-1) times the lcm of the omega
numerators, and the s_j integers over their least common denominator, so the
numerator and denominator are one integer dot product and one integer sum,
each reduced once and rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm, prod
from operator import floordiv, mul, truediv
from typing import Callable, Sequence

import mpmath

from .errors import DomainError, EstimateError, InstabilityError
from .series import PrecisionContext, Real, _common_denominator, to_mpf

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
        if _exact_or_mpf(self.beta) <= 0:  # not float(): it overflows at 1e400, reads 1e-400 as 0
            raise DomainError(f"beta must be > 0, got {self.beta}")

    @classmethod
    def from_terms(
        cls, terms: Sequence, strategy: str = "first_neglected", beta: Real = 1
    ) -> "TransformInput":
        """Partial sums and remainder estimates of a term list; rational terms stay exact."""
        if _exact_or_mpf(beta) <= 0:  # before the estimates: beta = -n makes omega_n zero
            raise DomainError(f"beta must be > 0, got {beta}")
        omega = remainder_estimates(terms, strategy, beta)
        return cls(tuple(accumulate(map(_exact_or_mpf, terms)))[: len(omega)], omega, beta)


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
    with the k+1 weights w_j = weights(p, q, k) / q^(k-1), p/q = beta + n."""
    if k < 0 or n < 0:
        raise DomainError(f"need k, n >= 0, got k={k}, n={n}")
    if n + k >= len(inp.s):
        raise DomainError(
            f"cell (k={k}, n={n}) needs {n + k + 1} entries, have {len(inp.s)}"
        )
    with prec.workdps(10):
        window = (inp.beta, *inp.s[n : n + k + 1], *inp.omega[n : n + k + 1])
        exact = all(isinstance(x, (int, Fraction)) for x in window)
        beta, *rest = window if exact else map(to_mpf, window)
        s, omega = rest[: k + 1], rest[k + 1 :]
        if 0 in omega:
            raise EstimateError(f"omega[{n + omega.index(0)}] is zero")
        b = beta + n
        if exact:
            num, den, scale = _cleared_cell(b.numerator, b.denominator, s, omega, k, weights)
        else:
            c = [(-1) ** j * comb(k, j) * w / o
                 for j, (w, o) in enumerate(zip(weights(b, 1, k), omega))]
            num, den, scale = sum(map(mul, c, s)), sum(c), max(map(abs, c))
        # one rounding each; mpf and Fraction do not compare, so test after it
        num, den, scale = to_mpf(num), to_mpf(den), to_mpf(scale)
        if abs(den) < prec.tol(6) * scale:
            raise InstabilityError(
                f"denominator vanished at (k={k}, n={n}): |den|={abs(den)}"
            )
        return num / den


def _cleared_cell(p: int, q: int, s: list, omega: list, k: int, weights: Callable) -> tuple:
    """The exact (num, den, max |c_j|) of a rational window, as three Fractions.

    With L the lcm of the omega numerators, each c_j is an integer C_j over
    q^(k-1) L, and the s_j are cleared to integers over one denominator, so
    each sum is one integer dot product or sum, reduced once.
    """
    d_omega = lcm(*(w.numerator for w in omega))
    d_s, s_ints = _common_denominator(s)
    c = [(-1) ** j * comb(k, j) * w * o.denominator * (d_omega // o.numerator)
         for j, (w, o) in enumerate(zip(weights(p, q, k), omega))]
    d = q ** max(k - 1, 0) * d_omega
    return (Fraction(sum(map(mul, c, s_ints)), d * d_s), Fraction(sum(c), d),
            Fraction(max(map(abs, c)), d))


def _power_weights(p, q, k: int) -> list:
    """(p + jq)^(k-1), i.e. (b+j)^(k-1) q^(k-1) with b = p/q, for j = 0..k
    (all 1 when k <= 1)."""
    return [(p + j * q) ** max(k - 1, 0) for j in range(k + 1)]


def _pochhammer_weights(p, q, k: int) -> list:
    """prod_i (p + (j+i)q), i.e. (b+j)_(k-1) q^(k-1) with b = p/q, for j = 0..k
    (all 1 when k <= 1), each from the last by the ratio (b+j+k-1)/(b+j):
    exactly, by //, for integer p and q."""
    m = max(k - 1, 0)
    div = floordiv if isinstance(p, int) else truediv
    out = [prod((p + i * q for i in range(m)), start=1)]
    for j in range(k):
        out.append(div(out[-1] * (p + j * q + m * q), p + j * q))
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
    if k_max < 0:  # as levin and weniger_s refuse k < 0, not an empty column
        raise DomainError(f"need k_max >= 0, got k_max={k_max}")
    fn = _METHODS[method]
    return {k: fn(inp, k, n, prec) for k in range(k_max + 1)}
