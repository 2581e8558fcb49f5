"""Exact coefficient transforms between inverse-power, factorial, and power series.

The two workhorse formulas are

    d_m = (-1)^m sum_{mu<=m} (-1)^mu s1(m, mu) c_mu    (inverse power -> factorial)
    c_m = (-1)^m sum_{mu<=m} (-1)^mu s2(m, mu) d_mu    (factorial -> inverse power)

which are mutually inverse thanks to the Stirling orthogonality relations.
Both, and the power-series variant producing the lambda_m coefficients of the
product-form evaluator, are special cases of a generic inversion framework for
pairs of lower-triangular matrices (A, B) with sum_r B_nr A_rk = delta_nk.
Every product and solve here, the orthogonality check and the inverse included, is
one kernel, _lower_apply, over the integer rows (D, ints) that a TransformMatrix keeps:
it clears only the vector, so each output is one integer dot product and one Fraction.

All transforms here are purely formal truncations: the leading N+1 output
coefficients depend only on the leading N+1 inputs (triangularity), the tail
is treated as zero, and convergence of the resulting series is the caller's
problem.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DomainError, IntegrityError
from .series import FormalSeries, SeriesKind, _common_denominator
from .stirling import _FIRST, _SECOND, StirlingCache

__all__ = [
    "TransformMatrix",
    "inverse_power_to_factorial",
    "factorial_to_inverse_power",
    "power_to_factorial_coeffs",
    "moments_to_factorial",
    "triangular_forward",
    "triangular_inverse_apply",
    "coefficient_transform",
]


def _lower_apply(rows: Iterable[tuple[int, Sequence[int]]], x: Sequence) -> tuple[Fraction, ...]:
    """y_r = sum_k (ints_r[k] / D_r) x_k, k below both lengths, for every row
    (D_r, ints_r), already cleared over any nonzero D_r; x is cleared here, over
    its least common denominator, so each output is one dot product and one Fraction."""
    dx, xs = _common_denominator(x)
    return tuple(Fraction(sum(map(mul, rs, xs)), dr * dx) for dr, rs in rows)


def _stirling_transform(
    series: FormalSeries, kind: SeriesKind, s: StirlingCache, order: int
) -> tuple[Fraction, ...]:
    """(-1)^m sum_mu s(m, mu) (-1)^mu x_mu for m = 0..order, x the coefficients
    of a ``kind`` series, over the rows the Stirling cache ``s`` keeps."""
    if series.kind is not kind:
        raise DomainError(f"expected {kind.value} series, got {series.kind.value}")
    if not 0 <= order < len(series):
        raise DomainError(f"order must be in 0..{len(series) - 1}, got {order}")
    x = [-v if mu & 1 else v for mu, v in enumerate(series.coeffs[: order + 1])]
    y = _lower_apply(((1, row) for row in s._extend(order)[: order + 1]), x)  # not copied
    return tuple(-v if m & 1 else v for m, v in enumerate(y))


def inverse_power_to_factorial(c: FormalSeries, order: int) -> FormalSeries:
    """Factorial-series coefficients d_0..d_order from inverse-power coefficients."""
    d = _stirling_transform(c, SeriesKind.INVERSE_POWER, _FIRST, order)
    return FormalSeries(SeriesKind.FACTORIAL, d)


def factorial_to_inverse_power(d: FormalSeries, order: int) -> FormalSeries:
    """Inverse of :func:`inverse_power_to_factorial` (second-kind Stirling weights)."""
    c = _stirling_transform(d, SeriesKind.FACTORIAL, _SECOND, order)
    return FormalSeries(SeriesKind.INVERSE_POWER, c)


def power_to_factorial_coeffs(gamma: FormalSeries, order: int) -> tuple[Fraction, ...]:
    """lambda_m = (-1)^m sum_mu (-1)^mu s1(m, mu) gamma_mu for m = 0..order.

    These feed the product-form evaluation
    sum_m (lambda_m/m!) prod_{k=1..m} z/(z+1/k); see evaluate.eval_power_as_factorial.
    """
    return _stirling_transform(gamma, SeriesKind.POWER, _FIRST, order)


def moments_to_factorial(moments, order: int) -> FormalSeries:
    """Factorial series of a Stieltjes function straight from its moments.

    Equivalent to transforming the Stieltjes series sum (-1)^n mu_n / z^(n+1);
    the coefficients collapse to d_m = (-1)^m sum_v s1(m, v) mu_v.
    """
    return inverse_power_to_factorial(moments.stieltjes_series(), order)


# --- generic triangular / orthogonal inversion framework -------------------


def _check_size(n_max: int) -> None:
    if n_max < 0:
        raise DomainError(f"matrix size must be >= 0, got {n_max}")


@dataclass(frozen=True)
class TransformMatrix:
    """Lower-triangular exact matrix A (row n has n+1 entries), optional companion B.

    Row n is kept once, as (D_n, ints_n) over its least common denominator D_n, from
    which rows, entry and n_max are read.  With a companion, sum_{r=k}^{n} B_nr A_rk =
    delta_nk must hold exactly; a pass of verify_orthogonality is kept for later applies.
    """

    _cleared: tuple[tuple[int, tuple[int, ...]], ...]
    companion: Optional["TransformMatrix"] = None

    def __init__(self, rows: Iterable[Iterable], companion=None):
        cleared = []
        for n, row in enumerate(rows):  # int and Fraction entries are cleared as they are
            d, ints = _common_denominator([c if type(c) in (int, Fraction) else Fraction(c)
                                           for c in row])
            if len(ints) != n + 1:
                raise IntegrityError(f"row {n} has {len(ints)} entries, expected {n + 1}")
            cleared.append((d, tuple(ints)))
        vars(self).update(_cleared=tuple(cleared), companion=companion, _verified=False)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:  # on first read, not at build
        return tuple(tuple(map(Fraction, ints)) if d == 1 else tuple(Fraction(i, d) for i in ints)
                     for d, ints in self._cleared)  # Fraction(i) holds i, Fraction(i, 1) a copy

    @property
    def n_max(self) -> int:
        return len(self._cleared) - 1

    def entry(self, n: int, k: int) -> Fraction:
        return Fraction(self._cleared[n][1][k], self._cleared[n][0]) if k <= n else Fraction(0)

    @classmethod
    def identity(cls, n_max: int) -> "TransformMatrix":
        _check_size(n_max)
        rows = [[int(k == n) for k in range(n + 1)] for n in range(n_max + 1)]
        return cls(rows, companion=cls(rows))

    @classmethod
    def stirling_pair(cls, n_max: int) -> "TransformMatrix":
        """A = signed first-kind triangle, companion B = second-kind triangle."""
        _check_size(n_max)
        a, b = (map(s._extend(n_max).__getitem__, range(n_max + 1)) for s in (_FIRST, _SECOND))
        return cls(a, companion=cls(b))

    def with_computed_companion(self) -> "TransformMatrix":
        """Attach the exact inverse B, built row by row by forward substitution.

        Requires a nonzero diagonal.  With row r of A kept as (D_r, a), B_rr = D_r / a_r,
        and for k < r all B_rk = -(sum_{j=k}^{r-1} a_j B_jk) / a_r are one _lower_apply
        of the columns, each kept as (D_k, ints) zero-padded to k and rescaled only when
        an entry's denominator does not divide D_k.  The result shares A's kept rows.
        """
        b, columns = [], []
        for r, (d_r, a) in enumerate(self._cleared):
            if (p := a[r]) == 0:
                raise IntegrityError(f"zero diagonal entry at row {r}; not invertible")
            b.append([*_lower_apply(((-d * p, c) for d, c in columns), a[:r]), Fraction(d_r, p)])
            columns.append((1, [0] * r))
            for k, v in enumerate(b[r]):
                d, ints = columns[k]
                if d % v.denominator:
                    scale = lcm(d, v.denominator) // d
                    d, ints = columns[k] = d * scale, [i * scale for i in ints]
                ints.append(v.numerator * (d // v.denominator))
        out = copy.copy(self)  # shares the kept rows; frozen, so set past __setattr__
        vars(out).update(companion=TransformMatrix(b), _verified=False)
        return out

    def verify_orthogonality(self) -> None:
        """Check sum_r B_nr A_rk = delta_nk exactly; raise IntegrityError if not."""
        if self.companion is None:
            raise IntegrityError("no companion matrix attached")
        n_max = min(self.n_max, self.companion.n_max)
        for k in range(n_max + 1):
            # rows n >= k of B times column k of A, both from index k on
            rows = ((d, ints[k:]) for d, ints in self.companion._cleared[k : n_max + 1])
            column = [Fraction(ints[k], d) for d, ints in self._cleared[k : n_max + 1]]
            for n, total in enumerate(_lower_apply(rows, column), k):
                if total != (1 if n == k else 0):
                    raise IntegrityError(f"orthogonality fails at (n={n}, k={k}): {total}")
        object.__setattr__(self, "_verified", True)


def triangular_forward(a: TransformMatrix, x: Sequence) -> tuple[Fraction, ...]:
    """y_r = sum_{k<=r} A_rk x_k for r = 0..len(x)-1."""
    if len(x) > a.n_max + 1:
        raise DomainError(f"vector length {len(x)} exceeds matrix size {a.n_max + 1}")
    return _lower_apply(a._cleared[: len(x)], [Fraction(v) for v in x])


def triangular_inverse_apply(a: TransformMatrix, y: Sequence) -> tuple[Fraction, ...]:
    """x_n = sum_{k<=n} B_nk y_k using the verified companion of ``a``."""
    if a.companion is None:
        raise IntegrityError("inverse application requires a companion matrix")
    if not a._verified:
        a.verify_orthogonality()
    return triangular_forward(a.companion, y)


def coefficient_transform(a: TransformMatrix, eta: Sequence, order: int) -> tuple[Fraction, ...]:
    """xi_n = sum_{k=n}^{order} A_kn eta_k (transposed action; tail beyond order is zero)."""
    if not 0 <= order < len(eta):
        raise DomainError(f"order must be in 0..{len(eta) - 1}, got {order}")
    if order > a.n_max:
        raise DomainError(f"order {order} exceeds matrix size {a.n_max}")
    rows = a._cleared[: order + 1]  # A_kn = ints_k[n] / D_k: 1/D_k goes into eta_k
    columns = ((1, [0] * n + [ints[n] for _, ints in rows[n:]]) for n in range(order + 1))
    return _lower_apply(columns, [Fraction(v) / d for v, (d, _) in zip(eta, rows)])
