"""Exact coefficient transforms between inverse-power, factorial, and power series.

The two workhorse formulas are

    d_m = (-1)^m sum_{mu<=m} (-1)^mu s1(m, mu) c_mu    (inverse power -> factorial)
    c_m = (-1)^m sum_{mu<=m} (-1)^mu s2(m, mu) d_mu    (factorial -> inverse power)

which are mutually inverse thanks to the Stirling orthogonality relations.
Both, and the power-series variant producing the lambda_m coefficients of the
product-form evaluator, are special cases of a generic inversion framework for
pairs of lower-triangular matrices (A, B) with sum_r B_nr A_rk = delta_nk.
Every product and solve here, the orthogonality check and the inverse included,
is one kernel, _lower_apply, which clears the vector and each row to integers
over least common denominators: one integer dot product and one Fraction per output.

All transforms here are purely formal truncations: the leading N+1 output
coefficients depend only on the leading N+1 inputs (triangularity), the tail
is treated as zero, and convergence of the resulting series is the caller's
problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DomainError, IntegrityError
from .series import FormalSeries, SeriesKind, _common_denominator
from .stirling import _FIRST, _SECOND, StirlingCache, stirling1, stirling2

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


def _lower_apply(rows: Iterable[Sequence], x: Sequence) -> tuple[Fraction, ...]:
    """y_r = sum_k rows[r][k] x_k, k below both lengths, for every row.

    x and each row are cleared to integers over their least common
    denominators, so each output is one integer dot product and one Fraction.
    """
    dx, xs = _common_denominator(x)
    out = []
    for row in rows:
        dr, rs = _common_denominator(row)
        out.append(Fraction(sum(map(mul, rs, xs)), dr * dx))
    return tuple(out)


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
    y = _lower_apply(map(s.row, range(order + 1)), x)
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


@dataclass(frozen=True)
class TransformMatrix:
    """Lower-triangular exact matrix A (row n has n+1 entries), optional companion B.

    When the companion is present the pair must satisfy
    sum_{r=k}^{n} B_nr A_rk = delta_nk exactly.  The instance is immutable, so
    a pass of verify_orthogonality is recorded and not repeated on later applies.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    companion: Optional["TransformMatrix"] = None

    def __init__(self, rows: Iterable[Iterable], companion=None):
        frozen = tuple(tuple(Fraction(v) for v in row) for row in rows)
        for n, row in enumerate(frozen):
            if len(row) != n + 1:
                raise IntegrityError(f"row {n} has {len(row)} entries, expected {n + 1}")
        object.__setattr__(self, "rows", frozen)
        object.__setattr__(self, "companion", companion)
        object.__setattr__(self, "_verified", False)

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> Fraction:
        if k > n:
            return Fraction(0)
        return self.rows[n][k]

    @classmethod
    def identity(cls, n_max: int) -> "TransformMatrix":
        rows = [[Fraction(int(k == n)) for k in range(n + 1)] for n in range(n_max + 1)]
        m = cls(rows)
        return cls(rows, companion=m)

    @classmethod
    def stirling_pair(cls, n_max: int) -> "TransformMatrix":
        """A = signed first-kind triangle, companion B = second-kind triangle."""
        a_rows = [[stirling1(n, k) for k in range(n + 1)] for n in range(n_max + 1)]
        b_rows = [[stirling2(n, k) for k in range(n + 1)] for n in range(n_max + 1)]
        return cls(a_rows, companion=cls(b_rows))

    def with_computed_companion(self) -> "TransformMatrix":
        """Attach the exact inverse B, built row by row by forward substitution.

        Requires a nonzero diagonal.  B_rr = 1/A_rr, and for k < r
        B_rk = -(sum_{j=k}^{r-1} A_rj B_jk) / A_rr: all r sums are one
        _lower_apply of the zero-padded columns of the rows built so far.
        """
        b = []
        for r, row in enumerate(self.rows):
            if row[r] == 0:
                raise IntegrityError(f"zero diagonal entry at row {r}; not invertible")
            columns = ([0] * k + [bj[k] for bj in b[k:]] for k in range(r))
            b.append([-v / row[r] for v in _lower_apply(columns, row[:r])] + [1 / row[r]])
        return TransformMatrix(self.rows, companion=TransformMatrix(b))

    def verify_orthogonality(self) -> None:
        """Check sum_r B_nr A_rk = delta_nk exactly; raise IntegrityError if not."""
        if self.companion is None:
            raise IntegrityError("no companion matrix attached")
        b = self.companion
        n_max = min(self.n_max, b.n_max)
        for k in range(n_max + 1):
            # rows n >= k of B times column k of A, both from index k on
            column = [self.rows[r][k] for r in range(k, n_max + 1)]
            products = _lower_apply((row[k:] for row in b.rows[k : n_max + 1]), column)
            for n, total in enumerate(products, k):
                if total != (1 if n == k else 0):
                    raise IntegrityError(f"orthogonality fails at (n={n}, k={k}): {total}")
        object.__setattr__(self, "_verified", True)


def triangular_forward(a: TransformMatrix, x: Sequence) -> tuple[Fraction, ...]:
    """y_r = sum_{k<=r} A_rk x_k for r = 0..len(x)-1."""
    if len(x) > a.n_max + 1:
        raise DomainError(f"vector length {len(x)} exceeds matrix size {a.n_max + 1}")
    return _lower_apply(a.rows[: len(x)], [Fraction(v) for v in x])


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
    columns = ([a.entry(k, n) for k in range(order + 1)] for n in range(order + 1))
    return _lower_apply(columns, [Fraction(v) for v in eta[: order + 1]])
