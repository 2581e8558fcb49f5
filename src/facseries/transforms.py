"""Exact coefficient transforms between inverse-power, factorial, and power series.

The two workhorse formulas are

    d_m = (-1)^m sum_{mu<=m} (-1)^mu s1(m, mu) c_mu    (inverse power -> factorial)
    c_m = (-1)^m sum_{mu<=m} (-1)^mu s2(m, mu) d_mu    (factorial -> inverse power)

which are mutually inverse thanks to the Stirling orthogonality relations.
Both, and the power-series variant producing the lambda_m coefficients of the
product-form evaluator, are special cases of a generic inversion framework for
pairs of lower-triangular matrices (A, B) with sum_r B_nr A_rk = delta_nk.

All transforms here are purely formal truncations: the leading N+1 output
coefficients depend only on the leading N+1 inputs (triangularity), the tail
is treated as zero, and convergence of the resulting series is the caller's
problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DomainError, IntegrityError
from .series import FormalSeries, SeriesKind
from .stirling import stirling1, stirling2

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


def _stirling_weighted_sum(kind: int, m: int, coeffs: Sequence[Fraction]) -> Fraction:
    s = stirling1 if kind == 1 else stirling2
    total = Fraction(0)
    for mu in range(m + 1):
        total += (-1) ** mu * s(m, mu) * coeffs[mu]
    return (-1) ** m * total


def inverse_power_to_factorial(c: FormalSeries, order: int) -> FormalSeries:
    """Factorial-series coefficients d_0..d_order from inverse-power coefficients."""
    if c.kind is not SeriesKind.INVERSE_POWER:
        raise DomainError(f"expected inverse_power series, got {c.kind.value}")
    if len(c) < order + 1:
        raise DomainError(f"need {order + 1} coefficients, have {len(c)}")
    d = [_stirling_weighted_sum(1, m, c.coeffs) for m in range(order + 1)]
    return FormalSeries(SeriesKind.FACTORIAL, d)


def factorial_to_inverse_power(d: FormalSeries, order: int) -> FormalSeries:
    """Inverse of :func:`inverse_power_to_factorial` (second-kind Stirling weights)."""
    if d.kind is not SeriesKind.FACTORIAL:
        raise DomainError(f"expected factorial series, got {d.kind.value}")
    if len(d) < order + 1:
        raise DomainError(f"need {order + 1} coefficients, have {len(d)}")
    c = [_stirling_weighted_sum(2, m, d.coeffs) for m in range(order + 1)]
    return FormalSeries(SeriesKind.INVERSE_POWER, c)


def power_to_factorial_coeffs(gamma: FormalSeries, order: int) -> tuple[Fraction, ...]:
    """lambda_m = (-1)^m sum_mu (-1)^mu s1(m, mu) gamma_mu for m = 0..order.

    These feed the product-form evaluation
    sum_m (lambda_m/m!) prod_{k=1..m} z/(z+1/k); see evaluate.eval_power_as_factorial.
    """
    if gamma.kind is not SeriesKind.POWER:
        raise DomainError(f"expected power series, got {gamma.kind.value}")
    if len(gamma) < order + 1:
        raise DomainError(f"need {order + 1} coefficients, have {len(gamma)}")
    return tuple(_stirling_weighted_sum(1, m, gamma.coeffs) for m in range(order + 1))


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
        """Attach the exact inverse, computed by forward substitution.

        Requires a nonzero diagonal.  Column k of B solves A B[:, k] = e_k.
        """
        n = self.n_max
        for i in range(n + 1):
            if self.rows[i][i] == 0:
                raise IntegrityError(f"zero diagonal entry at row {i}; not invertible")
        b = [[Fraction(0)] * (r + 1) for r in range(n + 1)]
        for k in range(n + 1):
            for r in range(k, n + 1):
                acc = Fraction(1 if r == k else 0)
                for j in range(k, r):
                    acc -= self.rows[r][j] * b[j][k]
                b[r][k] = acc / self.rows[r][r]
        return TransformMatrix(self.rows, companion=TransformMatrix(b))

    def verify_orthogonality(self) -> None:
        """Check sum_r B_nr A_rk = delta_nk exactly; raise IntegrityError if not."""
        if self.companion is None:
            raise IntegrityError("no companion matrix attached")
        b = self.companion
        n_max = min(self.n_max, b.n_max)
        for n in range(n_max + 1):
            for k in range(n + 1):
                total = sum(b.rows[n][r] * self.rows[r][k] for r in range(k, n + 1))
                if total != (1 if n == k else 0):
                    raise IntegrityError(f"orthogonality fails at (n={n}, k={k}): {total}")
        object.__setattr__(self, "_verified", True)


def triangular_forward(a: TransformMatrix, x: Sequence) -> tuple[Fraction, ...]:
    """y_r = sum_{k<=r} A_rk x_k for r = 0..len(x)-1."""
    if len(x) > a.n_max + 1:
        raise DomainError(f"vector length {len(x)} exceeds matrix size {a.n_max + 1}")
    xs = [Fraction(v) for v in x]
    return tuple(
        sum((a.rows[r][k] * xs[k] for k in range(r + 1)), Fraction(0))
        for r in range(len(xs))
    )


def triangular_inverse_apply(a: TransformMatrix, y: Sequence) -> tuple[Fraction, ...]:
    """x_n = sum_{k<=n} B_nk y_k using the verified companion of ``a``."""
    if a.companion is None:
        raise IntegrityError("inverse application requires a companion matrix")
    if not a._verified:
        a.verify_orthogonality()
    return triangular_forward(a.companion, y)


def coefficient_transform(a: TransformMatrix, eta: Sequence, order: int) -> tuple[Fraction, ...]:
    """xi_n = sum_{k=n}^{order} A_kn eta_k (transposed action; tail beyond order is zero)."""
    if len(eta) < order + 1:
        raise DomainError(f"need {order + 1} entries, have {len(eta)}")
    if order > a.n_max:
        raise DomainError(f"order {order} exceeds matrix size {a.n_max}")
    es = [Fraction(v) for v in eta]
    return tuple(
        sum((a.rows[k][n] * es[k] for k in range(n, order + 1)), Fraction(0))
        for n in range(order + 1)
    )
