"""Exact coefficient transforms between inverse-power, factorial, and power series.

The two workhorse formulas are

    d_m = (-1)^m sum_{mu<=m} (-1)^mu s1(m, mu) c_mu    (inverse power -> factorial)
    c_m = (-1)^m sum_{mu<=m} (-1)^mu s2(m, mu) d_mu    (factorial -> inverse power)

which are mutually inverse thanks to the Stirling orthogonality relations.
Both, the power-series variant giving the lambda_m of the product-form evaluator, and a
Stirling pair's applies run the triangles' recurrences on the cleared vector (_stirling_apply).
The generic framework for lower-triangular pairs (A, B) with sum_r B_nr A_rk = delta_nk
keeps each matrix as integer rows (D, ints); every other product, solve and orthogonality
check is one kernel, _lower_apply.  The inverse is built on such rows, each packed to one
integer in s-bit slots (Kronecker substitution, read back by _slots).

All transforms here are purely formal truncations: the leading N+1 output coefficients
depend only on the leading N+1 inputs (triangularity), the tail is treated as zero, and
convergence of the resulting series is the caller's problem.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count, repeat
from math import gcd, lcm
from operator import mul
from sys import byteorder
from typing import Iterable, Optional, Sequence

from .errors import DomainError, IntegrityError
from .series import FormalSeries, SeriesKind, _common_denominator
from .stirling import _FIRST, _SECOND, _check_index

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


def _slots(acc: int, s: int, n: int) -> list[int]:
    """[v_0, .., v_(n-1)] from acc = sum_k v_k 2^(s k), each |v_k| < 2^(s-1), s a multiple
    of 64: 2^(s-1) added to every slot makes each an s-bit digit of one to_bytes."""
    half, w = 1 << s - 1, s // 8
    raw = (acc + int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")).to_bytes(n * w, "little")
    if s == 64 and byteorder == "little":  # a slot is a native 64-bit limb
        return [v - half for v in memoryview(raw).cast("Q")]
    return [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, len(raw), w)]


def _stirling_apply(x: Sequence[Fraction], kind: int, sign: int) -> tuple[Fraction, ...]:
    """V^m_0 / D for m < len(x), from V^0 = D x cleared by V^(m+1)_k = V^m_(k+1) + c V^m_k with
    c = sign m (kind 1) or -sign k (kind 2): sign -1 gives sum_k s(m, k) x_k, s the signed first-
    or the second-kind Stirling triangle, and sign 1 gives (-1)^m sum_k s(m, k) (-1)^k x_k."""
    dx, v = _common_denominator(x)
    out = []
    for m in range(len(x)):  # a step is one big-by-small product an entry
        out.append(Fraction(v[0], dx))
        v = [a + c * b for c, a, b in zip(repeat(sign * m) if kind == 1 else count(0, -sign),
                                          v[1:], v)]
    return tuple(out)


def _stirling_transform(
    series: FormalSeries, kind: SeriesKind, stirling: int, order: int
) -> tuple[Fraction, ...]:
    """(-1)^m sum_mu s(m, mu) (-1)^mu x_mu for m = 0..order, x the coefficients of a
    ``kind`` series and s the Stirling triangle of kind ``stirling``."""
    if series.kind is not kind:
        raise DomainError(f"expected {kind.value} series, got {series.kind.value}")
    if not 0 <= order < len(series):
        raise DomainError(f"order must be in 0..{len(series) - 1}, got {order}")
    return _stirling_apply(series.coeffs[: order + 1], stirling, 1)


def inverse_power_to_factorial(c: FormalSeries, order: int) -> FormalSeries:
    """Factorial-series coefficients d_0..d_order from inverse-power coefficients."""
    d = _stirling_transform(c, SeriesKind.INVERSE_POWER, 1, order)
    return FormalSeries(SeriesKind.FACTORIAL, d)


def factorial_to_inverse_power(d: FormalSeries, order: int) -> FormalSeries:
    """Inverse of :func:`inverse_power_to_factorial` (second-kind Stirling weights)."""
    c = _stirling_transform(d, SeriesKind.FACTORIAL, 2, order)
    return FormalSeries(SeriesKind.INVERSE_POWER, c)


def power_to_factorial_coeffs(gamma: FormalSeries, order: int) -> tuple[Fraction, ...]:
    """lambda_m = (-1)^m sum_mu (-1)^mu s1(m, mu) gamma_mu for m = 0..order.

    These feed the product-form evaluation
    sum_m (lambda_m/m!) prod_{k=1..m} z/(z+1/k); see evaluate.eval_power_as_factorial.
    """
    return _stirling_transform(gamma, SeriesKind.POWER, 1, order)


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

    Row n is kept once, as (D_n, ints_n) over its least common denominator D_n, from
    which rows, entry and n_max are read.  With a companion, sum_{r=k}^{n} B_nr A_rk =
    delta_nk must hold exactly; a pass of verify_orthogonality is kept for later applies.
    """

    _cleared: tuple[tuple[int, tuple[int, ...]], ...]
    companion: Optional["TransformMatrix"] = None
    _kind = 0  # 1 and 2 on a Stirling pair's A and B, applied by their recurrences; not a field

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
        if not (0 <= n <= self.n_max and k >= 0):
            raise DomainError(f"entry ({n}, {k}) needs 0 <= n <= {self.n_max} and k >= 0")
        return Fraction(self._cleared[n][1][k], self._cleared[n][0]) if k <= n else Fraction(0)

    @classmethod
    def identity(cls, n_max: int) -> "TransformMatrix":
        _check_index(n_max)  # the index of the last row
        rows = [[int(k == n) for k in range(n + 1)] for n in range(n_max + 1)]
        return cls(rows, companion=cls(rows))

    @classmethod
    def stirling_pair(cls, n_max: int) -> "TransformMatrix":
        """A = signed first-kind triangle, companion B = second-kind triangle."""
        _check_index(n_max)  # the index of the last row
        a, b = (map(s._extend(n_max).__getitem__, range(n_max + 1)) for s in (_FIRST, _SECOND))
        pair = cls(a, companion=cls(b))  # each marked past __init__, as _verified is
        vars(pair)["_kind"], vars(pair.companion)["_kind"] = 1, 2
        return pair

    def with_computed_companion(self) -> "TransformMatrix":
        """Attach the exact inverse B, built row by row by forward substitution.

        Requires a nonzero diagonal.  With row r of A kept as (D_r, a), B_rr = D_r / a_r and
        B_rk = -(sum_{j=k}^{r-1} a_j B_jk) / a_r, k < r, over Q, a common denominator rescaled
        only when a row's does not divide it (never for an integer unit-diagonal A).  Row j is
        kept as P_j = sum_k Q B_jk 2^(s k), and row r is read from the slots of (D_r Q << s r)
        - sum_j a_j P_j; s = 64 2^m, doubled where a bound on the row's numerators reaches
        2^(s-1).  Cut by its content, the row is B's kept row.
        """
        kept, packed, tops, q, s = [], [], [], 1, 64  # tops[j] >= every |slot| of P_j
        for r, (d_r, a) in enumerate(self._cleared):
            if (p := a[r]) == 0:
                raise IntegrityError(f"zero diagonal entry at row {r}; not invertible")
            if (n := (sum(map(mul, map(abs, a), tops)) + abs(d_r * q)).bit_length()) >= s:
                s = 64 << (n // 64).bit_length()  # the least 64 2^m above n; the kept rows repacked
                packed = [sum(v * (q // e) << s * k for k, v in enumerate(ints)) for e, ints in kept]
            ints = _slots(acc := (d_r * q << s * r) - sum(map(mul, a, packed)), s, r + 1)
            if (g := gcd(e := p * q, *ints) * (1 if p > 0 else -1)) != 1:  # over e > 0, reduced
                e, ints = e // g, [v // g for v in ints]
            kept.append((e, tuple(ints)))
            if (scale := lcm(q, e) // q if q % e else 1) > 1:
                q, packed, tops = q * scale, [v * scale for v in packed], [t * scale for t in tops]
            packed.append(acc * scale // p)  # exact: each slot of acc is p Q B_rk over the old Q
            tops.append(max(map(abs, ints)) * (q // e))
        companion = object.__new__(TransformMatrix)  # from the kept rows, past __init__
        vars(companion).update(_cleared=tuple(kept), companion=None, _verified=False)
        out = copy.copy(self)  # shares the kept rows; frozen, so set past __setattr__
        vars(out).update(companion=companion, _verified=False)
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
    x = [v if type(v) is Fraction else Fraction(v) for v in x]  # a Fraction as it is
    return _stirling_apply(x, a._kind, -1) if a._kind else _lower_apply(a._cleared[: len(x)], x)


def triangular_inverse_apply(a: TransformMatrix, y: Sequence) -> tuple[Fraction, ...]:
    """x_n = sum_{k<=n} B_nk y_k using the verified companion of ``a``."""
    if not a._verified:  # and a check raises IntegrityError without a companion
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
    return _lower_apply(columns, [(v if type(v) is Fraction else Fraction(v)) / d
                                  for v, (d, _) in zip(eta, rows)])
