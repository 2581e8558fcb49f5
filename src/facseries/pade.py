"""Pade approximants with exact rational coefficients.

The [L/M] approximant to sum_k c_k z^k is num(z)/den(z) with deg num <= L,
deg den <= M, den(0) = 1, and num/den matching the input series through
order L+M.  The denominator solves the Toeplitz system

    sum_{j=0}^{M} b_j c_{L+i-j} = 0,   i = 1..M,   b_0 = 1,

cleared to integers row by row (column contents divided out) and solved by
Bareiss's fraction-free elimination (Math. Comp. 22, 1968), so the
match-through-order property is exact, not approximate; the shortest columns go
first, as a factorially divergent series makes the system graded (_solve_exact).
Singular systems raise DegeneracyError carrying the largest solvable denominator degree.
pade_eval rounds the exact num(z)/den(z) once; a pole is where den(z) = 0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from sys import int_info
from typing import Sequence

import mpmath
from mpmath import libmp, mp

from .errors import DegeneracyError, DomainError, PoleError
from .series import PrecisionContext, Real, _common_denominator, _rational, _round

__all__ = ["PadeApprox", "pade_construct", "pade_eval"]


@dataclass(frozen=True)
class PadeApprox:
    """Rational function [L/M] as exact numerator/denominator coefficient vectors."""

    num: tuple[Fraction, ...]  # length L+1
    den: tuple[Fraction, ...]  # length M+1, den[0] == 1
    _node_tables = cached_property(lambda self: {})  # evaluate._euler_integral: set-up, head, octave tables
    # (D, integer numerators) of num and den: _pade_value, evaluate's pole scan and set-up
    _cleared = cached_property(lambda self: tuple(map(_common_denominator, (self.num, self.den))))

    @property
    def L(self) -> int:
        return len(self.num) - 1

    @property
    def M(self) -> int:
        return len(self.den) - 1

    def taylor(self, order: int) -> tuple[Fraction, ...]:
        """Exact power-series coefficients of num/den through the given order."""
        out: list[Fraction] = []
        for k in range(order + 1):
            acc = self.num[k] if k <= self.L else Fraction(0)
            for j in range(1, min(k, self.M) + 1):
                acc -= self.den[j] * out[k - j]
            out.append(acc)  # den[0] == 1
        return tuple(out)


def _solve_exact(a: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Bareiss elimination on the integer-cleared system; None if singular.

    Each augmented row is cleared by its own least common denominator, and each
    coefficient column j divided by the gcd g_j of its integers (1 for a zero column),
    so y_j = g_j x_j; no zero entry changes, so neither do the pivot rows.  The columns
    then go in a stable order by the limbs of their largest entry, fewest first: a
    step-k entry is a minor on the first k pivot columns, and a factorially divergent
    series grades the columns (413 bits for b_1's down to 185 at order 53).  The order
    changes neither the solution nor the singular verdict.  After the forward pass each
    entry is a minor, so each division by the previous pivot is exact, and the last pivot
    d (the determinant up to sign) makes d y_j integral by Cramer: x_j = d y_j / (d g_j).
    """
    m, limb = len(rhs), int_info.bits_per_digit
    aug = [_common_denominator(row + [v])[1] for row, v in zip(a, rhs)]
    g = [gcd(*(row[j] for row in aug)) or 1 for j in range(m)]
    order = sorted(range(m), key=lambda j: (max(abs(row[j]) for row in aug) // g[j]).bit_length() // limb)
    aug = [[row[j] // g[j] for j in order] + [row[m]] for row in aug]
    prev = 1
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        prow = aug[col]
        for row in aug[col + 1 :]:
            f, row[col] = row[col], 0  # frees the eliminated entry: only U is kept
            tail = zip(row[col + 1 :], prow[col + 1 :])
            row[col + 1 :] = [(x * prow[col] - f * y) // prev for x, y in tail]
        prev = prow[col]
    y = [0] * m
    for i in range(m - 1, -1, -1):
        row = aug[i]
        y[i] = (prev * row[m] - sum(row[j] * y[j] for j in range(i + 1, m))) // row[i]
    return [Fraction(y[k], prev * g[j]) for j, k in sorted(zip(order, range(m)))]


def _try_denominator(c: Sequence[Fraction], L: int, M: int) -> list[Fraction] | None:
    def coeff(k: int) -> Fraction:
        return c[k] if 0 <= k < len(c) else Fraction(0)

    if M == 0:
        return [Fraction(1)]
    a = [[coeff(L + i - j) for j in range(1, M + 1)] for i in range(1, M + 1)]
    rhs = [-coeff(L + i) for i in range(1, M + 1)]
    sol = _solve_exact(a, rhs)
    if sol is None:
        return None
    return [Fraction(1)] + sol


def pade_construct(coeffs: Sequence, L: int, M: int) -> PadeApprox:
    """[L/M] approximant from at least L+M+1 leading series coefficients."""
    if L < 0 or M < 0:
        raise DomainError(f"need L, M >= 0, got L={L}, M={M}")
    c = [v if type(v) is Fraction else Fraction(v) for v in coeffs]
    if len(c) < L + M + 1:
        raise DomainError(f"[{L}/{M}] needs {L + M + 1} coefficients, have {len(c)}")
    den = _try_denominator(c, L, M)
    if den is None:
        largest = next(
            (mm for mm in range(M - 1, -1, -1) if _try_denominator(c, L, mm) is not None),
            0,
        )
        raise DegeneracyError(
            f"singular [{L}/{M}] system; largest solvable denominator degree is {largest}",
            largest_m=largest,
        )
    return _with_numerator(c, L, den)


def _with_numerator(c: Sequence[Fraction], L: int, den: Sequence[Fraction]) -> PadeApprox:
    """The [L/M] approximant with denominator den, M = len(den) - 1: its numerator
    num_k = sum_j den_j c_{k-j}, k <= L, is one integer convolution over dd * dc."""
    dd, den_int = _common_denominator(den)
    dc, c_int = _common_denominator(c[: L + 1])
    num = [Fraction(sum(map(mul, den_int, reversed(c_int[: k + 1]))), dd * dc) for k in range(L + 1)]
    return PadeApprox(num=tuple(num), den=tuple(den))


def pade_eval(p: PadeApprox, z: Real, prec: PrecisionContext = PrecisionContext()) -> mpmath.mpf:
    """num(z)/den(z) at a finite real z, exact (_pade_value), then rounded once to 10
    guard digits; PoleError only where den(z) is exactly 0."""
    return mp.make_mpf(_round(_pade_value(p, _rational(z)), libmp.dps_to_prec(prec.digits + 10)))


def _pade_value(p: PadeApprox, z: Fraction) -> Fraction:
    """num(z)/den(z) exactly.  At z = a/b a polynomial of degree n with coefficients
    C_k/D is A/(D b^n), A = sum_k C_k a^k b^(n-k) by integer Horner."""
    a, b, parts = z.numerator, z.denominator, []
    for d, cs in p._cleared:
        acc, power = 0, 1
        for c in reversed(cs):
            acc, power = acc * a + c * power, power * b
        parts.append((acc, d * power))  # A and D b^(n+1): the value over b
    (num, num_d), (den, den_d) = parts
    if den == 0:
        raise PoleError(f"denominator vanishes at z={z}")
    return Fraction(num * den_d, den * num_d)
