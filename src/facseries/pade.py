"""Pade approximants with exact rational coefficients.

The [L/M] approximant to sum_k c_k z^k is num(z)/den(z) with deg num <= L,
deg den <= M, den(0) = 1, and num/den matching the input series through
order L+M.  The denominator solves the Toeplitz system

    sum_{j=0}^{M} b_j c_{L+i-j} = 0,   i = 1..M,   b_0 = 1,

cleared to integers row by row (column contents divided out) and solved by
Bareiss's fraction-free elimination (Math. Comp. 22, 1968), so the
match-through-order property is exact, not approximate.  Singular systems
raise DegeneracyError carrying the largest denominator degree that is solvable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Sequence

import mpmath
from mpmath import mp

from .errors import DegeneracyError, DomainError, PoleError
from .series import PrecisionContext, Real, _common_denominator, to_mpf

__all__ = ["PadeApprox", "pade_construct", "pade_eval"]


@dataclass(frozen=True)
class PadeApprox:
    """Rational function [L/M] as exact numerator/denominator coefficient vectors."""

    num: tuple[Fraction, ...]  # length L+1
    den: tuple[Fraction, ...]  # length M+1, den[0] == 1
    _node_tables = cached_property(lambda self: {})  # evaluate._euler_integral: set-up, head, octave tables

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

    Each augmented row is cleared by its own least common denominator, and
    each coefficient column j divided by the gcd g_j of its integers (1 for a
    zero column), so y_j = g_j x_j; no zero entry changes, so neither do the
    pivot rows.  After the forward pass every entry is a minor of the scaled
    integer matrix, so each division by the previous pivot is exact, and the
    last pivot d (its determinant up to sign) makes d * y_j integral by
    Cramer's rule: x_j = d * y_j / (d * g_j).
    """
    m = len(rhs)
    aug = [_common_denominator(row + [v])[1] for row, v in zip(a, rhs)]
    g = [gcd(*(row[j] for row in aug)) or 1 for j in range(m)]
    aug = [[v // d for v, d in zip(row, g)] + [row[m]] for row in aug]
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
    return [Fraction(v, prev * d) for v, d in zip(y, g)]


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
    c = [Fraction(v) for v in coeffs]
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
    """Horner evaluation of num(z)/den(z) at working precision."""
    with prec.workdps():
        zv = to_mpf(z)
        num = _horner(p.num, zv)
        den = _horner(p.den, zv)
        if abs(den) < prec.tol(4):
            raise PoleError(f"denominator {den} vanishes to working precision at z={z}")
        return num / den


def _horner(coeffs: Sequence[Fraction], z: mpmath.mpf) -> mpmath.mpf:
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * z + to_mpf(c)
    return acc
