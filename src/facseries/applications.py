"""The two case studies: the exponential integral E1 and the quartic oscillator.

E1(z) = int_z^inf exp(-t)/t dt has the divergent asymptotic expansion
z e^z E1(z) ~ sum (-1)^m m!/z^m; transforming the inverse-power coefficients
(-1)^m m! with first-kind Stirling weights yields a convergent factorial
series for e^z E1(z).

The quartic anharmonic oscillator is H = p^2 + x^2 + beta x^4 (unperturbed
eigenvalues 2n+1, ground energy 1).  Its Rayleigh-Schrodinger ground-state
series E(beta) = sum b_n beta^n diverges factorially; the energy-shift
series sum b_{n+1} beta^n is a Stieltjes series with strictly alternating
terms for beta > 0, which makes it a good candidate for factorial-series and
Pade summation.

The b_n are generated exactly by a difference-equation recursion on the
polynomial part of the perturbed wavefunction: writing
psi = exp(-x^2/2) sum_j beta^j P_j(x) with even polynomials
P_j(x) = sum_m A[j][m] x^(2m), A[j][0] = 0 for j >= 1, the Schrodinger
equation gives, per power x^(2m),

    -(2m+2)(2m+1) A[j][m+1] + 4m A[j][m] + A[j-1][m-2]
        = sum_{i=1..j} b_i A[j-i][m],

which is solved top-down from m = 2j; the m = 0 equation then yields
b_j = -2 A[j][1].
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from operator import itemgetter, mul
from typing import Optional

import mpmath
from mpmath import mp

from .errors import DomainError, IntegrityError
from .evaluate import (
    QuadratureSpec,
    SummationReport,
    euler_integral_eval,
    eval_power_as_factorial,
    sum_factorial_series,
)
from .pade import _common_denominator, pade_construct, pade_eval
from .series import FormalSeries, PrecisionContext, Real, SeriesKind, to_mpf
from .stirling import stirling1
from .transforms import power_to_factorial_coeffs

__all__ = [
    "E1Series",
    "OscillatorSeries",
    "e1_reference",
    "e1_reference_quadrature",
    "e1_inverse_power_coeffs",
    "e1_factorial_coeffs",
    "oscillator_coeffs",
    "asymptotics_check",
    "oscillator_energy",
    "OSCILLATOR_METHODS",
]


# --- exponential integral ---------------------------------------------------


def e1_reference(z: Real, prec: PrecisionContext = PrecisionContext()) -> mpmath.mpf:
    """E1(z) for z > 0 via the modified Lentz continued fraction.

    E1(z) = e^-z / (z+1 - 1^2/(z+3 - 2^2/(z+5 - ...))), evaluated with 15
    guard digits; accurate to well beyond P-10 digits.
    """
    with prec.workdps(15):
        zv = to_mpf(z)
        if not (zv > 0):
            raise DomainError(f"e1_reference requires z > 0, got {z}")
        tiny = mp.mpf(10) ** (-2 * mp.dps)
        tol = mp.mpf(10) ** (-mp.dps + 2)
        b = zv + 1
        f = b if b != 0 else tiny
        c = f
        d = mp.mpf(0)
        for i in range(1, 100000):
            a = -mp.mpf(i) ** 2
            b += 2
            d = b + a * d
            if d == 0:
                d = tiny
            c = b + a / c
            if c == 0:
                c = tiny
            d = 1 / d
            delta = c * d
            f *= delta
            if abs(delta - 1) < tol:
                break
        return mp.e**-zv / f


def e1_reference_quadrature(
    z: Real, prec: PrecisionContext = PrecisionContext()
) -> mpmath.mpf:
    """Independent route: direct high-precision quadrature of int_z^inf e^-t/t dt."""
    with prec.workdps(15):
        zv = to_mpf(z)
        if not (zv > 0):
            raise DomainError(f"e1_reference_quadrature requires z > 0, got {z}")
        return mp.quad(lambda t: mp.e**-t / t, [zv, mp.inf])


def e1_inverse_power_coeffs(order: int) -> FormalSeries:
    """Asymptotic coefficients of e^z E1(z) as an inverse-power series: c_m = (-1)^m m!."""
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    return FormalSeries(
        SeriesKind.INVERSE_POWER, [(-1) ** m * factorial(m) for m in range(order + 1)]
    )


def e1_factorial_coeffs(order: int) -> list[Fraction]:
    """d_n = (-1)^n sum_v s1(n, v) v!, the factorial-series coefficients of e^z E1(z)."""
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    return [
        Fraction((-1) ** n * sum(stirling1(n, v) * factorial(v) for v in range(n + 1)))
        for n in range(order + 1)
    ]


@dataclass(frozen=True)
class E1Series:
    """Both coefficient sets for e^z E1(z), built to a common order."""

    inverse_power: FormalSeries
    factorial: FormalSeries

    @classmethod
    def build(cls, order: int) -> "E1Series":
        return cls(
            inverse_power=e1_inverse_power_coeffs(order),
            factorial=FormalSeries(SeriesKind.FACTORIAL, e1_factorial_coeffs(order)),
        )

    def summation_report(
        self, z: Real, terms: int, prec: PrecisionContext = PrecisionContext()
    ) -> SummationReport:
        """Factorial partial sums with e^z E1(z) attached as the reference."""
        report = sum_factorial_series(self.factorial, z, terms, prec)
        with prec.workdps():
            ref = mp.e ** to_mpf(z) * e1_reference(z, prec)
        return report.with_reference(ref, prec)


# --- quartic anharmonic oscillator ------------------------------------------


@dataclass(frozen=True)
class OscillatorSeries:
    """Ground-state coefficients b_0..b_N for H = p^2 + x^2 + beta x^4."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise IntegrityError("ground energy coefficient b_0 must be 1")
        for n, b in enumerate(self.coeffs[1:], start=1):
            if (b > 0) != (n % 2 == 1) or b == 0:
                raise IntegrityError(f"b_{n} = {b} breaks the (-1)^(n+1) sign pattern")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def shift_coeffs(self, order: int) -> tuple[Fraction, ...]:
        """Energy-shift coefficients b_1..b_{order+1} (the series in beta for dE)."""
        if order + 1 > self.order:
            raise DomainError(f"series holds b_0..b_{self.order}, need b_{order + 1}")
        return self.coeffs[1 : order + 2]


# growing recursion state, extended under _grow_lock and read without it:
# _rows[j] = (D_j, [D_j * A[j][m] for m = 0..2j]), _b[j] = b_j
_rows: list[tuple[int, list[int]]] = [(1, [1])]
_b: list[Fraction] = [Fraction(1)]
_grow_lock = threading.Lock()


def _extend_oscillator(order: int) -> None:
    if len(_b) > order:
        return
    with _grow_lock:
        while len(_b) <= order:
            j = len(_b)
            # c * (sum_i b_i A[j-i][m] - A[j-1][m-2]) as one integer dot product
            # per m: multiplier ws[i-1] for row j-i, and -w for row j-1 shifted by 2
            dens = [_b[i].denominator * _rows[j - i][0] for i in range(1, j)]
            c = lcm(_rows[j - 1][0], *dens)
            ws = [_b[i].numerator * (c // d) for i, d in enumerate(dens, 1)]
            rows = [_rows[j - i][1] for i in range(1, j)]
            w, prev = c // _rows[j - 1][0], _rows[j - 1][1]
            a = [Fraction(0)] * (2 * j + 1)
            hi = Fraction(0)  # A[j][m+1]
            for m in range(2 * j, 0, -1):
                k = j - (m + 1) // 2  # rows j-i with i <= k reach x^(2m)
                s = sum(map(mul, ws[:k], map(itemgetter(m), rows[:k])))
                if m >= 2:
                    s -= w * prev[m - 2]
                t = (2 * m + 2) * (2 * m + 1) * c
                q = hi.denominator
                a[m] = hi = Fraction(t * hi.numerator + s * q, 4 * m * q * c)
            _rows.append(_common_denominator(a))
            _b.append(-2 * a[1])


def oscillator_coeffs(order: int) -> OscillatorSeries:
    """Exact b_0..b_order; b_1 = 3/4, b_2 = -21/16, signs alternating thereafter."""
    if not 0 <= order <= 200:
        raise DomainError(f"order must be in 0..200, got {order}")
    _extend_oscillator(order)
    return OscillatorSeries(tuple(_b[: order + 1]))


def asymptotics_check(
    series: OscillatorSeries, prec: PrecisionContext = PrecisionContext()
) -> list:
    """Ratios r_n of b_n to the large-order prediction
    (-1)^(n+1) sqrt(24) pi^(-3/2) Gamma(n+1/2) (3/2)^n, for n = 1..N."""
    if series.order < 20:
        raise DomainError("asymptotic check needs at least 20 coefficients")
    with prec.workdps():
        pref = mp.sqrt(24) / mp.pi ** mp.mpf("1.5")
        out = []
        for n in range(1, series.order + 1):
            predicted = (-1) ** (n + 1) * pref * mp.gamma(n + mp.mpf(1) / 2) * mp.mpf(3) ** n / 2**n
            out.append(to_mpf(series.coeffs[n]) / predicted)
        return out


OSCILLATOR_METHODS = ("factorial", "pade", "integral")


def oscillator_energy(
    beta: Real,
    order: int,
    method: str,
    prec: PrecisionContext = PrecisionContext(),
    spec: Optional[QuadratureSpec] = None,
) -> mpmath.mpf:
    """Ground-state energy at coupling beta by one of three summation routes.

    factorial: 1 + beta * (product-form factorial series, terms 0..order);
    pade:      1 + beta * [order//2 / order - order//2] Pade approximant to
               the shift series;
    integral:  1 + beta * Euler-integral evaluation of the shift factorial
               series with the conjugate function rebuilt as the same-size
               Pade approximant.

    All three consume the shift coefficients b_1..b_{order+1}, so results at
    a given order are comparable coefficient-for-coefficient.
    """
    if method not in OSCILLATOR_METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {OSCILLATOR_METHODS}")
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    with prec.workdps():
        bv = to_mpf(beta)
        if not (bv > 0):
            raise DomainError(f"coupling beta must be > 0, got {beta}")

    if method == "factorial":
        shift = oscillator_coeffs(order + 1).shift_coeffs(order)
        lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), order)
        inner = eval_power_as_factorial(lam, beta, order + 1, prec).final
    elif method == "pade":
        shift = oscillator_coeffs(order + 1).shift_coeffs(order)
        approx = pade_construct(shift, order // 2, order - order // 2)
        inner = pade_eval(approx, beta, prec)
    else:  # integral
        shift = oscillator_coeffs(order + 1).shift_coeffs(order)
        lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), order)
        reduced = [l / factorial(m) for m, l in enumerate(lam)]
        w = 1 / to_mpf(beta)
        omega = euler_integral_eval(
            reduced,
            w,
            order // 2,
            order - order // 2,
            spec or QuadratureSpec(),
            prec,
        )
        with prec.workdps():
            inner = omega / to_mpf(beta)

    with prec.workdps():
        return 1 + to_mpf(beta) * inner
