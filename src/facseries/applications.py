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
b_j = -2 A[j][1].  On the integers C[j][m] = 8^j m! A[j][m] it reads

    2m C[j][m] = (2m+1) C[j][m+1] - sum_{i<j} C[i][1] C[j-i][m] - 4m(m-1) C[j-1][m-2],

with b_j = -2 C[j][1] / 8^j.  Each denominator of A[j][m] divides 8^j m! (4^j m! fails
at A[1][1] = -3/8).  That is found through j = 200, not proved, so each entry's
division by 2m is a divmod whose remainder must be 0.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from operator import itemgetter, mul

import mpmath
from mpmath import mp

from .errors import DomainError, IntegrityError
from .evaluate import (
    QuadratureSpec,
    SummationReport,
    _check_poles_in_unit_interval,
    _euler_integral,
    eval_power_as_factorial,
    sum_factorial_series,
)
from .pade import PadeApprox, pade_construct, pade_eval
from .series import FormalSeries, PrecisionContext, Real, SeriesKind, _common_denominator, to_mpf
from .transforms import inverse_power_to_factorial, power_to_factorial_coeffs

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
    """E1(z) for z > 0 by mpmath's ``e1``, with 15 guard digits."""
    with prec.workdps(15):
        zv = to_mpf(z)
        if not (zv > 0):
            raise DomainError(f"e1_reference requires z > 0, got {z}")
        return mp.e1(zv)


def e1_reference_quadrature(
    z: Real, prec: PrecisionContext = PrecisionContext()
) -> mpmath.mpf:
    """Independent route: direct high-precision quadrature of int_z^inf e^-t/t dt."""
    with prec.workdps(15):
        zv = to_mpf(z)
        if not (zv > 0):
            raise DomainError(f"e1_reference_quadrature requires z > 0, got {z}")
        return mp.quad(lambda t: mp.exp(-t) / t, [zv, mp.inf])


def e1_inverse_power_coeffs(order: int) -> FormalSeries:
    """Asymptotic coefficients of e^z E1(z) as an inverse-power series: c_m = (-1)^m m!."""
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    return FormalSeries(
        SeriesKind.INVERSE_POWER, [(-1) ** m * factorial(m) for m in range(order + 1)]
    )


def e1_factorial_coeffs(order: int) -> list[Fraction]:
    """d_n = (-1)^n sum_v s1(n, v) v!, the factorial-series coefficients of e^z E1(z)."""
    return list(inverse_power_to_factorial(e1_inverse_power_coeffs(order), order).coeffs)


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
        """Factorial partial sums with e^z E1(z), to 15 guard digits, as the reference."""
        report = sum_factorial_series(self.factorial, z, terms, prec)
        with prec.workdps(15):
            ref = mp.exp(to_mpf(z)) * e1_reference(z, prec)
        return report.with_reference(ref, prec)

    def pade(self) -> PadeApprox:
        """[h-1/h] Pade approximant of ``inverse_power`` in w = 1/z, with
        h = len(coeffs)//2 ([0/0] when h = 0), in closed form.

        sum (-1)^m m! w^m is the Stieltjes series of int_0^inf e^-t/(1+wt) dt;
        its [h-1/h] denominator is h! w^h L_h(-1/w), L_h the Laguerre
        polynomial, with coefficients b_k = C(h, k)^2 k! (Baker & Graves-Morris,
        Pade Approximants; Bender & Orszag, ch. 8).  The numerator is the
        convolution num_k = sum_j b_j c_(k-j), as pade_construct forms it, so the
        result equals pade_construct(coeffs, max(h-1, 0), h) without a linear
        solve.  The coefficients must be E1's, as build() makes them.
        """
        c = self.inverse_power.coeffs
        h = len(c) // 2
        den = [comb(h, k) ** 2 * factorial(k) for k in range(h + 1)]
        dc, cs = _common_denominator(c[: max(h, 1)])
        num = [Fraction(sum(map(mul, den, reversed(cs[: k + 1]))), dc) for k in range(len(cs))]
        return PadeApprox(num=tuple(num), den=tuple(map(Fraction, den)))


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
# _rows[j] = [C[j][m] for m = 0..2j+1] (C[j][2j+1] = 0), C = 8^j m! A; _b[j] = b_j;
# _approx[(order, route)] = the checked approximant oscillator_energy uses
_rows: list[list[int]] = [[1]]
_b: list[Fraction] = [Fraction(1)]
_approx: dict[tuple[int, str], PadeApprox] = {}
_grow_lock = threading.Lock()


def _extend_oscillator(order: int) -> None:
    if len(_b) > order:
        return
    with _grow_lock:
        while len(_b) <= order:
            j = len(_b)
            # sum_i C[i][1] C[j-i][m] as one integer dot product per m (ws[i-1],
            # rows[i-1]); the row is appended before b_j, so readers of b_j see it
            ws, rows, prev = [r[1] for r in _rows[1:]], _rows[:0:-1], _rows[-1]
            c = [0] * (2 * j + 2)
            for m in range(2 * j, 0, -1):
                k = j - (m + 1) // 2  # rows j-i with i <= k reach x^(2m)
                s = (2 * m + 1) * c[m + 1] - sum(map(mul, ws[:k], map(itemgetter(m), rows[:k])))
                if m >= 2:
                    s -= 4 * m * (m - 1) * prev[m - 2]
                c[m], r = divmod(s, 2 * m)
                if r:
                    raise IntegrityError(f"C[{j}][{m}] is not an integer: remainder {r} mod {2 * m}")
            _rows.append(c)
            _b.append(Fraction(-2 * c[1], 8**j))


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


def _oscillator_approx(order: int, route: str) -> PadeApprox:
    """The [order//2 / order - order//2] approximant of the route, built once:
    for "pade" to the shift series, for "integral" to its conjugate function
    sum_m lambda_m/m! u^m, which must pass the pole scan to be kept."""
    approx = _approx.get((order, route))
    if approx is None:
        shift = oscillator_coeffs(order + 1).shift_coeffs(order)
        if route == "pade":
            approx = pade_construct(shift, order // 2, order - order // 2)
        else:
            lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), order)
            reduced = [l / factorial(m) for m, l in enumerate(lam)]
            approx = pade_construct(reduced, order // 2, order - order // 2)
            _check_poles_in_unit_interval(approx)
        with _grow_lock:
            approx = _approx.setdefault((order, route), approx)
    return approx


def oscillator_energy(
    beta: Real,
    order: int,
    method: str,
    prec: PrecisionContext = PrecisionContext(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> mpmath.mpf:
    """Ground-state energy at coupling beta by one of three summation routes.

    factorial: 1 + beta * (product-form factorial series, terms 0..order);
    pade:      1 + beta * [order//2 / order - order//2] Pade approximant to
               the shift series;
    integral:  1 + beta * Euler-integral evaluation of the shift factorial
               series with the conjugate function rebuilt as the same-size
               Pade approximant.

    All three consume the shift coefficients b_1..b_{order+1}, so results at
    a given order are comparable coefficient-for-coefficient.  The pade and
    integral approximants depend on the order alone and are built once per
    process.
    """
    if method not in OSCILLATOR_METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {OSCILLATOR_METHODS}")
    if not 1 <= order <= 199:  # every route reads b_(order+1), and b_200 is the last
        raise DomainError(f"order must be in 1..199, got {order}")
    with prec.workdps():
        bv = to_mpf(beta)
        if not (bv > 0):
            raise DomainError(f"coupling beta must be > 0, got {beta}")

    if method == "factorial":
        shift = oscillator_coeffs(order + 1).shift_coeffs(order)
        lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), order)
        inner = eval_power_as_factorial(lam, beta, order + 1, prec).final
    elif method == "pade":
        inner = pade_eval(_oscillator_approx(order, method), beta, prec)
    else:  # integral
        with prec.workdps(10):  # _euler_integral's precision
            w = 1 / to_mpf(beta)
        omega = _euler_integral(_oscillator_approx(order, method), w, spec, prec)
        with prec.workdps():
            inner = omega / to_mpf(beta)

    with prec.workdps():
        return 1 + to_mpf(beta) * inner
