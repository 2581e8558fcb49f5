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

The b_n come from Rayleigh-Schrodinger theory in the ladder basis
|k) = (a+)^k |0), with a|k) = k|k-1), a+|k) = |k+1) and (k|k) = k!.  There
H_0 - 1 = 2 a+ a and x^4 = (a + a+)^4 / 4, so every coefficient is rational.
With psi_0 = |0), (0|psi_n) = 0 and psi_n = sum_{s=1..2n} c[n][s] |2s), the
integers C[n][s] = 8^n 2^s s! c[n][s] (C[0] = [1]) and w_n = 8^n b_n obey

    4s C[n][s] = sum_{i<n} w_i C[n-i][s] - 2 v_s(C[n-1]),
    v_s(P) = k(k-2) P[s-2] + (4k-2)k P[s-1] + (6k^2+6k+3) P[s]
             + (k+1)(4k+6) P[s+1] + (k+3)(k+1) P[s+2],   k = 2s,

where v is the five-term band of x^4, and w_n = 12 C[n-1][1] + 6 C[n-1][2].
Wigner's 2n+1 rule takes b_(2n) and b_(2n+1) from psi_0..psi_n (k, l >= 1):

    E_2n   = (psi_(n-1)|V|psi_n) - sum_{k<=n, l<=n-1} E_(2n-k-l) (psi_k|psi_l),
    E_2n+1 = (psi_n|V|psi_n)     - sum_{k,l<=n} E_(2n+1-k-l) (psi_k|psi_l),

with V = x^4 and, on the same integers,

    (psi_k|psi_l)   = sum_s C[k][s] C[l][s] C(2s,s) 4^-s / 8^(k+l),
    (psi_k|V|psi_l) = sum_s C[k][s] v_s(C[l]) C(2s,s) 4^-s / (4 8^(k+l)).

Summed by anti-diagonal, T_t = 32^t sum_{k+l=t} (psi_k|psi_l) is an integer,
and so, with G[n][s] = C[n][s] C(2s,s) 4^(2n-s), is each energy:

    4^m w_m = 2 4^(m-2n) sum_s G[n][s] v_s(C[m-n-1]) - sum_{j=1..m-2} 4^j w_j T_(m-j),

for m = 2n and 2n+1.  So b_0..b_n need the rows only to N = ceil((n-1)/2):
about 2N^3/3 integer products, a quarter of running the rows to order n.
C and w are found integral through n = 100 (b_201), not proved, so every
division is a divmod whose remainder must be 0.
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
    _euler_integral,
    _octave_setup,
    _product_form_sums,
    sum_factorial_series,
)
from .pade import PadeApprox, _pade_value, _with_numerator, pade_construct
from .series import FormalSeries, PrecisionContext, Real, SeriesKind, _rational, to_mpf
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
    global _e1
    if not 0 <= order < len(_e1[1]):
        c = e1_inverse_power_coeffs(order)  # raises for order < 0
        with _grow_lock:
            if len(_e1[1]) <= order:  # re-checked inside: another thread may have grown it
                _e1 = (c.coeffs, inverse_power_to_factorial(c, order).coeffs)
    return list(_e1[1][: order + 1])


@dataclass(frozen=True)
class E1Series:
    """Both coefficient sets for e^z E1(z), built to a common order."""

    inverse_power: FormalSeries
    factorial: FormalSeries

    @classmethod
    def build(cls, order: int) -> "E1Series":
        d = e1_factorial_coeffs(order)  # the table now reaches order, and never shrinks
        return cls(inverse_power=FormalSeries(SeriesKind.INVERSE_POWER, _e1[0][: order + 1]),
                   factorial=FormalSeries(SeriesKind.FACTORIAL, d))

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
        Pade Approximants; Bender & Orszag, ch. 8).  pade_construct's own
        numerator step completes it, so the result equals
        pade_construct(coeffs, max(h-1, 0), h) without a linear solve.  The
        coefficients must be E1's, as build() makes them.
        """
        h = len(self.inverse_power.coeffs) // 2
        den = [Fraction(comb(h, k) ** 2 * factorial(k)) for k in range(h + 1)]
        return _with_numerator(self.inverse_power.coeffs, max(h - 1, 0), den)


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


# growing state, extended under _grow_lock and read without it; _e1 = (c_0..c_N, d_0..d_N)
# of E1 for the largest N asked so far, replaced whole.  For oscillator rows n = 0..N:
# _rows[n] = [C[n][s] for s = 0..2n]; _weighted[n] = [G[n][s] for s = 0..2n];
# _T[t] = T_t over the pairs k, l <= N; _w[m] = w_m and _b[m] = b_m, m = 0..2N+1;
# _approx[(order, route)] = the checked approximant oscillator_energy uses
_e1: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] = ((), ())
_rows: list[list[int]] = [[1]]
_weighted: list[list[int]] = [[1]]
_T: list[int] = [0, 0]
_w: list[int] = [1, 6]
_b: list[Fraction] = [Fraction(1), Fraction(3, 4)]
_approx: dict[tuple[int, str], PadeApprox] = {}
_grow_lock = threading.Lock()


def _band(p: list[int]) -> list[int]:
    """[v_s(P) for s = 0..len(P)+1], the band of the module docstring."""
    q = [0, 0, *p, 0, 0, 0, 0]
    out = []
    for s in range(len(p) + 2):
        k = 2 * s
        out.append(k * (k - 2) * q[s] + (4 * k - 2) * k * q[s + 1]
                   + (6 * k * k + 6 * k + 3) * q[s + 2] + (k + 1) * (4 * k + 6) * q[s + 3]
                   + (k + 3) * (k + 1) * q[s + 4])
    return out


def _exact(num: int, den: int, name: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise IntegrityError(f"{name} is not an integer: remainder {r} mod {den}")
    return q


def _extend_oscillator(order: int) -> None:
    if len(_b) > order:
        return
    with _grow_lock:
        while len(_b) <= order:
            # row n, then w_2n and w_2n+1; nothing is stored until every division
            # is exact, and b is appended last, so readers of b see the rest
            n = len(_rows)
            ws, rows, vp = _w[1:n], _rows[:0:-1], _band(_rows[-1])
            c = [0] * (2 * n + 1)
            for s in range(1, 2 * n + 1):
                k = n - (s + 1) // 2  # rows n-i with i <= k reach |2s)
                dot = sum(map(mul, ws[:k], map(itemgetter(s), rows[:k])))
                c[s] = _exact(dot - 2 * vp[s], 4 * s, f"C[{n}][{s}]")
            g = [x * comb(2 * s, s) << 2 * (2 * n - s) for s, x in enumerate(c)]
            # o[l] = 32^(n+l) (psi_n|psi_l), l = 1..n; w4[j] = 4^j w_j; t[i] = T_i
            o = [0] + [sum(map(mul, c, gl)) << 2 * (n - l) for l, gl in enumerate(_weighted[1:], 1)]
            o.append(sum(map(mul, c, g)))
            w4, t = [x << 2 * j for j, x in enumerate(_w)], _T + [0, 0]
            for l in range(1, n):  # E_2n's sum takes the pairs (n, l < n) ...
                t[n + l] += o[l]
            even = 2 * sum(map(mul, g, vp)) - sum(map(mul, w4[1:], t[2 * n - 1 : 1 : -1]))
            even = _exact(even, 4 ** (2 * n), f"w_{2 * n}")
            for l in range(1, n):  # ... and E_2n+1's (l < n, n) and (n, n) too
                t[n + l] += o[l]
            t[2 * n] = o[n]
            w4.append(even << 4 * n)
            odd = 8 * sum(map(mul, g, _band(c))) - sum(map(mul, w4[1:], t[2 * n : 1 : -1]))
            odd = _exact(odd, 4 ** (2 * n + 1), f"w_{2 * n + 1}")
            _rows.append(c)
            _weighted.append(g)
            _T[:] = t
            _w.extend((even, odd))
            _b.extend((Fraction(even, 8 ** (2 * n)), Fraction(odd, 8 ** (2 * n + 1))))


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
    sum_m lambda_m/m! u^m, which must pass _octave_setup's pole scan to be kept."""
    approx = _approx.get((order, route))
    if approx is None:
        shift = oscillator_coeffs(order + 1).shift_coeffs(order)
        if route == "pade":
            approx = pade_construct(shift, order // 2, order - order // 2)
        else:
            lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), order)
            reduced = [l / factorial(m) for m, l in enumerate(lam)]
            approx = pade_construct(reduced, order // 2, order - order // 2)
            _octave_setup(approx)
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
    integral:  1 + Omega(1/beta), Omega the Euler integral of the shift factorial
               series, its conjugate function the same-size Pade approximant.

    All three consume the shift coefficients b_1..b_{order+1}, so results at
    a given order are comparable coefficient-for-coefficient.  beta is read
    exactly (a str as a decimal); the factorial and pade energies are exact and
    each energy is rounded once, to 10 guard digits.  The pade and integral
    approximants depend on the order alone and are built once per process.
    """
    if method not in OSCILLATOR_METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {OSCILLATOR_METHODS}")
    if not 1 <= order <= 199:  # every route reads b_(order+1), and b_200 is the last
        raise DomainError(f"order must be in 1..199, got {order}")
    if not (b := _rational(beta)) > 0:
        raise DomainError(f"coupling beta must be > 0, got {beta}")

    if method == "factorial":
        shift = oscillator_coeffs(order + 1).shift_coeffs(order)
        lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), order)
        inner = Fraction(*_product_form_sums(lam, b)[-1])
    elif method == "pade":
        inner = _pade_value(_oscillator_approx(order, method), b)
    else:  # integral
        omega = _euler_integral(_oscillator_approx(order, method), 1 / b, spec, prec)
    with prec.workdps(10):
        return 1 + omega if method == "integral" else to_mpf(1 + b * inner)
