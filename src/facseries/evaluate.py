"""Numerical evaluation back-ends for factorial series.

Three routes:

* partial sums of sum_n d_n/(z)_{n+1} and of the product form sum_m (lambda_m/m!)
  prod_{k=1..m} z/(z+1/k) of power series transformed by transforms.power_to_factorial_coeffs,
  by one integer loop (_product_form_sums): each exact at z's exact value, then rounded once;
* the Euler-integral representation int_0^1 t^(z-1) phi(1-t) dt with the
  conjugate function phi(u) = sum_n a_n u^n rebuilt as a Pade approximant.

quadrature_01 is composite Gauss-Legendre with high-precision nodes.  The Euler
integral runs on octaves.  A zero of order m of den at u = 1 is divided out,
psi = num/(den/(1-u)^m) and z' = z - m (z <= m is a DomainError: the integral
diverges).  With h = 2^-K and a = 2^-z',

    int_0^1 = int_0^h + sum_{k<K} a^(k+1) int_1^2 s^(z'-1) psi(1 - 2^-(k+1) s) ds,

so one Gauss-Legendre rule on [1, 2] serves every octave.  Its nodes carry
Phi_j = sum_k a^k psi_(k,j), an integer Horner in a over a fixed-point table
psi_(k,j) that depends on the approximant alone (kept in PadeApprox._node_tables),
and a request forms only the powers a s_j^(z'-1) = (s_j/2)^(z'-1)/2, at most 1
for every z', in integers: an ln 2 reduction and a fixed-point exp at prec + 34 bits,
each off by about one unit of 2^-(prec+34), below the sum's unit 2^-(prec+20).
The head is exact for every z' > 0: h^z' sum_k c_k h^k/(z'+k), c_k the Taylor
coefficients of psi(1-t) at t = 0 from the exact shift num(1-t), den(1-t) and a
fixed-point division, c_0/z' in floating point.  K >= 4
puts h at most 1/8 of Fujiwara's lower bound on the root moduli of den(1-t)/t^m,
so the head series converges like 5^-k or faster.  A QuadratureSpec(points, panels)
runs one pass of N = 2 max(1, panels // 4) panels of `points` nodes on [1, 2], N
doubling up to 128 while z' > `points` N/2, as the layer of t^(z'-1) at t = 1 is
about 1/z' wide; past z' = 64 `points` the rule warns that z' is out of its reach.
It also warns where the pass's estimated error exceeds 10^-(P/2): the larger of the
estimate from s^(z'-1) alone (_power_error) and the one from psi (_octave_table).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate
from math import comb
from typing import Callable, Iterable, Optional, Sequence

import mpmath
from mpmath import libmp, mp
from mpmath.libmp.libelefun import exp_basecase

from .errors import DomainError, IntegrationError, PoleInDomainError
from .pade import PadeApprox, pade_construct
from .series import (
    FormalSeries,
    PrecisionContext,
    Real,
    SeriesKind,
    _check_pole,
    _common_denominator,
    _rational,
    _round,
    to_mpf,
)

__all__ = [
    "QuadratureSpec",
    "SummationReport",
    "QuadratureConvergenceWarning",
    "quadrature_01",
    "sum_factorial_series",
    "eval_power_as_factorial",
    "euler_integral_eval",
]


class QuadratureConvergenceWarning(UserWarning):
    """quadrature_01's panel doubling moved the result by more than 10^-(P/2); or the
    Euler integral's pass is estimated to err by more than that, or z' is past its reach."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre points per panel and a panel count.  quadrature_01 cuts [0, 1]
    into `panels`, then 2 `panels` panels, and compares the two; the Euler integral's
    octave rule runs one pass on 2 max(1, panels // 4) panels of [1, 2] (more for z'
    past `points` times half that), its error estimated from s^(z'-1) and psi."""

    points_per_panel: int = 32
    panels: int = 8

    def __post_init__(self):
        if self.points_per_panel < 8:
            raise DomainError("need at least 8 points per panel")
        if self.panels < 1:
            raise DomainError("need at least one panel")
        if self.points_per_panel * self.panels < 16:
            raise DomainError("need at least 16 quadrature nodes in total")


@dataclass(frozen=True)
class SummationReport:
    """Partial sums of a summation run, optionally against a reference value."""

    partial_sums: tuple
    final: mpmath.mpf
    reference: Optional[mpmath.mpf] = None
    relative_errors: Optional[tuple] = None

    def with_reference(self, reference: Real, prec: PrecisionContext) -> "SummationReport":
        """Attach a reference (kept to 15 guard digits) and each sum's relative error,
        |s - ref| / |ref| with each step rounded at P + 15 digits."""
        wp, rnd = libmp.dps_to_prec(prec.digits + 15), libmp.round_nearest
        ref = _round(reference, wp)
        size = libmp.mpf_abs(ref)
        errs = tuple(mp.make_mpf(libmp.mpf_div(libmp.mpf_abs(libmp.mpf_sub(s._mpf_, ref, wp, rnd)),
                                               size, wp, rnd)) for s in self.partial_sums)
        return replace(self, reference=mp.make_mpf(ref), relative_errors=errs)


# --- Gauss-Legendre nodes ---------------------------------------------------

_GL_CACHE: dict = {}


def _gauss_legendre_nodes(n: int) -> tuple[list, list]:
    """Nodes (descending) and weights on [-1, 1] at the current mpmath precision.

    For the ceil(n/2) non-negative nodes, Newton on P_n in fixed-point integers
    with 20 guard bits from the cosine guess, rounded once to an mpf node x; the
    weight is 2/((1 - x^2) P_n'(x)^2) in mpf.  The rest are their mirror images,
    with the same weights.  Cached per (n, working precision).
    """
    key = (n, mp.prec)
    if key in _GL_CACHE:
        return _GL_CACHE[key]
    bits = mp.prec + 20
    one = 1 << bits
    half = []
    for i in range((n + 1) // 2):
        # mpmath's cos, not math.cos: a first math.cos faults libm pages in, +64 KB of peak RSS
        guess = libmp.to_fixed(mp.cos(mp.pi * (i + 0.75) / (n + 0.5))._mpf_, bits)
        fx = 0 if 2 * i + 1 == n else guess  # the middle root of an odd P_n is 0
        for _ in range(100):
            p0, p1 = one, fx
            for j in range(2, n + 1):
                p0, p1 = p1, (((2 * j - 1) * fx * p1 >> bits) - (j - 1) * p0) // j
            # dx = P_n/P_n' = P_n (x^2 - 1) / (n (x P_n - P_(n-1))), all scaled by 2^bits
            dx = p1 * ((fx * fx >> bits) - one) // (n * ((fx * p1 >> bits) - p0) or 1)
            fx -= dx
            if abs(dx) < 1 << 10:
                break
        x = mp.make_mpf(libmp.from_man_exp(fx, -bits, mp.prec, libmp.round_nearest))
        p0, p1 = 1, x  # P_(n-1)(x) and P_n(x) by the three-term recurrence, in mpf
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1)
        half.append((x, 2 / ((1 - x * x) * dp * dp)))
    half += [(-x, w) for x, w in reversed(half[: n // 2])]
    _GL_CACHE[key] = tuple(map(list, zip(*half)))
    return _GL_CACHE[key]


def _composite_gl(f: Callable, lo, hi, points: int, panels: int) -> mpmath.mpf:
    """Composite Gauss-Legendre sum of f over [lo, hi]; raises on a non-finite f(t)."""
    nodes, weights = _gauss_legendre_nodes(points)
    width = (hi - lo) / panels
    half = width / 2
    total = mp.mpf(0)
    for p in range(panels):
        mid = lo + p * width + half
        for x, w in zip(nodes, weights):
            t = mid + half * x
            val = f(t)
            if not mp.isfinite(val):
                raise IntegrationError(f"non-finite integrand value at t={t}")
            total += w * val
    return total * width / 2


def quadrature_01(
    f: Callable,
    spec: QuadratureSpec = QuadratureSpec(),
    prec: PrecisionContext = PrecisionContext(),
) -> mpmath.mpf:
    """Composite Gauss-Legendre estimate of int_0^1 f(t) dt.

    The panel count is doubled once for an error estimate; if the two results
    differ by more than 10^-(P/2) relative (absolute if the refined value is
    0), a QuadratureConvergenceWarning is emitted.  The refined value is returned.
    """
    with prec.workdps(10):
        coarse, fine = (_composite_gl(f, mp.mpf(0), mp.mpf(1), spec.points_per_panel, n)
                        for n in (spec.panels, 2 * spec.panels))
        if abs(fine - coarse) / (abs(fine) or 1) > prec.tol(prec.digits // 2):
            warnings.warn(f"panel doubling moved the estimate by {abs(fine - coarse)}",
                          QuadratureConvergenceWarning)
        return fine


# --- summation back-ends ----------------------------------------------------


def sum_factorial_series(
    d: FormalSeries,
    z: Real,
    terms: int,
    prec: PrecisionContext = PrecisionContext(),
) -> SummationReport:
    """Partial sums sum_{n<=m} d_n/(z)_{n+1}, m < terms, each exact, then rounded once to 10 guard
    digits: w times the product form's at w = 1/z, as (z)_{n+1} = z^(n+1) prod_{k<=n} (1 + k w)."""
    if d.kind is not SeriesKind.FACTORIAL:
        raise DomainError(f"expected factorial series, got {d.kind.value}")
    if not 1 <= terms <= len(d):
        raise DomainError(f"terms must be in 1..{len(d)}, got {terms}")
    wp, rnd = libmp.dps_to_prec(prec.digits + 10), libmp.round_nearest
    _check_pole(_round(zq := _rational(z), wp), terms - 1, prec, 10)  # before 1/z: 0 is a pole
    w = 1 / zq
    sums = tuple(mp.make_mpf(libmp.from_rational(w.numerator * p, w.denominator * q, wp, rnd))
                 for p, q in _product_form_sums(d.coeffs[:terms], w))
    return SummationReport(partial_sums=sums, final=sums[-1])


def eval_power_as_factorial(
    lam: Sequence,
    z: Real,
    terms: int,
    prec: PrecisionContext = PrecisionContext(),
) -> SummationReport:
    """Partial sums of sum_m (lambda_m/m!) prod_{k=1..m} z/(z+1/k) for z > 0, ``lam``
    from power_to_factorial_coeffs: each exact, then rounded once to 10 guard digits."""
    if not 1 <= terms <= len(lam):
        raise DomainError(f"terms must be in 1..{len(lam)}, got {terms}")
    if not (zq := _rational(z)) > 0:
        raise DomainError(f"product form requires z > 0, got {z}")
    wp = libmp.dps_to_prec(prec.digits + 10)
    sums = tuple(mp.make_mpf(libmp.from_rational(p, q, wp, libmp.round_nearest))
                 for p, q in _product_form_sums(map(_rational, lam[:terms]), zq))
    return SummationReport(partial_sums=sums, final=sums[-1])


def _product_form_sums(lam: Iterable[Fraction], z: Fraction) -> list[tuple[int, int]]:
    """The exact partial sums of the product form at z = a/b, whose term m is
    lambda_m a^m / prod_{k<=m} (k a + b), as unreduced (numerator, denominator)."""
    a, b = z.numerator, z.denominator
    d, cleared = _common_denominator(list(lam))
    acc, den, power, sums = 0, d, 1, []
    for m, c in enumerate(cleared):
        step = m * a + b if m else 1
        acc, den, power = acc * step + c * power, den * step, power * a
        sums.append((acc, den))
    return sums


def _horner_fixed(coeffs: Sequence[int], m: int, s: int) -> int:
    """Horner on integer coefficients at u = m 2^-s: acc = ((acc m) >> s) + c."""
    acc = 0
    for c in reversed(coeffs):
        acc = ((acc * m) >> s) + c
    return acc


def _fixed(n: int, d: int, bits: int) -> int:
    """floor(n/d 2^bits)."""
    return (n << max(bits, 0)) // (d << max(-bits, 0))


def _fixed_point(p: PadeApprox, extra: int = 0) -> list[tuple[int, list[int]]]:
    """[(w, [ceil(c 2^w) for c in cs]) for cs in (p.num, p.den)], each w as
    _fixed_point_phi states, plus `extra` bits."""
    guard = (p.L + p.M + 2).bit_length() + 4 + extra
    scaled = []
    for cs in (p.num, p.den):
        big = max(abs(c) for c in cs)  # 2^e < big < 2^(e+2), e from the bit lengths
        w = mp.prec + guard - (big.numerator.bit_length() - big.denominator.bit_length() - 1)
        scaled.append((w, [-_fixed(-c.numerator, c.denominator, w) for c in cs]))
    return scaled


def _fixed_point_phi(p: PadeApprox) -> tuple[int, Callable]:
    """(F, phi) with phi(m, s) = floor(num(u)/den(u) 2^F) at u = m 2^-s in [0, 1],
    by fixed-point integer Horner; ZeroDivisionError where den(u) rounds to 0.

    Each polynomial has its own scale 2^-w: with 2^e < max|c| < 2^(e+2),
    w = prec + g - e and g = bitlen(L+M+2) + 4 guard bits.  acc = ((acc m) >> s) + C
    runs over C = ceil(c 2^w): C rounds up and the shift down, so each step errs
    by less than 2^-w and |u| <= 1 keeps the errors from growing.  Each polynomial
    is therefore off by at most (deg+1) 2^-w < 2^-(prec+4) max|c|, relative to its
    own largest coefficient, however small or large the coefficients are.  The
    quotient is one integer division, floor(N 2^(prec+40) / D), so F = prec + 40 +
    w_num - w_den; as D < 2^(prec+g+2) (M+1) < 2^(prec+40), its unit 2^-F is below
    one unit of N over D.

    Where num or den cancels, its value V loses bitlen(sum |C|) - bitlen(V) of those
    bits.  The working precision's 10 guard digits hold 33, so where either loses
    more than 32, both are formed again with that many more bits, rounded up to a
    multiple of 32 (F unchanged).  E1's conjugate [29/30] loses up to 72 bits on
    [0, 1]; the oscillator's approximants of orders 20-54 at most 29, so they never do.
    """
    (wn, num), (wd, den) = _fixed_point(p)
    (low_n, low_d), shift = (sum(map(abs, cs)).bit_length() - 32 for cs in (num, den)), mp.prec + 40
    wider = cache(partial(_fixed_point, p))

    def phi(m: int, s: int) -> int:
        n, d = _horner_fixed(num, m, s), _horner_fixed(den, m, s)
        if n.bit_length() < low_n or d.bit_length() < low_d:  # more than 32 bits lost
            lost = 32 + max(low_n - n.bit_length(), low_d - d.bit_length())
            n, d = (_horner_fixed(cs, m, s) for _, cs in wider(-(-lost // 32) * 32))
        return (n << shift) // d

    return shift + wn - wd, phi


def _check_poles_in_unit_interval(p: PadeApprox) -> None:
    """Exact sign scan of the denominator on 65 interior points of (0, 1).

    At u = q/130, den(u) has the sign of the integer sum_k (D den_k) q^k 130^(M-k),
    D > 0 the common denominator, so the scan forms no Fraction.  den(0) = 1, and
    a pole at u = 1 lowers the Euler integral's exponent (see _octave_setup).
    """
    scaled = [c * 130 ** (p.M - k) for k, c in enumerate(p._cleared[1][1])]
    signs = []
    for i in range(65):
        q = 2 * i + 1
        val = _horner_fixed(scaled, q, 0)
        if val == 0:
            raise PoleInDomainError(f"Pade denominator vanishes at u={Fraction(q, 130)}")
        signs.append(val > 0)
    if any(a != b for a, b in zip(signs, signs[1:])):
        raise PoleInDomainError("Pade denominator changes sign inside (0, 1)")


def euler_integral_eval(
    a: Sequence,
    z: Real,
    pade_l: int,
    pade_m: int,
    spec: QuadratureSpec = QuadratureSpec(),
    prec: PrecisionContext = PrecisionContext(),
) -> mpmath.mpf:
    """Evaluate a factorial series via int_0^1 t^(z-1) phi(1-t) dt.

    ``a`` are the reduced coefficients a_n = d_n/n! of the series; phi is the
    power series sum_n a_n u^n in u = 1-t, replaced by its [pade_l/pade_m]
    Pade approximant before integrating.
    """
    return _euler_integral(pade_construct(a, pade_l, pade_m), z, spec, prec)


def _euler_integral(
    approx: PadeApprox, z: Real, spec: QuadratureSpec, prec: PrecisionContext
) -> mpmath.mpf:
    """int_0^1 t^(z-1) phi(1-t) dt by the octave rule (see the module docstring),
    phi the approximant; PoleInDomainError if _octave_setup's pole scan fails."""
    with prec.workdps(10):
        zq, setup = _rational(z), _octave_setup(approx)
        m, K = setup[:2]
        if not (zq > m):
            pole = f" (phi has a pole of order {m} at t = 0)" if m else ""
            raise DomainError(f"integral representation requires z > {m}, got {z}{pole}")
        zm = to_mpf(zq - m)
        a, g, (f, head) = mp.mpf(2) ** -zm, mp.prec + 20, _head_series(approx, setup)
        zf, panels = libmp.to_fixed(zm._mpf_, g), max(1, spec.panels // 4)
        while spec.points_per_panel * panels < zm and panels < 64:  # the layer at t = 1
            panels = min(2 * panels, 64)
        if spec.points_per_panel * panels < zm:
            warnings.warn(f"z' = {zm} is past the octave rule's reach", QuadratureConvergenceWarning)
        panels, n = 2 * panels, spec.points_per_panel
        err = max(_power_error(zm, (zq - m).denominator == 1, n, panels),
                  _octave_table(approx, setup, n, panels)[2])
        if err > prec.tol(prec.digits // 2):
            warnings.warn(f"{panels} panels of {n} points reach only about {mp.nstr(err, 3)}",
                          QuadratureConvergenceWarning)
        # E_0/z' in floating point, as z' may lie far below 2^-g
        rest = sum((e << g) // (zf + (k << g)) for k, e in enumerate(head[1:], 1))
        head_sum = mp.ldexp(head[0] / zm + rest, -f)
        return a**K * head_sum + _octave_sum(approx, setup, zm, a, n, panels)


def _power_error(zm, entire: bool, n: int, panels: int) -> mpmath.mpf:
    """The pass's relative error from (s/2)^(z'-1) alone, as M rho^(-2n) for N = `panels`
    panels of n points on [1, 2], |f| <= M on a panel's Bernstein ellipse E_rho
    (Trefethen, SIAM Rev. 50, 2008, Thm 4.5).  For z' not an integer, the first panel's
    E_rho through the branch point s = 0, rho = (2N+1) + sqrt((2N+1)^2 - 1), M about 1;
    past z' = 2n + 1, the last panel's (half-width h) M = (1 + h (A - 1)/2)^(z'-1),
    A = (rho + 1/rho)/2, at the rho = 4n (2 - h)/(h (z' - 1 - 2n)) that about minimises it."""
    err, d = 0 if entire else _branch_error(n, panels, mp.prec), zm - 1 - 2 * n
    if d > 0:
        h = mp.mpf(1) / (2 * panels)
        r = max(4 * n * (2 - h) / (h * d), 2)
        err = max(err, (1 + h * ((r + 1 / r) / 2 - 1) / 2) ** (zm - 1) * r ** (-2 * n))
    return err


@cache
def _branch_error(n: int, panels: int, prec: int) -> mpmath.mpf:
    """_power_error's rho^(-2n) through s = 0, kept per pass shape; at mpmath precision prec."""
    c = mp.mpf(2 * panels + 1)
    return (c + mp.sqrt(c * c - 1)) ** (-2 * n)


def _octave_setup(approx: PadeApprox) -> tuple:
    """(m, K, psi, p, b, q), kept for the approximant's lifetime: m the order of
    den's zero at u = 1, K the octave count, psi = num/(den/(1-u)^m) as a
    PadeApprox, and integers with psi(1-t) = (sum_k p_k t^k / b) / (sum_i q_i t^i / q_0).

    K is the least integer >= 4 with h = 2^-K at most 1/8 of Fujiwara's lower bound
    1/(2 max(|q_1/q_0|, ..., |q_n/(2 q_0)|^(1/n))) on the root moduli of den(1-t)/t^m:
    then |q_i/q_0| h^i <= 16^-i (twice that at i = n).  An approximant that fails
    _check_poles_in_unit_interval raises PoleInDomainError and is given no set-up.
    """
    tables = approx._node_tables
    if "setup" not in tables:
        _check_poles_in_unit_interval(approx)
        (dn, p), (dd, q) = approx._cleared
        m, psi = 0, PadeApprox(approx.num, approx.den)  # not approx itself: no reference cycle
        while sum(q) == 0:  # den(1) = 0: den/(1-u) has den's prefix sums as coefficients
            q, m = list(accumulate(q[:-1])), m + 1
            psi = PadeApprox(approx.num, tuple(Fraction(c, dd) for c in q))
        p, q = ([(-1) ** k * sum(comb(j, k) * c for j, c in enumerate(cs) if j >= k)
                 for k in range(len(cs))] for cs in (p, q))  # c(1 - t) from c(u)
        n, k = len(q) - 1, 4
        while any(abs(c) > abs(q[0]) << ((k - 4) * i + (i == n)) for i, c in enumerate(q[1:], 1)):
            k += 1
        tables.setdefault("setup", (m, k, psi, [c * dd for c in p], dn * q[0], q))
    return tables["setup"]


def _head_series(approx: PadeApprox, setup: tuple) -> tuple[int, list[int]]:
    """(F, [E_0 .. E_N]), kept per working precision: E_k = c_k h^k 2^F, c_k the
    Taylor coefficients of psi(1-t) at t = 0, so the head is h^z' sum_k E_k 2^-F/(z'+k).

    With g = prec + 20, E_k = P_k - (sum_i R_i E_(k-i) >> g) over P_k =
    floor(p_k h^k 2^F / b) and R_i = floor(q_i h^i 2^g / q_0), F putting the
    largest |P_k| near 2^g.  As |q_i/q_0| h^i <= 16^-i, 1/(sum_i q_i h^i x^i / q_0)
    has coefficients below (3/16)^k < 5^-k: errors do not grow, |E_k| <= 5^-k T with
    T = sum_k |P_k| 5^k, and past N, the least with 5^N > T, the terms sum to < 5/4 unit.
    """
    tables, key = approx._node_tables, ("head", mp.prec)
    if key not in tables:
        _, K, _, p, b, q = setup
        g = mp.prec + 20
        f = g - max((c.bit_length() - b.bit_length() - K * k for k, c in enumerate(p) if c), default=0)
        P = [_fixed(c, b, f - K * k) for k, c in enumerate(p)]
        R = [_fixed(c, q[0], g - K * i) for i, c in enumerate(q[1:], 1)]
        bound, n, E = sum(abs(c) * 5**k for k, c in enumerate(P)), 0, []
        while 5**n <= bound:
            n += 1
        for k in range(n + 1):
            tail = sum(R[i - 1] * E[k - i] for i in range(1, min(k, len(R)) + 1))
            E.append((P[k] if k < len(P) else 0) - (tail >> g))
        tables.setdefault(key, (f, E))
    return tables[key]


@cache
def _octave_nodes(points: int, panels: int, prec: int) -> tuple[list, list, list]:
    """Nodes s_j of the composite rule on [1, 2] as _mpf_, then in fixed point at
    2^-(prec+20) their weights with the panel's half-width folded in and log(s_j/2);
    called at mpmath precision prec.

    log(s/2) = log(c/2) + 2 atanh(y), y = (s - c)/(s + c), c the panel's midpoint:
    |y| < 1/9, so the series runs in fixed point and mpf_log meets only the midpoints.
    """
    nodes, weights = _gauss_legendre_nodes(points)
    half, bits, rows = mp.mpf(1) / (2 * panels), prec + 20, []
    for p in range(panels):
        c = 1 + (2 * p + 1) * half
        cf, log_c = (libmp.to_fixed(v, bits) for v in (c._mpf_, libmp.mpf_log((c / 2)._mpf_, bits)))
        for x, w in zip(nodes, weights):
            s = c + half * x
            sf = libmp.to_fixed(s._mpf_, bits)
            y = (abs(sf - cf) << bits) // (sf + cf)
            y2, term, atanh, i = y * y >> bits, y, 0, 1
            while term:  # atanh is odd: the series runs on |y|
                atanh, term, i = atanh + term // i, term * y2 >> bits, i + 2
            log_s = log_c + (2 * atanh if sf > cf else -2 * atanh)
            rows.append((s._mpf_, libmp.to_fixed((w * half)._mpf_, bits), log_s))
    return tuple(map(list, zip(*rows)))


def _octave_table(approx: PadeApprox, setup: tuple, points: int, panels: int) -> tuple:
    """(F, columns, c^2), kept per (points, panels, prec): column j holds
    floor(psi(1 - 2^-(k+1) s_j) 2^F) for k = K-1 .. 0, by _fixed_point_phi, and c is
    psi's largest Legendre coefficient of degree n - 1 = points - 1 on a panel, relative
    to the largest |psi|.  Analytic in a panel's ellipse E_rho, psi has |c| ~ rho^(1-n),
    the rule errs by about rho^(-2n) ~ c^2, and a pole near [0, 1], real or complex,
    shows in c.  n w_i P_(n-1)(x_i) = (-1)^i sqrt(2 w_i (1 - x_i^2)) at the descending
    nodes x_i, as (1 - x^2) P_n'(x) = n P_(n-1)(x); with f(x_i) they sum to 2n c_(n-1)/(2n-1)."""
    tables, key = approx._node_tables, ("table", points, panels, mp.prec)
    if key not in tables:  # a build that raises publishes nothing
        _, K, psi = setup[:3]
        (f, phi), columns = _fixed_point_phi(psi), []
        for _, man, e, _ in _octave_nodes(points, panels, mp.prec)[0]:
            column = []
            for k in reversed(range(K)):  # u = 1 - man 2^(e-k-1)
                try:
                    column.append(phi((1 << k + 1 - e) - man, k + 1 - e))
                except ZeroDivisionError:
                    t = mp.make_mpf(libmp.from_man_exp(man, e - k - 1))
                    raise IntegrationError(f"non-finite integrand value at t={t}") from None
            columns.append(column)
        null = [(-1) ** i * libmp.to_fixed(mp.sqrt(2 * w * (1 - x * x))._mpf_, mp.prec)
                for i, (x, w) in enumerate(zip(*_gauss_legendre_nodes(points)))]
        top = max(abs(sum(v * col[k] for v, col in zip(null, columns[j:j + points]))) for k in range(K)
                  for j in range(0, len(columns), points))
        c = mp.ldexp(top, -mp.prec) / (max(abs(v) for col in columns for v in col) or 1)
        tables.setdefault(key, (f, columns, c * c))
    return tables[key]


def _octave_sum(approx: PadeApprox, setup: tuple, zm, a, points: int, panels: int) -> mpmath.mpf:
    """a sum_j W_j s_j^(z'-1) Phi_j = sum_j W_j (s_j/2)^(z'-1) Phi_j / 2, whose powers
    stay at most 2 however large z' is; Phi_j = sum_k a^k psi_(k,j) by integer
    Horner in a = 2^-z' (a < 1, so each step's rounding stays one unit of 2^-F).

    The powers are integer too: (s_j/2)^(z'-1) = 2^n exp(r), n <= 0, by one divmod of the
    exact x_j = (z'-1) log(s_j/2) by ln 2 and libmp's fixed-point exp at wp = prec + 34
    (mpf_exp's own for g), each off by about one unit of 2^-wp, below the sum's 2^-g."""
    f, columns, _ = _octave_table(approx, setup, points, panels)
    _, weights, logs = _octave_nodes(points, panels, mp.prec)
    g, wp, rnd = mp.prec + 20, mp.prec + 34, libmp.round_nearest
    sign, man, exp, _ = (zm - 1)._mpf_  # x_j 2^wp = +-man log_j 2^(exp + 14), log_j at 2^-g
    e, shift = (-man if sign else man) << max(exp + 14, 0), max(-exp - 14, 0)
    A, ln2, total = libmp.to_fixed(a._mpf_, g), libmp.ln2_fixed(wp), 0
    for column, w, log in zip(columns, weights, logs):
        acc = 0
        for v in column:
            acc = v + (acc * A >> g)
        n, r = divmod(e * log >> shift, ln2)
        total += (w * exp_basecase(r, wp) >> wp - n) * acc
    return mp.make_mpf(libmp.from_man_exp(total, -g - f - 1, mp.prec, rnd))
