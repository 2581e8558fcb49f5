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
each node's octaves by one Horner in 2^-(k+1) by shifts alone (_octave_column), and
a request forms only the powers a s_j^(z'-1) = (s_j/2)^(z'-1)/2, at most 1
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
    _context,
    _rational,
    _round,
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


@cache
def _gauss_legendre_nodes(n: int, bits: int) -> tuple[list, list]:
    """Nodes (descending) and weights on [-1, 1] at `bits` bits.

    For the ceil(n/2) non-negative nodes, Newton on P_n in fixed-point integers from the
    cosine guess at 53 bits, until a step moves x by less than 2^-43; then each step
    doubles the precision up to bits + 20, where the steps run until one moves x by less
    than 2^-(bits+10).  x and the weight 2 (1 - x^2)/(n P_(n-1)(x))^2, from the same
    recurrence, are each rounded once.  The rest are their mirror images.  Cached per (n, bits).
    """
    ctx, wide, rnd, half = _context(bits), bits + 20, libmp.round_nearest, []

    def legendre(fx: int, prec: int) -> tuple[int, int]:  # P_(n-1)(x), P_n(x) at 2^-prec
        p0, p1 = 1 << prec, fx
        for j in range(2, n + 1):
            p0, p1 = p1, (((2 * j - 1) * fx * p1 >> prec) - (j - 1) * p0) // j
        return p0, p1

    for i in range((n + 1) // 2):
        # libmp's cos, not math.cos: a first math.cos faults libm pages in, +64 KB of peak RSS
        guess, prec = libmp.mpf_cos_pi(libmp.from_rational(4 * i + 3, 4 * n + 2, 53), 53), min(53, wide)
        fx = 0 if 2 * i + 1 == n else libmp.to_fixed(guess, prec)  # the middle root of an odd P_n is 0
        for _ in range(100):
            p0, p1 = legendre(fx, prec)
            # dx = P_n/P_n' = P_n (x^2 - 1) / (n (x P_n - P_(n-1))), all scaled by 2^prec
            dx = p1 * ((fx * fx >> prec) - (1 << prec)) // (n * ((fx * p1 >> prec) - p0) or 1)
            fx -= dx
            if prec < wide and (prec > 53 or abs(dx) < 1 << 10):
                fx, prec = fx << min(prec, wide - prec), min(2 * prec, wide)
            elif abs(dx) < 1 << 10:
                break
        p0 = n * legendre(fx, wide)[0]
        weight = (((1 << wide) - (fx * fx >> wide)) << 2 * wide + 1) // (p0 * p0)
        half.append(tuple(ctx.make_mpf(libmp.from_man_exp(v, -wide, bits, rnd)) for v in (fx, weight)))
    half += [(-x, w) for x, w in reversed(half[: n // 2])]
    return tuple(map(list, zip(*half)))


def quadrature_01(
    f: Callable,
    spec: QuadratureSpec = QuadratureSpec(),
    prec: PrecisionContext = PrecisionContext(),
) -> mpmath.mpf:
    """Composite Gauss-Legendre estimate of int_0^1 f(t) dt.

    The panel count is doubled once for an error estimate; if the two results
    differ by more than 10^-(P/2) relative (absolute if the refined value is
    0), a QuadratureConvergenceWarning is emitted.  The refined value is returned.
    f runs at mpmath's global precision, P + 10 digits; a non-finite f(t) raises IntegrationError.
    """
    with prec.workdps(10):
        nodes, weights = _gauss_legendre_nodes(spec.points_per_panel, mp.prec)
        sums = []
        for panels in (spec.panels, 2 * spec.panels):
            width = mp.mpf(1) / panels
            half, total = width / 2, mp.mpf(0)
            for p in range(panels):
                mid = p * width + half
                for x, w in zip(nodes, weights):
                    if not mp.isfinite(val := f(t := mid + half * x)):
                        raise IntegrationError(f"non-finite integrand value at t={t}")
                    total += w * val
            sums.append(total * width / 2)
        coarse, fine = sums
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


def _horner_fixed(coeffs: Sequence[int], s: int) -> int:
    """Horner on integer coefficients at u = 2^-s by shifts alone: acc = (acc >> s) + c."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc >> s) + c
    return acc


def _fixed(n: int, d: int, bits: int) -> int:
    """floor(n/d 2^bits)."""
    return (n << max(bits, 0)) // (d << max(-bits, 0))


def _check_poles_in_unit_interval(p: PadeApprox) -> None:
    """Exact sign scan of the denominator on 65 interior points of (0, 1).

    At u = q/130, den(u) has the sign of the integer sum_k (D den_k) q^k 130^(M-k),
    D > 0 the common denominator, so the scan forms no Fraction.  den(0) = 1, and
    a pole at u = 1 lowers the Euler integral's exponent (see _octave_setup).
    """
    scaled = [c * 130 ** (p.M - k) for k, c in enumerate(p._cleared[1][1])]
    signs = []
    for i in range(65):
        q, val = 2 * i + 1, 0
        for c in reversed(scaled):
            val = val * q + c
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
    return mp.make_mpf(_euler_integral(pade_construct(a, pade_l, pade_m), z, spec, prec)._mpf_)


def _euler_integral(approx: PadeApprox, z: Real, spec: QuadratureSpec, prec: PrecisionContext):
    """int_0^1 t^(z-1) phi(1-t) dt by the octave rule (see the module docstring),
    phi the approximant, as a value of the context at P + 10 digits (series._context);
    PoleInDomainError if _octave_setup's pole scan fails."""
    zq, setup = _rational(z), _octave_setup(approx)
    m, K = setup[:2]
    if not (zq > m):
        pole = f" (phi has a pole of order {m} at t = 0)" if m else ""
        raise DomainError(f"integral representation requires z > {m}, got {z}{pole}")
    bits = libmp.dps_to_prec(prec.digits + 10)
    ctx, g, (f, head) = _context(bits), bits + 20, _head_series(approx, setup, bits)
    zm = ctx.make_mpf(_round(zq - m, bits))
    a, zf, panels = ctx.mpf(2) ** -zm, libmp.to_fixed(zm._mpf_, g), max(1, spec.panels // 4)
    while spec.points_per_panel * panels < zm and panels < 64:  # the layer at t = 1
        panels = min(2 * panels, 64)
    if spec.points_per_panel * panels < zm:
        warnings.warn(f"z' = {zm} is past the octave rule's reach", QuadratureConvergenceWarning)
    panels, n = 2 * panels, spec.points_per_panel
    err = max(_power_error(zm, (zq - m).denominator == 1, n, panels, bits),
              _octave_table(approx, setup, n, panels, bits)[2])
    if err > prec.tol(prec.digits // 2):
        warnings.warn(f"{panels} panels of {n} points reach only about {mp.nstr(err, 3)}",
                      QuadratureConvergenceWarning)
    # E_0/z' in floating point, as z' may lie far below 2^-g
    rest = sum((e << g) // (zf + (k << g)) for k, e in enumerate(head[1:], 1))
    return a**K * ctx.ldexp(head[0] / zm + rest, -f) + _octave_sum(approx, setup, zm, a, n, panels, bits)


def _power_error(zm, entire: bool, n: int, panels: int, bits: int):
    """The pass's relative error from (s/2)^(z'-1) alone, as M rho^(-2n) for N = `panels`
    panels of n points on [1, 2], |f| <= M on a panel's Bernstein ellipse E_rho
    (Trefethen, SIAM Rev. 50, 2008, Thm 4.5).  For z' not an integer, the first panel's
    E_rho through the branch point s = 0, rho = (2N+1) + sqrt((2N+1)^2 - 1), M about 1;
    past z' = 2n + 1, the last panel's (half-width h) M = (1 + h (A - 1)/2)^(z'-1),
    A = (rho + 1/rho)/2, at the rho = 4n (2 - h)/(h (z' - 1 - 2n)) that about minimises it."""
    err, d = 0 if entire else _branch_error(n, panels, bits), zm - 1 - 2 * n
    if d > 0:
        h = _context(bits).mpf(1) / (2 * panels)
        r = max(4 * n * (2 - h) / (h * d), 2)
        err = max(err, (1 + h * ((r + 1 / r) / 2 - 1) / 2) ** (zm - 1) * r ** (-2 * n))
    return err


@cache
def _branch_error(n: int, panels: int, bits: int):
    """_power_error's rho^(-2n) through s = 0 on the context at `bits`, kept per pass shape."""
    c = _context(bits).mpf(2 * panels + 1)
    return (c + c.context.sqrt(c * c - 1)) ** (-2 * n)


def _octave_setup(approx: PadeApprox) -> tuple:
    """(m, K, p, b, q), kept for the approximant's lifetime: m the order of den's
    zero at u = 1, K the octave count, and integers with psi(1-t) = (sum_k p_k t^k / b)
    / (sum_i q_i t^i / q_0) for psi = num/(den/(1-u)^m).

    K is the least integer >= 4 with h = 2^-K at most 1/8 of Fujiwara's lower bound
    1/(2 max(|q_1/q_0|, ..., |q_n/(2 q_0)|^(1/n))) on the root moduli of den(1-t)/t^m:
    then |q_i/q_0| h^i <= 16^-i (twice that at i = n).  An approximant that fails
    _check_poles_in_unit_interval raises PoleInDomainError and is given no set-up.
    """
    tables = approx._node_tables
    if "setup" not in tables:
        _check_poles_in_unit_interval(approx)
        (dn, p), (dd, q) = approx._cleared
        m = 0
        while sum(q) == 0:  # den(1) = 0: den/(1-u) has den's prefix sums as coefficients
            q, m = list(accumulate(q[:-1])), m + 1
        p, q = ([(-1) ** k * sum(comb(j, k) * c for j, c in enumerate(cs) if j >= k)
                 for k in range(len(cs))] for cs in (p, q))  # c(1 - t) from c(u)
        n, k = len(q) - 1, 4
        while any(abs(c) > abs(q[0]) << ((k - 4) * i + (i == n)) for i, c in enumerate(q[1:], 1)):
            k += 1
        tables.setdefault("setup", (m, k, [c * dd for c in p], dn * q[0], q))
    return tables["setup"]


def _head_series(approx: PadeApprox, setup: tuple, bits: int) -> tuple[int, list[int]]:
    """(F, [E_0 .. E_N]), kept per bit count: E_k = c_k h^k 2^F, c_k the
    Taylor coefficients of psi(1-t) at t = 0, so the head is h^z' sum_k E_k 2^-F/(z'+k).

    With g = bits + 20, E_k = P_k - (sum_i R_i E_(k-i) >> g) over P_k =
    floor(p_k h^k 2^F / b) and R_i = floor(q_i h^i 2^g / q_0), F putting the
    largest |P_k| near 2^g.  As |q_i/q_0| h^i <= 16^-i, 1/(sum_i q_i h^i x^i / q_0)
    has coefficients below (3/16)^k < 5^-k: errors do not grow, |E_k| <= 5^-k T with
    T = sum_k |P_k| 5^k, and past N, the least with 5^N > T, the terms sum to < 5/4 unit.
    """
    tables, key = approx._node_tables, ("head", bits)
    if key not in tables:
        _, K, p, b, q = setup
        g = bits + 20
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
def _octave_nodes(points: int, panels: int, bits: int) -> tuple[list, list, list]:
    """Nodes s_j of the composite rule on [1, 2] as _mpf_ at `bits` bits, then in fixed
    point at 2^-(bits+20) their weights with the panel's half-width folded in and log(s_j/2).

    log(s/2) = log(c/2) + 2 atanh(y), y = (s - c)/(s + c), c the panel's midpoint:
    |y| < 1/9, so the series runs in fixed point and mpf_log meets only the midpoints.
    """
    nodes, weights = _gauss_legendre_nodes(points, bits)
    half, wide, rows = _context(bits).mpf(1) / (2 * panels), bits + 20, []
    for p in range(panels):
        c = 1 + (2 * p + 1) * half
        cf, log_c = (libmp.to_fixed(v, wide) for v in (c._mpf_, libmp.mpf_log((c / 2)._mpf_, wide)))
        for x, w in zip(nodes, weights):
            s = c + half * x
            sf = libmp.to_fixed(s._mpf_, wide)
            y = (abs(sf - cf) << wide) // (sf + cf)
            y2, term, atanh, i = y * y >> wide, y, 0, 1
            while term:  # atanh is odd: the series runs on |y|
                atanh, term, i = atanh + term // i, term * y2 >> wide, i + 2
            log_s = log_c + (2 * atanh if sf > cf else -2 * atanh)
            rows.append((s._mpf_, libmp.to_fixed((w * half)._mpf_, wide), log_s))
    return tuple(map(list, zip(*rows)))


def _t_form(setup: tuple, bits: int, extra: int) -> list[tuple[int, list[int]]]:
    """[(w, [floor(c 2^w) for c in cs])] for psi(1 - t)'s numerator, cs = p_i/b, and its
    denominator, cs = q_i/q_0 (see _octave_setup), each w putting max|c| 2^w in
    [2^(bits+63+extra), 2^(bits+65+extra))."""
    _, _, p, b, q = setup
    scaled = []
    for cs, d in ((p, b), (q, q[0])):
        w = bits + 64 + extra - max(c.bit_length() for c in cs) + d.bit_length()
        scaled.append((w, [_fixed(c, d, w) for c in cs]))
    return scaled


def _octave_column(forms: Callable, man: int, e: int, K: int, bits: int) -> list[tuple[int, int]]:
    """[(N, D) for k = K-1 .. 0]: psi(1 - t)'s numerator and denominator at t = s 2^-(k+1),
    s = man 2^e in (1, 2), each in units of its 2^-w in forms(extra) = _t_form(.., extra).

    Each C_i s^i is rounded once, as (C_i S_i) >> W with S_i = floor(s^i 2^W) by repeated
    products and 2^W >= 4 deg max|C_i|: off by less than 5/4 s^i + 1 units.  Each octave
    is then a Horner in 2^-(k+1) <= 1/2 by shifts alone, off by less than 2 more units, so
    with t <= 1 each value is off by less than E = 2 deg + 6 units.  Where N or D keeps
    fewer than R = bits + 24 + bitlen(E) bits, it is formed again with the bits it lacks in
    32s, at least doubling extra, until both keep R or extra passes deg (K - e) + bits, which
    ends an exact zero in O(log) passes.  The oscillator's approximants of orders 20-54 lose
    at most 28 bits, so none is formed again; E1's [29/30] up to 53.
    """
    extra = 0
    while True:
        (_, num), (_, den) = forms(extra)
        deg = max(len(num), len(den)) - 1
        W = bits + 65 + extra + (4 * deg).bit_length()
        powers = list(accumulate(range(deg), lambda power, _: power * man >> -e, initial=1 << W))
        rows = [[_horner_fixed(terms, k + 1) for k in reversed(range(K))]
                for terms in ([c * power >> W for c, power in zip(cs, powers)] for cs in (num, den))]
        short = bits + 24 + (2 * deg + 6).bit_length() - min(v.bit_length() for row in rows for v in row)
        if short <= 0 or extra > deg * (K - e) + bits:
            return list(zip(*rows))
        extra = max(2 * extra, extra + -(-short // 32) * 32)


def _octave_table(approx: PadeApprox, setup: tuple, points: int, panels: int, bits: int) -> tuple:
    """(F, columns, c^2), kept per (points, panels, bits): column j holds
    floor(N 2^(F - w_num + w_den) / D) ~ psi(1 - 2^-(k+1) s_j) 2^F for k = K-1 .. 0, N and D
    from _octave_column, with F putting the largest |value| in [2^(bits+19), 2^(bits+21)).
    Where N and D keep R bits, each is relatively within E 2^(1-R) < 2^-(bits+23), so a
    value is within 2 units of floor(psi 2^F).

    c is psi's largest Legendre coefficient of degree n - 1 = points - 1 on a panel, relative
    to the largest |psi|.  Analytic in a panel's ellipse E_rho, psi has |c| ~ rho^(1-n),
    the rule errs by about rho^(-2n) ~ c^2, and a pole near [0, 1], real or complex,
    shows in c.  n w_i P_(n-1)(x_i) = (-1)^i sqrt(2 w_i (1 - x_i^2)) at the descending
    nodes x_i, as (1 - x^2) P_n'(x) = n P_(n-1)(x); with f(x_i) they sum to 2n c_(n-1)/(2n-1)."""
    tables, key = approx._node_tables, ("table", points, panels, bits)
    if key not in tables:  # a build that raises publishes nothing
        K, ctx, forms = setup[1], _context(bits), cache(partial(_t_form, setup, bits))
        nodes, raw = _octave_nodes(points, panels, bits)[0], []
        for _, man, e, _ in nodes:
            raw.append(column := _octave_column(forms, man, e, K, bits))
            for k, (_, d) in zip(reversed(range(K)), column):
                if d == 0:  # den rounds to 0 at t = man 2^(e-k-1)
                    t = mp.make_mpf(libmp.from_man_exp(man, e - k - 1))
                    raise IntegrationError(f"non-finite integrand value at t={t}")
        shift = bits + 20 - max(n.bit_length() - d.bit_length() for column in raw for n, d in column)
        columns = [[_fixed(n, d, shift) for n, d in column] for column in raw]
        null = [(-1) ** i * libmp.to_fixed(ctx.sqrt(2 * w * (1 - x * x))._mpf_, bits)
                for i, (x, w) in enumerate(zip(*_gauss_legendre_nodes(points, bits)))]
        top = max(abs(sum(v * col[k] for v, col in zip(null, columns[j:j + points]))) for k in range(K)
                  for j in range(0, len(columns), points))
        c = ctx.ldexp(top, -bits) / (max(abs(v) for col in columns for v in col) or 1)
        (wn, _), (wd, _) = forms(0)
        tables.setdefault(key, (shift + wn - wd, columns, c * c))
    return tables[key]


def _octave_sum(approx: PadeApprox, setup: tuple, zm, a, points: int, panels: int, bits: int) -> mpmath.mpf:
    """a sum_j W_j s_j^(z'-1) Phi_j = sum_j W_j (s_j/2)^(z'-1) Phi_j / 2, whose powers
    stay at most 2 however large z' is; Phi_j = sum_k a^k psi_(k,j) by integer
    Horner in a = 2^-z' (a < 1, so each step's rounding stays one unit of 2^-F).

    The powers are integer too: (s_j/2)^(z'-1) = 2^n exp(r), n <= 0, by one divmod of the
    exact x_j = (z'-1) log(s_j/2) by ln 2 and libmp's fixed-point exp at wp = bits + 34
    (mpf_exp's own for g), each off by about one unit of 2^-wp, below the sum's 2^-g."""
    f, columns, _ = _octave_table(approx, setup, points, panels, bits)
    _, weights, logs = _octave_nodes(points, panels, bits)
    g, wp, rnd = bits + 20, bits + 34, libmp.round_nearest
    sign, man, exp, _ = (zm - 1)._mpf_  # x_j 2^wp = +-man log_j 2^(exp + 14), log_j at 2^-g
    e, shift = (-man if sign else man) << max(exp + 14, 0), max(-exp - 14, 0)
    A, ln2, total = libmp.to_fixed(a._mpf_, g), libmp.ln2_fixed(wp), 0
    for column, w, log in zip(columns, weights, logs):
        acc = 0
        for v in column:
            acc = v + (acc * A >> g)
        n, r = divmod(e * log >> shift, ln2)
        total += (w * exp_basecase(r, wp) >> wp - n) * acc
    return mp.make_mpf(libmp.from_man_exp(total, -g - f - 1, bits, rnd))
