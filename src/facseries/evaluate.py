"""Numerical evaluation back-ends for factorial series.

Three routes:

* direct partial sums of sum_n d_n/(z)_{n+1};
* the product form sum_m (lambda_m/m!) prod_{k=1..m} z/(z+1/k) for power
  series transformed by transforms.power_to_factorial_coeffs;
* the Euler-integral representation int_0^1 t^(z-1) phi(t) dt with the
  conjugate function phi(t) = sum_n a_n (1-t)^n rebuilt as a Pade
  approximant in u = 1-t.

Quadrature is composite Gauss-Legendre with high-precision nodes.  For
0 < z < 1 the integrand has an integrable singularity at t = 0; the leading
subinterval [0, eps] is handled by the substitution t = u^(1/z), which turns
t^(z-1) dt into du/z and leaves a smooth integrand.

The conjugate function is evaluated by a fixed-point integer Horner kernel;
_fixed_point_phi states its error bound.  Each PadeApprox keeps for its lifetime
a node table per beta-independent piece ([0, 1], or [1/16, 1] for z < 1), keyed
by (lo, hi, points, panels, prec): t, phi(1-t) and, once needed, log t (_mpf_).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from math import factorial
from typing import Callable, Iterable, Iterator, Optional, Sequence

import mpmath
from mpmath import libmp, mp

from .errors import DomainError, IntegrationError, PoleInDomainError
from .pade import PadeApprox, pade_construct
from .series import (
    FormalSeries,
    PrecisionContext,
    Real,
    SeriesKind,
    _check_pole,
    _common_denominator,
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
    """Doubling the panel count moved the result by more than 10^-(P/2)."""


@dataclass(frozen=True)
class QuadratureSpec:
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
        """Attach a reference (kept to 15 guard digits) and each sum's relative error."""
        with prec.workdps(15):
            ref = to_mpf(reference)
            errs = tuple(abs(s - ref) / abs(ref) for s in self.partial_sums)
        return replace(self, reference=ref, relative_errors=errs)


# --- Gauss-Legendre nodes ---------------------------------------------------

_GL_CACHE: dict = {}


def _legendre(n: int, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence, in float or mpf."""
    p0, p1 = 1, x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1)


def _gauss_legendre_nodes(n: int) -> tuple[list, list]:
    """Nodes (descending) and weights on [-1, 1] at the current mpmath precision.

    Newton iteration on P_n, seeded from a float64 Newton root, for the
    ceil(n/2) non-negative nodes; the rest are their mirror images, with the
    same weights.  Cached per (n, working precision).
    """
    key = (n, mp.prec)
    if key in _GL_CACHE:
        return _GL_CACHE[key]
    tol = mp.mpf(10) ** (-mp.dps + 4)
    half = []
    for i in range((n + 1) // 2):
        # mpmath's cos: a first math.cos faults libm pages in, +64 KB of peak RSS
        x = float(mp.cos(mp.pi * (i + 0.75) / (n + 0.5)))
        for _ in range(8):
            p, dp = _legendre(n, x)
            x -= p / dp
        x = mp.mpf(x)
        for _ in range(100):
            p, dp = _legendre(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) < tol:
                break
        _, dp = _legendre(n, x)
        half.append((x, 2 / ((1 - x * x) * dp * dp)))
    half += [(-x, w) for x, w in reversed(half[: n // 2])]
    _GL_CACHE[key] = tuple(map(list, zip(*half)))
    return _GL_CACHE[key]


def _gl_rows(f: Callable, lo, hi, points: int, panels: int) -> Iterator[tuple]:
    """(w, t, f(t)) as _mpf_ tuples over the composite rule's nodes t, w the
    weight on [-1, 1]; raises on a non-finite f(t)."""
    nodes, weights = _gauss_legendre_nodes(points)
    width = (hi - lo) / panels
    half = width / 2
    for p in range(panels):
        mid = lo + p * width + half
        for x, w in zip(nodes, weights):
            t = mid + half * x
            val = f(t)
            if not mp.isfinite(val):
                raise IntegrationError(f"non-finite integrand value at t={t}")
            yield w._mpf_, t._mpf_, val._mpf_


def _gl_sum(rows: Iterable, lo, hi, panels: int) -> mpmath.mpf:
    """(hi - lo)/(2 panels) sum w f over rows (w, t, f) as _gl_rows gives them,
    each step rounded as the mpf operators round total += w * f."""
    prec, rnd = mp.prec, libmp.round_nearest
    total = libmp.fzero
    for w, _, val in rows:
        total = libmp.mpf_add(total, libmp.mpf_mul(w, val, prec, rnd), prec, rnd)
    return mp.make_mpf(total) * ((hi - lo) / panels) / 2


def _composite_gl(f: Callable, lo, hi, points: int, panels: int) -> mpmath.mpf:
    return _gl_sum(_gl_rows(f, lo, hi, points, panels), lo, hi, panels)


def _weighted_gl(approx: PadeApprox, zv, lo, hi, points: int, panels: int) -> mpmath.mpf:
    """int_lo^hi t^(z-1) phi(1-t) dt from approx's node table, bit for bit as the
    mpf operators form t ** (z-1) * phi(1-t): t^(z-1) takes mpf_pow's own steps."""
    prec, rnd = mp.prec, libmp.round_nearest
    tables, key = approx._node_tables, (lo._mpf_, hi._mpf_, points, panels, prec)
    if key not in tables:  # a build that raises publishes nothing
        phi = _fixed_point_phi(approx)
        tables.setdefault(key, list(_gl_rows(lambda t: phi(1 - t), lo, hi, points, panels)))
    rows, s = tables[key], (zv - 1)._mpf_
    if s[2] >= -1:  # an integer or half-integer exponent: mpf_pow's own branches
        powers = (libmp.mpf_pow(t, s, prec, rnd) for _, t, _ in rows)
    else:  # mpf_pow's general branch, exp(s log t)
        logs = tables.get((key, "log")) or tables.setdefault(
            (key, "log"), [libmp.mpf_log(t, prec + 10, rnd) for _, t, _ in rows])
        powers = (libmp.mpf_exp(libmp.mpf_mul(s, c), prec, rnd) for c in logs)
    weighted = ((w, t, libmp.mpf_mul(c, f, prec, rnd)) for (w, t, f), c in zip(rows, powers))
    return _gl_sum(weighted, lo, hi, panels)


def _panel_doubled(pieces: Sequence, spec: QuadratureSpec, prec: PrecisionContext) -> mpmath.mpf:
    """Composite Gauss-Legendre summed over pieces, each a rule(points, panels), at
    spec.panels and at twice as many; warns and returns as quadrature_01 describes."""
    coarse, fine = (
        sum(rule(spec.points_per_panel, panels) for rule in pieces)
        for panels in (spec.panels, 2 * spec.panels)
    )
    if abs(fine - coarse) / (abs(fine) or 1) > prec.tol(prec.digits // 2):
        warnings.warn(
            f"panel doubling moved the estimate by {abs(fine - coarse)}",
            QuadratureConvergenceWarning,
        )
    return fine


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
        return _panel_doubled([partial(_composite_gl, f, mp.mpf(0), mp.mpf(1))], spec, prec)


# --- summation back-ends ----------------------------------------------------


def sum_factorial_series(
    d: FormalSeries,
    z: Real,
    terms: int,
    prec: PrecisionContext = PrecisionContext(),
) -> SummationReport:
    """Partial sums sum_{n<=m} d_n/(z)_{n+1} for m = 0..terms-1."""
    if d.kind is not SeriesKind.FACTORIAL:
        raise DomainError(f"expected factorial series, got {d.kind.value}")
    if not 1 <= terms <= len(d):
        raise DomainError(f"terms must be in 1..{len(d)}, got {terms}")
    with prec.workdps(10):
        zv = to_mpf(z)
        _check_pole(zv, terms - 1, prec)
        sums = []
        acc = mp.mpf(0)
        poch = zv  # (z)_1
        for n in range(terms):
            acc += to_mpf(d.coeffs[n]) / poch
            sums.append(acc)
            poch *= zv + n + 1
        return SummationReport(partial_sums=tuple(sums), final=sums[-1])


def eval_power_as_factorial(
    lam: Sequence,
    z: Real,
    terms: int,
    prec: PrecisionContext = PrecisionContext(),
) -> SummationReport:
    """Partial sums of sum_m (lambda_m/m!) prod_{k=1..m} z/(z+1/k) for z > 0.

    ``lam`` are the transformed coefficients from power_to_factorial_coeffs;
    the running product is accumulated incrementally.
    """
    if not 1 <= terms <= len(lam):
        raise DomainError(f"terms must be in 1..{len(lam)}, got {terms}")
    with prec.workdps(10):
        zv = to_mpf(z)
        if not (zv > 0):
            raise DomainError(f"product form requires z > 0, got {z}")
        sums = []
        acc = mp.mpf(0)
        product = mp.mpf(1)  # prod_{k=1..m} z/(z+1/k)
        for m in range(terms):
            if m > 0:
                product *= zv / (zv + mp.mpf(1) / m)
            acc += to_mpf(lam[m]) / factorial(m) * product
            sums.append(acc)
        return SummationReport(partial_sums=tuple(sums), final=sums[-1])


def _horner_fixed(coeffs: Sequence[int], m: int, s: int) -> int:
    """Horner on integer coefficients at u = m 2^-s: acc = ((acc m) >> s) + c."""
    acc = 0
    for c in reversed(coeffs):
        acc = ((acc * m) >> s) + c
    return acc


def _fixed_point(p: PadeApprox) -> list[tuple[int, list[int]]]:
    """[(w, [ceil(c 2^w) for c in cs]) for cs in (p.num, p.den)], each w as
    _fixed_point_phi states."""
    guard = (p.L + p.M + 2).bit_length() + 4
    scaled = []
    for cs in (p.num, p.den):
        big = max(abs(c) for c in cs)  # 2^e < big < 2^(e+2), e from the bit lengths
        w = mp.prec + guard - (big.numerator.bit_length() - big.denominator.bit_length() - 1)
        lo, hi = max(w, 0), max(-w, 0)
        scaled.append((w, [-((-c.numerator << lo) // (c.denominator << hi)) for c in cs]))
    return scaled


def _fixed_point_phi(p: PadeApprox) -> Callable:
    """num(u)/den(u) at mpf u in [0, 1] by fixed-point integer Horner.

    Each polynomial has its own scale 2^-w: with 2^e < max|c| < 2^(e+2),
    w = prec + g - e and g = bitlen(L+M+2) + 4 guard bits.  With u = m 2^-s
    read from the mpf, acc = ((acc m) >> s) + C runs over C = ceil(c 2^w):
    C rounds up and the shift down, so each step errs by less than 2^-w and
    |u| <= 1 keeps the errors from growing.  Each polynomial is therefore off
    by at most (deg+1) 2^-w < 2^-(prec+4) max|c|, relative to its own largest
    coefficient, however small or large the coefficients are; an mpf Horner's
    bound, about 2 deg 2^-prec sum_k |c_k| u^k, is no smaller at u = 1 but
    shrinks with u where the top coefficients dominate.  The quotient is one
    correctly rounded mpf division.
    """
    (wn, num), (wd, den) = _fixed_point(p)

    def phi(u):
        _, m, e, _ = u._mpf_  # u = m 2^e >= 0, and e <= 0 as u <= 1
        return mp.make_mpf(libmp.mpf_div(
            libmp.from_man_exp(_horner_fixed(num, m, -e), -wn),
            libmp.from_man_exp(_horner_fixed(den, m, -e), -wd),
            mp.prec, libmp.round_nearest))

    return phi


def _check_poles_in_unit_interval(p: PadeApprox) -> None:
    """Exact sign scan of the denominator on 65 interior points of (0, 1).

    At u = q/130, den(u) has the sign of the integer sum_k (D den_k) q^k 130^(M-k),
    D > 0 the common denominator, so the scan forms no Fraction.
    Endpoint poles are tolerated: the t^(z-1) weight keeps them integrable
    and Gauss-Legendre nodes never touch the endpoints.
    """
    _, cleared = _common_denominator(p.den)
    scaled = [c * 130 ** (p.M - k) for k, c in enumerate(cleared)]
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
    """Evaluate a factorial series via int_0^1 t^(z-1) phi(t) dt.

    ``a`` are the reduced coefficients a_n = d_n/n! of the series; phi is the
    power series sum_n a_n u^n in u = 1-t, replaced by its [pade_l/pade_m]
    Pade approximant before integrating.
    """
    approx = pade_construct(a, pade_l, pade_m)
    _check_poles_in_unit_interval(approx)
    return _euler_integral(approx, z, spec, prec)


def _euler_integral(
    approx: PadeApprox, z: Real, spec: QuadratureSpec, prec: PrecisionContext
) -> mpmath.mpf:
    """int_0^1 t^(z-1) phi(1-t) dt, phi the approximant, which
    _check_poles_in_unit_interval has already passed."""
    with prec.workdps(10):
        zv = to_mpf(z)
        if not (zv > 0):
            raise DomainError(f"integral representation requires z > 0, got {z}")
        lo = mp.mpf(1) / 16 if zv < 1 else mp.mpf(0)
        pieces = [partial(_weighted_gl, approx, zv, lo, mp.mpf(1))]
        if zv < 1:  # [0, lo] with t = u^(1/z): the integrand becomes phi(1 - u^(1/z))/z
            phi, inv = _fixed_point_phi(approx), 1 / zv  # phi pole-free by the caller's scan
            pieces.append(partial(_composite_gl, lambda u: phi(1 - u**inv) / zv, mp.mpf(0), lo**zv))
        return _panel_doubled(pieces, spec, prec)
