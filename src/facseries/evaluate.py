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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial
from typing import Callable, Optional, Sequence

import mpmath
from mpmath import mp

from .errors import DomainError, IntegrationError, PoleError, PoleInDomainError
from .pade import PadeApprox, _common_denominator, pade_construct
from .series import (
    FormalSeries,
    PrecisionContext,
    Real,
    SeriesKind,
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
    rule: str = "gauss_legendre"
    points_per_panel: int = 32
    panels: int = 8
    singularity_split: bool = True

    def __post_init__(self):
        if self.rule != "gauss_legendre":
            raise DomainError(f"unsupported quadrature rule {self.rule!r}")
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
        with prec.workdps():
            ref = to_mpf(reference)
            errs = tuple(abs(s - ref) / abs(ref) for s in self.partial_sums)
        return replace(self, reference=ref, relative_errors=errs)


# --- Gauss-Legendre nodes ---------------------------------------------------

_GL_CACHE: dict = {}


def _gauss_legendre_nodes(n: int) -> tuple[list, list]:
    """Nodes and weights on [-1, 1] at the current mpmath precision.

    Newton iteration on P_n with the three-term recurrence; cached per
    (n, working precision).
    """
    key = (n, mp.prec)
    if key in _GL_CACHE:
        return _GL_CACHE[key]
    nodes, weights = [], []
    tol = mp.mpf(10) ** (-mp.dps + 4)
    for i in range(n):
        x = mp.cos(mp.pi * (i + mp.mpf(3) / 4) / (n + mp.mpf(1) / 2))
        for _ in range(100):
            p0, p1 = mp.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x -= dx
            if abs(dx) < tol:
                break
        p0, p1 = mp.mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    _GL_CACHE[key] = (nodes, weights)
    return nodes, weights


def _composite_gl(f: Callable, lo, hi, points: int, panels: int) -> mpmath.mpf:
    nodes, weights = _gauss_legendre_nodes(points)
    total = mp.mpf(0)
    width = (hi - lo) / panels
    for p in range(panels):
        a = lo + p * width
        half = width / 2
        mid = a + half
        for x, w in zip(nodes, weights):
            val = f(mid + half * x)
            if not mp.isfinite(val):
                raise IntegrationError(f"non-finite integrand value at t={mid + half * x}")
            total += w * val
    return total * width / 2


def quadrature_01(
    f: Callable,
    spec: QuadratureSpec = QuadratureSpec(),
    prec: PrecisionContext = PrecisionContext(),
) -> mpmath.mpf:
    """Composite Gauss-Legendre estimate of int_0^1 f(t) dt.

    The panel count is doubled once for an error estimate; if the two results
    differ by more than 10^-(P/2) relative, a QuadratureConvergenceWarning is
    emitted.  The refined value is returned.
    """
    with prec.workdps(10):
        coarse = _composite_gl(f, mp.mpf(0), mp.mpf(1), spec.points_per_panel, spec.panels)
        fine = _composite_gl(f, mp.mpf(0), mp.mpf(1), spec.points_per_panel, 2 * spec.panels)
        scale = max(abs(fine), mp.mpf(1))
        if abs(fine - coarse) / scale > prec.tol(prec.digits // 2):
            warnings.warn(
                f"panel doubling moved the estimate by {abs(fine - coarse)}",
                QuadratureConvergenceWarning,
            )
        return fine


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
        tol = prec.tol(4)
        for i in range(terms):
            if abs(zv + i) < tol:
                raise PoleError(f"z={z} is within {tol} of the pole at {-i}")
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
        val = 0
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
    """Evaluate a factorial series via int_0^1 t^(z-1) phi(t) dt.

    ``a`` are the reduced coefficients a_n = d_n/n! of the series; phi is the
    power series sum_n a_n u^n in u = 1-t, replaced by its [pade_l/pade_m]
    Pade approximant before integrating.
    """
    approx = pade_construct(a, pade_l, pade_m)
    _check_poles_in_unit_interval(approx)
    with prec.workdps(10):
        zv = to_mpf(z)
        if not (zv > 0):
            raise DomainError(f"integral representation requires z > 0, got {z}")
        # pole-free on [0, 1] by the exact scan above; convert once, then Horner
        numf = [to_mpf(c) for c in approx.num]
        denf = [to_mpf(c) for c in approx.den]

        def phi(u):
            pn = mp.mpf(0)
            for c in reversed(numf):
                pn = pn * u + c
            pd = mp.mpf(0)
            for c in reversed(denf):
                pd = pd * u + c
            return pn / pd

        def integrand(t):
            return t ** (zv - 1) * phi(1 - t)

        if zv < 1 and spec.singularity_split:
            eps = mp.mpf(1) / 16
            # [0, eps] with t = u^(1/z): integrand becomes phi(1 - u^(1/z))/z
            def left(u):
                return phi(1 - u ** (1 / zv)) / zv

            part1 = _composite_gl(
                left, mp.mpf(0), eps**zv, spec.points_per_panel, spec.panels
            )
            part2 = _composite_gl(
                integrand, eps, mp.mpf(1), spec.points_per_panel, spec.panels
            )
            fine1 = _composite_gl(
                left, mp.mpf(0), eps**zv, spec.points_per_panel, 2 * spec.panels
            )
            fine2 = _composite_gl(
                integrand, eps, mp.mpf(1), spec.points_per_panel, 2 * spec.panels
            )
            coarse, fine = part1 + part2, fine1 + fine2
        else:
            coarse = _composite_gl(
                integrand, mp.mpf(0), mp.mpf(1), spec.points_per_panel, spec.panels
            )
            fine = _composite_gl(
                integrand, mp.mpf(0), mp.mpf(1), spec.points_per_panel, 2 * spec.panels
            )
        scale = max(abs(fine), mp.mpf(1))
        if abs(fine - coarse) / scale > prec.tol(prec.digits // 2):
            warnings.warn(
                f"panel doubling moved the estimate by {abs(fine - coarse)}",
                QuadratureConvergenceWarning,
            )
        return fine
