"""Checks of every request's output, made apart from the program.

Each check function returns the list of reasons it rejects an output; an
empty list accepts it.  References come from mpmath's own `e1`, sympy's
Stirling numbers, numpy diagonalisation and exact rational arithmetic, never
from facseries, and none of this code runs while a request is timed.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
from mpmath import mp, mpf
from sympy.functions.combinatorial.numbers import stirling

DIGITS = 64          # significant digits the CLI prints
BITS = 216           # mpmath's binary precision at 64 decimal digits

# --- e1 --compare --------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def e1_factorial_coeff(n: int) -> int:
    """d_n = (-1)^n sum_v s1(n, v) v!, with sympy's signed Stirling numbers."""
    return (-1) ** n * sum(int(stirling(n, v, kind=1, signed=True)) * factorial(v)
                           for v in range(n + 1))


def _exact_final(z: Fraction, terms: int) -> Fraction:
    total, poch = Fraction(0), Fraction(1)
    for n in range(terms):
        poch *= z + n
        total += Fraction(e1_factorial_coeff(n)) / poch
    return total


def _within(printed: str, exact, slack) -> bool:
    """|printed - exact| <= half a unit of the 64th digit plus |exact| slack."""
    ulp = mpf(10) ** (mpmath.floor(mpmath.log10(abs(exact))) - (DIGITS - 1))
    return abs(mpf(printed) - exact) <= ulp / 2 + abs(exact) * slack


def _rounded_from(printed: str, exact) -> bool:
    """`printed` is `exact` rounded to 64 digits, directly or through 216 bits.

    The CLI carries the sum with guard digits and rounds it to 64 digits
    (216 bits) before printing, so either rounding of the exact value is
    right; any other last digit is wrong.
    """
    with mp.workprec(BITS):
        binary = +exact
    return any(mpf(printed) == mpf(mp.nstr(v, DIGITS)) for v in (exact, binary))


def check_e1(req: dict, out: dict) -> list:
    """`final`, `reference`, `ratio` and the three accelerated values."""
    if out.get("exit") != 0:
        return [f"exit code {out.get('exit')}: {out.get('doc')}"]
    doc, z, terms = out["doc"], req["z"], req["terms"]
    bad = []
    with mp.workdps(100):
        ref = mp.exp(mpf(z.numerator) / z.denominator) * mp.e1(mpf(z.numerator) / z.denominator)
        final = _exact_final(z, terms)
        final_mp = mpf(final.numerator) / final.denominator
        if not _rounded_from(doc["final"], final_mp):
            bad.append(f"final {doc['final']} is not the exact sum {mp.nstr(final_mp, 70)}")
        # reference and ratio are formed at 64 digits (216 bits) without guard
        # digits, e^z as mp.e ** z, whose relative error is z times that of the
        # rounded e: with the product and the division they may be off by
        # z/2 + 3 binary units, so their last digit is not fixed by the exact
        # value.  Allow z + 4 binary units past the half unit.
        slack = (float(z) + 4) * mpf(2) ** -BITS
        if not _within(doc["reference"], ref, slack):
            bad.append(f"reference {doc['reference']} is not e^z E1(z) = {mp.nstr(ref, 70)}")
        if not _within(doc["ratio"], final_mp / ref, slack):
            bad.append(f"ratio {doc['ratio']} is not final/reference = {mp.nstr(final_mp / ref, 70)}")
        # best truncation of the divergent series sum (-1)^m m!/z^(m+1), m < terms
        partial, best = Fraction(0), None
        for m in range(terms):
            partial += Fraction((-1) ** m * factorial(m)) / z ** (m + 1)
            err = abs(mpf(partial.numerator) / partial.denominator - ref)
            best = err if best is None else min(best, err)
        for method in ("levin", "weniger", "pade"):
            value = doc["accelerated"].get(method)
            if not isinstance(value, str):
                bad.append(f"{method} gave no value: {value}")
            elif not abs(mpf(value) - ref) < best:
                bad.append(f"{method} error {mp.nstr(abs(mpf(value) - ref), 5)} is not below "
                           f"the best truncation error {mp.nstr(best, 5)}")
    return bad


# --- quartic oscillator ---------------------------------------------------------

LEADING_B = [Fraction(3, 4), Fraction(-21, 16), Fraction(333, 64),
             Fraction(-30885, 1024), Fraction(916731, 4096)]


@functools.lru_cache(maxsize=None)
def ground_energy(beta: Fraction, half_basis: int = 100) -> float:
    """Lowest eigenvalue of p^2 + x^2 + beta x^4 in the even harmonic-oscillator basis.

    x = (a + a^dag)/sqrt(2); x^4 is formed in a basis 8 states larger than
    the one kept, so the kept block is exact.  At beta = 1/5 this gives
    1.1182926543670393; basis sizes 100 to 200 agree to 2e-13 up to beta = 4.
    """
    n = 2 * half_basis + 8
    x = np.zeros((n, n))
    for i in range(n - 1):
        x[i, i + 1] = x[i + 1, i] = np.sqrt((i + 1) / 2)
    x2 = x @ x
    h = np.diag(2.0 * np.arange(n) + 1.0) + float(beta) * (x2 @ x2)
    keep = np.arange(0, 2 * half_basis, 2)
    return float(np.linalg.eigvalsh(h[np.ix_(keep, keep)])[0])


# Error envelopes of the Pade-based routes at order 34, measured at 33 points
# of beta in [1/20, 4]: log10|E - E_ref| <= A - B beta^(-1/3) (the error of
# these approximants falls like exp(-c beta^(-1/3)) as the coupling weakens).
# From order 34 to 53 at beta = 1/5 the error falls by at least R decades per
# order.  The tolerance is ten times that envelope, so losing one digit fails.
ENVELOPE = {"pade": (3.65, 8.57, 0.12), "integral": (5.65, 9.80, 0.08)}
# The reference in 100 and in 200 basis states differs by at most 6.7e-14 over
# that range of beta (benchmark/reference.py prints the difference).
REFERENCE_FLOOR = 1e-12


def energy_tolerance(method: str, order: int, beta: Fraction) -> float:
    """How far an energy by `method` at `order` may lie from the reference."""
    if method == "factorial":
        # the product-form factorial series converges algebraically at beta = 1/5:
        # its error falls from 1.3e-5 at order 34 to 4.7e-6 at order 100, about
        # as order^-0.9; the tolerance is three times that curve
        if beta != Fraction(1, 5):
            raise ValueError("factorial tolerance is only stated at beta = 1/5")
        return 1e-3 * order ** -0.9
    a, b, r = ENVELOPE[method]
    if order < 34:
        raise ValueError("Pade tolerances are only stated from order 34 up")
    log_tol = a - b * float(beta) ** (-1 / 3) + 1 - r * (order - 34)
    return max(REFERENCE_FLOOR, 10 ** log_tol)


def check_oscillator(req: dict, out: dict) -> list:
    """Energies against the reference and the bounds 1 <= E <= 1 + 3 beta/4; b_1..b_5."""
    beta, bad = req["beta"], []
    ref = ground_energy(beta)
    for method, text in out["energies"].items():
        energy = Fraction(text)
        err = abs(float(energy) - ref)
        tol = energy_tolerance(method, req["order"], beta)
        if not err <= tol:
            bad.append(f"{method} energy {text} is {err:.3e} from {ref!r} (tolerance {tol:.1e})")
        if not 1 <= energy <= 1 + Fraction(3, 4) * beta:
            bad.append(f"{method} energy {text} is outside [1, 1 + 3 beta/4]")
    if [Fraction(b) for b in out["b"]] != LEADING_B:
        bad.append(f"b_1..b_5 are {out['b']}")
    return bad


def check_scan(requests: list, outputs: list) -> dict:
    """E(beta) must increase with beta for every method: {request index: [reasons]}."""
    bad: dict = {}
    order = sorted((i for i, o in enumerate(outputs) if o is not None),
                   key=lambda i: requests[i]["beta"])
    for lo, hi in zip(order, order[1:]):
        for method, text in outputs[hi]["energies"].items():
            below = outputs[lo]["energies"].get(method)
            if below is not None and not Fraction(below) < Fraction(text):
                reason = (f"{method} energy does not increase from beta = {requests[lo]['beta']} "
                          f"to {requests[hi]['beta']}")
                bad.setdefault(lo, []).append(reason)
                bad.setdefault(hi, []).append(reason)
    return bad


# --- transform round trips ---------------------------------------------------------


def check_transform(req: dict, out: dict) -> list:
    """Exact round trips, companion times matrix = identity, Stirling entries."""
    bad = []
    if out["roundtrip"] != req["coeffs"]:
        bad.append("inverse power -> factorial -> wire -> inverse power changed the series")
    if out["inverse"] != req["coeffs"]:
        bad.append("triangular_forward then triangular_inverse_apply changed the series")
    lower, comp = req["lower"], out["companion"]
    size = len(lower)
    if len(comp) != size or any(len(row) != n + 1 for n, row in enumerate(comp)):
        bad.append("companion is not lower triangular of the matrix's size")
    else:
        for n in range(size):
            for k in range(n + 1):
                total = sum(comp[n][r] * lower[r][k] for r in range(k, n + 1))
                if total != (n == k):
                    bad.append(f"companion times matrix is {total} at ({n}, {k})")
                    break
    for n, k, s1, s2 in out["stirling"]:
        if s1 != int(stirling(n, k, kind=1, signed=True)) or s2 != int(stirling(n, k, kind=2)):
            bad.append(f"Stirling numbers at ({n}, {k}) are {s1}, {s2}")
    return bad


CHECKS = {"e1-compare": check_e1, "oscillator-cold": check_oscillator,
          "beta-scan": check_oscillator, "transform-roundtrip": check_transform}
CROSS_CHECKS = {"beta-scan": check_scan}
