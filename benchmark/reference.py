"""Regenerates the stored reference figures of the benchmark (about a minute).

    python3 benchmark/reference.py

It prints
  * the largest difference between the numpy reference in 100 and in 200
    even basis states over the 33 values of beta below, which sets
    `checks.REFERENCE_FLOOR`;
  * the error of the `pade` and `integral` energies at order 34 against the
    numpy reference at 33 values of beta in [1/20, 4], and the envelope
    log10|E - E_ref| <= A - B beta^(-1/3) fitted over them, which is
    `checks.ENVELOPE`;
  * the errors at beta = 1/5 for the orders oscillator-cold uses, from
    which the per-order rates R of `checks.ENVELOPE` and the factorial
    tolerance are read;
  * the bit lengths of the exact rationals the oscillator workloads carry:
    the b_n and the numerators and denominators of the Pade approximants.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import ground_energy  # noqa: E402
from facseries import PrecisionContext, oscillator_coeffs, oscillator_energy, pade_construct  # noqa: E402
from facseries.transforms import power_to_factorial_coeffs  # noqa: E402
from facseries.series import FormalSeries, SeriesKind  # noqa: E402
from workloads import BETA_SCAN_ORDER, COLD_FACTORIAL_ORDERS, COLD_STRATA  # noqa: E402


def _bits(values) -> str:
    num = max(abs(Fraction(v).numerator).bit_length() for v in values)
    den = max(Fraction(v).denominator.bit_length() for v in values)
    return f"numerator {num} bits, denominator {den} bits"


def main() -> None:
    warnings.simplefilter("ignore")
    prec = PrecisionContext(64)
    order = BETA_SCAN_ORDER
    print(f"order {order} errors against the numpy reference")
    points = {"pade": [], "integral": []}
    lo, hi = math.log(1 / 20), math.log(4)
    basis_gap = 0.0
    for i in range(33):
        beta = Fraction(round(math.exp(lo + i * (hi - lo) / 32) * 1000), 1000)
        ref = ground_energy(beta)
        basis_gap = max(basis_gap, abs(ground_energy(beta, half_basis=200) - ref))
        row = []
        for method in points:
            err = abs(float(oscillator_energy(beta, order, method, prec)) - ref)
            row.append(f"{method} {err:.3e}")
            if err > 1e-14:
                points[method].append((float(beta) ** (-1 / 3), math.log10(err)))
        print(f"  beta {float(beta):.3f}: " + ", ".join(row))
    print(f"reference in 100 and 200 basis states: largest difference {basis_gap:.1e}")
    for method, pts in points.items():
        (x0, y0), (x1, y1) = pts[0], pts[-1]
        b = (y1 - y0) / (x0 - x1)
        a = max(y + b * x for x, y in pts)
        print(f"envelope {method}: A = {a:.2f}, B = {b:.2f}")

    beta = Fraction(1, 5)
    ref = ground_energy(beta)
    print(f"errors at beta = 1/5 (reference {ref!r})")
    for o in sorted({o for s in COLD_STRATA for o in s}):
        errs = [abs(float(oscillator_energy(beta, o, m, prec)) - ref)
                for m in ("factorial", "pade", "integral")]
        print(f"  order {o}: factorial {errs[0]:.3e}, pade {errs[1]:.3e}, integral {errs[2]:.3e}")
    for o in COLD_FACTORIAL_ORDERS:
        err = abs(float(oscillator_energy(beta, o, "factorial", prec)) - ref)
        print(f"  order {o}: factorial {err:.3e}")

    print("bit lengths of the exact rationals")
    for n in (order + 1, max(max(s) for s in COLD_STRATA) + 1, max(COLD_FACTORIAL_ORDERS) + 1):
        print(f"  b_1..b_{n}: {_bits(oscillator_coeffs(n).coeffs[1:])}")
    for o in (order, max(max(s) for s in COLD_STRATA)):
        shift = oscillator_coeffs(o + 1).shift_coeffs(o)
        approx = pade_construct(shift, o // 2, o - o // 2)
        print(f"  pade [{o // 2}/{o - o // 2}] of the shift series: "
              f"num {_bits(approx.num)}; den {_bits(approx.den)}")
        lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), o)
        reduced = [v / math.factorial(m) for m, v in enumerate(lam)]
        approx = pade_construct(reduced, o // 2, o - o // 2)
        print(f"  pade [{o // 2}/{o - o // 2}] of the conjugate function: "
              f"num {_bits(approx.num)}; den {_bits(approx.den)}")


if __name__ == "__main__":
    main()
