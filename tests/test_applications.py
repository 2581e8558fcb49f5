"""Case studies: the exponential integral E1 and the quartic oscillator."""

import sys
import threading
import warnings
from fractions import Fraction

import pytest
from mpmath import mp

from facseries import applications
from facseries.applications import (
    E1Series,
    OSCILLATOR_METHODS,
    OscillatorSeries,
    asymptotics_check,
    e1_factorial_coeffs,
    e1_inverse_power_coeffs,
    e1_reference,
    e1_reference_quadrature,
    oscillator_coeffs,
    oscillator_energy,
)
from facseries.errors import DomainError, IntegrityError
from facseries.evaluate import QuadratureConvergenceWarning
from facseries.series import PrecisionContext, SeriesKind
from facseries.transforms import inverse_power_to_factorial

PREC = PrecisionContext(64)

# E1(5), frozen from two independent high-precision routes (continued
# fraction and direct quadrature) agreeing to 60+ digits; parse under a
# working-precision context before use
E1_AT_5 = "0.00114829559127532579733056196982"


class TestE1Reference:
    def test_dual_oracle_agreement(self):
        with PREC.workdps():
            cf = e1_reference(5, PREC)
            quad = e1_reference_quadrature(5, PREC)
            assert abs(cf - quad) / cf < PREC.tol(10)

    def test_frozen_value(self):
        with PREC.workdps():
            assert abs(e1_reference(5, PREC) - mp.mpf(E1_AT_5)) < mp.mpf(10) ** -29

    def test_small_and_large_arguments(self):
        with PREC.workdps():
            for z in (mp.mpf("0.5"), 1, 20):
                cf = e1_reference(z, PREC)
                quad = e1_reference_quadrature(z, PREC)
                assert abs(cf - quad) / cf < PREC.tol(12)

    def test_positive_z_required(self):
        with pytest.raises(DomainError):
            e1_reference(0, PREC)
        with pytest.raises(DomainError):
            e1_reference_quadrature(-1, PREC)


class TestE1Coefficients:
    def test_inverse_power(self):
        s = e1_inverse_power_coeffs(5)
        assert s.kind is SeriesKind.INVERSE_POWER
        assert s.coeffs == (1, -1, 2, -6, 24, -120)

    def test_factorial_leading(self):
        assert e1_factorial_coeffs(3) == [1, -1, 1, -2]

    def test_matches_generic_transform(self):
        d = e1_factorial_coeffs(12)
        via = inverse_power_to_factorial(e1_inverse_power_coeffs(12), 12)
        assert tuple(d) == via.coeffs

    def test_negative_order(self):
        with pytest.raises(DomainError):
            e1_factorial_coeffs(-1)


class TestE1Summation:
    def test_convergence_trend(self):
        series = E1Series.build(15)
        report = series.summation_report(5, 15, PREC)
        errs = report.relative_errors
        # sampled decrease (term-by-term decrease does not hold for this series)
        assert errs[14] < errs[9] < errs[4]
        assert errs[14] < mp.mpf(10) ** -6

    def test_ratio_regression(self):
        # 15-term factorial sum at z=5 over e^5 E1(5), pinned to 20 digits;
        # acceptance criterion 2 recomputes it by an independent
        # exact-rational sum over mpmath's e1
        series = E1Series.build(14)
        report = series.summation_report(5, 15, PREC)
        with PREC.workdps():
            ratio = report.final / report.reference
            assert abs(ratio - mp.mpf("1.0000007634455004725")) < mp.mpf(10) ** -12


class TestOscillatorCoefficients:
    def test_leading_values(self):
        s = oscillator_coeffs(4)
        assert s.coeffs == (
            1,
            Fraction(3, 4),
            Fraction(-21, 16),
            Fraction(333, 64),
            Fraction(-30885, 1024),
        )

    def test_b1_gaussian_moment_oracle(self):
        # first order: ground-state expectation of x^4 in p^2 + x^2, computed
        # symbolically from the Gaussian ground state exp(-x^2/2)
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x", real=True)
        psi2 = sympy.exp(-(x**2))
        num = sympy.integrate(x**4 * psi2, (x, -sympy.oo, sympy.oo))
        den = sympy.integrate(psi2, (x, -sympy.oo, sympy.oo))
        assert sympy.nsimplify(num / den) == sympy.Rational(3, 4)
        assert oscillator_coeffs(1).coeffs[1] == Fraction(3, 4)

    def test_b2_sum_over_states_oracle(self):
        # second order: sum_k |<k|x^4|0>|^2/(E_0 - E_k) with E_n = 2n+1,
        # built from the exact position matrix with x_{m,m+1} = sqrt((m+1)/2)
        sympy = pytest.importorskip("sympy")
        n_basis = 12
        xm = sympy.zeros(n_basis, n_basis)
        for m in range(n_basis - 1):
            xm[m, m + 1] = xm[m + 1, m] = sympy.sqrt(sympy.Rational(m + 1, 2))
        x4 = xm**4
        b2 = sum(
            x4[k, 0] ** 2 / (1 - (2 * k + 1)) for k in range(1, n_basis)
        )
        assert sympy.simplify(b2) == sympy.Rational(-21, 16)
        assert oscillator_coeffs(2).coeffs[2] == Fraction(-21, 16)

    def test_sign_alternation(self):
        s = oscillator_coeffs(40)
        for n in range(1, 41):
            assert (s.coeffs[n] > 0) == (n % 2 == 1)

    def test_order_bounds(self):
        with pytest.raises(DomainError):
            oscillator_coeffs(-1)
        with pytest.raises(DomainError):
            oscillator_coeffs(201)

    def test_series_validation(self):
        with pytest.raises(IntegrityError):
            OscillatorSeries((Fraction(2),))
        with pytest.raises(IntegrityError):
            OscillatorSeries((Fraction(1), Fraction(-3, 4)))

    def test_shift_coeffs(self):
        s = oscillator_coeffs(5)
        assert s.shift_coeffs(2) == s.coeffs[1:4]
        with pytest.raises(DomainError):
            s.shift_coeffs(5)


def fraction_recursion_reference(order):
    """b_0..b_order by the row recursion of the module docstring, all in Fractions."""
    poly, b = [[Fraction(1)]], [Fraction(1)]
    for j in range(1, order + 1):
        a = [Fraction(0)] * (2 * j + 1)
        a[2 * j] = -poly[j - 1][2 * j - 2] / (8 * j)
        for m in range(2 * j - 1, 0, -1):
            acc = (2 * m + 2) * (2 * m + 1) * a[m + 1]
            if 0 <= m - 2 <= 2 * (j - 1):
                acc -= poly[j - 1][m - 2]
            for i in range(1, j):
                if m <= 2 * (j - i):
                    acc += b[i] * poly[j - i][m]
            a[m] = acc / (4 * m)
        poly.append(a)
        b.append(-2 * a[1])
    return tuple(b)


# b_100, from the Fraction recursion; its denominator is 2^296
B100_NUMERATOR = int(
    "-41878320957485246059475829426903698800162646287922978002634877338214172599300622904"
    "844270801382538421612501739089849418436083956400397515701600055913337614548315628564"
    "314810175724859550529887294344947875490759292693065773385537402569515077878366061884"
    "7102306340395"
)
B100_DENOMINATOR = 127314748520905380391777855525586135065716774604121015664758778084648831235208544136462336


class TestOscillatorIntegerRecursion:
    def test_matches_fraction_recursion(self):
        assert oscillator_coeffs(60).coeffs == fraction_recursion_reference(60)

    def test_b100_pinned(self):
        b100 = oscillator_coeffs(100).coeffs[100]
        assert (b100.numerator, b100.denominator) == (B100_NUMERATOR, B100_DENOMINATOR)
        assert B100_DENOMINATOR == 2**296

    def test_concurrent_growth_from_fresh_state(self, monkeypatch):
        # a fresh recursion state grown by several threads at once must equal the
        # serial build: growth is serialised by the lock, reads take none
        monkeypatch.setattr(applications, "_rows", [(1, [1])])
        monkeypatch.setattr(applications, "_b", [Fraction(1)])
        orders = [12, 30, 5, 30, 21, 30, 1, 26]
        results, errors = {}, []
        barrier = threading.Barrier(len(orders))

        def grow(slot, order):
            try:
                barrier.wait(timeout=10)
                results[slot] = oscillator_coeffs(order).coeffs
            except Exception as exc:  # reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(i, n)) for i, n in enumerate(orders)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        serial = fraction_recursion_reference(30)
        assert len(applications._b) == 31
        for slot, order in enumerate(orders):
            assert results[slot] == serial[: order + 1]


class TestAsymptotics:
    def test_trend(self):
        series = oscillator_coeffs(50)
        r = asymptotics_check(series, PREC)
        assert all(rn > 0 for rn in r)
        # regression anchors for the approach to 1
        assert abs(r[29] - mp.mpf("0.953541045574736")) < mp.mpf(10) ** -10
        assert abs(r[49] - mp.mpf("0.972772965527827")) < mp.mpf(10) ** -10
        assert mp.mpf("0.8") < r[49] < mp.mpf("1.2")
        for n in range(30, 50):  # r[n-1] is r_n
            assert abs(r[n] - 1) < abs(r[n - 1] - 1)

    def test_minimum_order(self):
        with pytest.raises(DomainError):
            asymptotics_check(oscillator_coeffs(10), PREC)


class TestOscillatorEnergy:
    def test_domain_checks(self):
        with pytest.raises(DomainError):
            oscillator_energy(Fraction(1, 5), 6, "borel", PREC)
        with pytest.raises(DomainError):
            oscillator_energy(Fraction(1, 5), 0, "pade", PREC)
        with pytest.raises(DomainError):
            oscillator_energy(Fraction(-1, 5), 6, "pade", PREC)

    def test_all_methods_small_order(self):
        # coarse run: every route lands in the right neighbourhood already
        # at order 6 for the weak coupling beta = 1/5
        ref = mp.mpf("1.118292654367039154")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureConvergenceWarning)
            for method in OSCILLATOR_METHODS:
                e = oscillator_energy(Fraction(1, 5), 6, method, PREC)
                assert abs(e - ref) < mp.mpf("0.01")

    def test_pade_beats_truncation_at_moderate_order(self):
        ref = mp.mpf("1.118292654367039154")
        shift = oscillator_coeffs(13).shift_coeffs(12)
        with PREC.workdps():
            beta = mp.mpf(1) / 5
            truncated = 1 + beta * mp.fsum(
                mp.mpf(c.numerator) / c.denominator * beta**m
                for m, c in enumerate(shift)
            )
            pade = oscillator_energy(Fraction(1, 5), 12, "pade", PREC)
            assert abs(pade - ref) < abs(truncated - ref)
