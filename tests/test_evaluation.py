"""Quadrature and the three summation back-ends."""

import warnings
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from facseries.applications import e1_factorial_coeffs, e1_reference
from facseries.errors import DomainError, PoleError, PoleInDomainError
from facseries.evaluate import (
    QuadratureConvergenceWarning,
    _check_poles_in_unit_interval,
    QuadratureSpec,
    eval_power_as_factorial,
    euler_integral_eval,
    quadrature_01,
    sum_factorial_series,
)
from facseries.series import (
    FormalSeries,
    PrecisionContext,
    SeriesKind,
    factorial_term,
)
from facseries.pade import PadeApprox
from facseries.transforms import power_to_factorial_coeffs

PREC = PrecisionContext(64)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rule == "gauss_legendre"
        assert spec.points_per_panel * spec.panels >= 16

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rule="trapezoid")
        with pytest.raises(DomainError):
            QuadratureSpec(points_per_panel=4)
        with pytest.raises(DomainError):
            QuadratureSpec(panels=0)


class TestQuadrature01:
    def test_polynomial(self):
        with PREC.workdps():
            v = quadrature_01(lambda t: 5 * t**4, QuadratureSpec(), PREC)
            assert abs(v - 1) < PREC.tol(10)

    def test_smooth_transcendental(self):
        with PREC.workdps():
            v = quadrature_01(lambda t: mp.sin(t), QuadratureSpec(), PREC)
            assert abs(v - (1 - mp.cos(1))) < PREC.tol(10)

    def test_warning_on_rough_integrand(self):
        # |t - 1/3| has a kink no Gauss rule resolves to 32 digits
        with pytest.warns(QuadratureConvergenceWarning):
            quadrature_01(
                lambda t: abs(t - mp.mpf(1) / 3) ** mp.mpf("1.5"),
                QuadratureSpec(points_per_panel=8, panels=2),
                PREC,
            )


class TestDirectFactorialSum:
    def test_unit_series_is_inverse_z(self):
        d = FormalSeries(SeriesKind.FACTORIAL, [1, 0, 0])
        report = sum_factorial_series(d, 4, 3, PREC)
        with PREC.workdps():
            assert abs(report.final - mp.mpf(1) / 4) < PREC.tol(10)
        assert len(report.partial_sums) == 3
        assert report.final == report.partial_sums[-1]

    def test_waring_convergence(self):
        # sum_n (w)_n/(z)_{n+1} -> 1/(z - w) at z = 3, w = 1/2
        w = Fraction(1, 2)
        d = []
        poch = Fraction(1)
        for n in range(40):
            d.append(poch)
            poch *= w + n
        report = sum_factorial_series(
            FormalSeries(SeriesKind.FACTORIAL, d), 3, 40, PREC
        )
        with PREC.workdps():
            assert abs(report.final - mp.mpf("0.4")) < mp.mpf(10) ** -3

    def test_pole_raises(self):
        d = FormalSeries(SeriesKind.FACTORIAL, [1, 1, 1])
        with pytest.raises(PoleError):
            sum_factorial_series(d, 0, 3, PREC)
        with pytest.raises(PoleError):
            sum_factorial_series(d, -2, 3, PREC)

    def test_kind_and_bounds(self):
        with pytest.raises(DomainError):
            sum_factorial_series(FormalSeries(SeriesKind.POWER, [1]), 1, 1, PREC)
        d = FormalSeries(SeriesKind.FACTORIAL, [1, 1])
        with pytest.raises(DomainError):
            sum_factorial_series(d, 1, 3, PREC)

    def test_with_reference(self):
        d = FormalSeries(SeriesKind.FACTORIAL, [1, 0])
        report = sum_factorial_series(d, 2, 2, PREC).with_reference(
            Fraction(1, 2), PREC
        )
        assert report.reference == mp.mpf("0.5")
        assert len(report.relative_errors) == 2
        with PREC.workdps():
            assert report.relative_errors[-1] < PREC.tol(10)


class TestProductForm:
    def test_geometric(self):
        # f(x) = 1/(1 - x/3) at x = 1/8 through the factorial product form;
        # the transformed series converges like m^(-1/x), so small x is fast
        gamma = FormalSeries(SeriesKind.POWER, [Fraction(1, 3**n) for n in range(60)])
        lam = power_to_factorial_coeffs(gamma, 59)
        report = eval_power_as_factorial(lam, Fraction(1, 8), 60, PREC)
        with PREC.workdps():
            ref = mp.mpf(24) / 23  # 1/(1 - 1/24)
            assert abs(report.final - ref) < mp.mpf(10) ** -8
            # and the error shrinks along the tail of the partial sums
            assert abs(report.partial_sums[30] - ref) > abs(report.final - ref)

    def test_constant_series(self):
        # gamma = (c, 0, 0, ...): every partial sum is c
        lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, [7, 0, 0]), 2)
        report = eval_power_as_factorial(lam, 1, 3, PREC)
        assert all(s == 7 for s in report.partial_sums)

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_power_as_factorial([1, 0], -1, 2, PREC)
        with pytest.raises(DomainError):
            eval_power_as_factorial([1], 1, 2, PREC)


class TestEulerIntegral:
    def test_truncated_geometric_conjugate(self):
        # phi(u) = sum u^n rebuilt as [1/1] = 1/(1-u): integrand t^(z-2),
        # whose integral is 1/(z-1); the endpoint pole at u=1 must be tolerated
        a = [Fraction(1)] * 3
        v = euler_integral_eval(a, 3, 1, 1, QuadratureSpec(), PREC)
        with PREC.workdps():
            assert abs(v - mp.mpf("0.5")) < PREC.tol(10)

    def test_interior_pole_rejected(self):
        # phi(u) = 1/(1 - 2u) has a pole at u = 1/2
        a = [Fraction(2**n) for n in range(3)]
        with pytest.raises(PoleInDomainError):
            euler_integral_eval(a, 3, 1, 1, QuadratureSpec(), PREC)

    def test_e1_series_matches_reference(self):
        d = e1_factorial_coeffs(21)
        a = [dn / factorial(n) for n, dn in enumerate(d)]
        with warnings.catch_warnings():
            # the panel-doubling check sits right at the guard-digit floor here
            warnings.simplefilter("ignore", QuadratureConvergenceWarning)
            v = euler_integral_eval(a, 5, 10, 11, QuadratureSpec(), PREC)
        with PREC.workdps():
            ref = mp.e**5 * e1_reference(5, PREC)
            assert abs(v - ref) / ref < mp.mpf(10) ** -10

    def test_singularity_split_small_z(self):
        # phi = 1: integral of t^(z-1) is 1/z, singular at t=0 for z < 1
        v = euler_integral_eval([Fraction(1)], Fraction(1, 2), 0, 0,
                                QuadratureSpec(), PREC)
        with PREC.workdps():
            assert abs(v - 2) < PREC.tol(20)

    def test_split_can_be_disabled(self):
        # without the split the t^(z-1) endpoint singularity is unresolved
        spec = QuadratureSpec(singularity_split=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureConvergenceWarning)
            v = euler_integral_eval([Fraction(1)], Fraction(1, 2), 0, 0, spec, PREC)
        with PREC.workdps():
            assert abs(v - 2) > PREC.tol(20)  # visibly worse than the split route

    def test_z_positive_required(self):
        with pytest.raises(DomainError):
            euler_integral_eval([Fraction(1)], -1, 0, 0, QuadratureSpec(), PREC)


class TestAgreementBetweenBackends:
    def test_product_form_agrees_with_direct_sum(self):
        # for a power series in 1/z the product form at z and the direct
        # factorial sum tell the same story; check on the Waring example
        z = mp.mpf(3)
        w = Fraction(1, 2)
        d = []
        poch = Fraction(1)
        for n in range(30):
            d.append(poch)
            poch *= w + n
        direct = sum_factorial_series(
            FormalSeries(SeriesKind.FACTORIAL, d), z, 30, PREC
        ).final
        with PREC.workdps():
            terms = [factorial_term(z, n, d[n], PREC) for n in range(30)]
            assert abs(direct - mp.fsum(terms)) < PREC.tol(10)


def fraction_pole_scan(den):
    """The 65-point sign scan with Fraction arithmetic; the message it raises, or None."""
    signs = []
    for i in range(65):
        u = Fraction(2 * i + 1, 130)
        val = sum(c * u**k for k, c in enumerate(den))
        if val == 0:
            return f"Pade denominator vanishes at u={u}"
        signs.append(val > 0)
    if any(a != b for a, b in zip(signs, signs[1:])):
        return "Pade denominator changes sign inside (0, 1)"
    return None


class TestPoleScan:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), max_size=6),
        st.integers(0, 64),
        st.booleans(),
    )
    def test_integer_scan_matches_fraction_scan(self, tail, i, root_on_grid):
        den = [Fraction(1)] + tail
        if root_on_grid:
            # multiply by (1 - u/u_i) so the denominator vanishes on a sample point
            u = Fraction(2 * i + 1, 130)
            den = [c - (den[k - 1] / u if k else 0) for k, c in enumerate(den + [0])]
        p = PadeApprox(num=(Fraction(1),), den=tuple(den))
        expected = fraction_pole_scan(den)
        if expected is None:
            _check_poles_in_unit_interval(p)
        else:
            with pytest.raises(PoleInDomainError) as err:
                _check_poles_in_unit_interval(p)
            assert str(err.value) == expected
