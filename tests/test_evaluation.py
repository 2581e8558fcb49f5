"""Quadrature and the three summation back-ends."""

import gc
import itertools
import math
import weakref
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import libmp, mp

from facseries import applications, evaluate
from facseries.applications import (
    e1_factorial_coeffs,
    e1_reference,
    oscillator_coeffs,
    oscillator_energy,
)
from facseries.errors import DomainError, IntegrationError, PoleError, PoleInDomainError
from facseries.evaluate import (
    QuadratureConvergenceWarning,
    _check_poles_in_unit_interval,
    _euler_integral,
    _fixed_point,
    _fixed_point_phi,
    _head_series,
    _horner_fixed,
    _gauss_legendre_nodes,
    _octave_nodes,
    _octave_setup,
    _octave_table,
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
    to_mpf,
)
from facseries.pade import PadeApprox, pade_construct
from facseries.transforms import power_to_factorial_coeffs

PREC = PrecisionContext(64)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.points_per_panel * spec.panels >= 16

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(points_per_panel=4)
        with pytest.raises(DomainError):
            QuadratureSpec(panels=0)

    def test_too_few_nodes(self):
        with pytest.raises(DomainError, match="at least 16 quadrature nodes"):
            QuadratureSpec(points_per_panel=8, panels=1)


class TestQuadrature01:
    def test_polynomial(self):
        with PREC.workdps():
            v = quadrature_01(lambda t: 5 * t**4, QuadratureSpec(), PREC)
            assert abs(v - 1) < PREC.tol(10)

    def test_smooth_transcendental(self):
        with PREC.workdps():
            v = quadrature_01(lambda t: mp.sin(t), QuadratureSpec(), PREC)
            assert abs(v - (1 - mp.cos(1))) < PREC.tol(10)

    @pytest.mark.parametrize("scale", [1, mp.mpf(2) ** -200])
    def test_warning_on_rough_integrand(self, scale):
        # |t - 1/3| has a kink no Gauss rule resolves to 32 digits; the check is
        # relative, so it warns as well with the integrand far below one
        with pytest.warns(QuadratureConvergenceWarning):
            quadrature_01(
                lambda t: scale * abs(t - mp.mpf(1) / 3) ** mp.mpf("1.5"),
                QuadratureSpec(points_per_panel=8, panels=2),
                PREC,
            )

    @pytest.mark.parametrize("bad", [mp.inf, mp.nan])
    def test_non_finite_integrand(self, bad):
        with pytest.raises(IntegrationError, match="non-finite integrand"):
            quadrature_01(lambda t: bad if t > 0.5 else t, QuadratureSpec(), PREC)


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


def exact_factorial_sums(d, z):
    """sum_{n<=m} d_n/(z)_{n+1} for every m, in Fractions, term by term."""
    sums, total, poch = [], Fraction(0), Fraction(1)
    for n, c in enumerate(d):
        poch *= z + n
        total += c / poch
        sums.append(total)
    return sums


def rounded(q, bits):
    return mp.make_mpf(libmp.from_rational(q.numerator, q.denominator, bits, libmp.round_nearest))


def waring(n, w=Fraction(1, 2)):
    """d_k = (w)_k, k < n: sum_k d_k/(z)_{k+1} = 1/(z - w)."""
    return [math.prod(w + i for i in range(k)) * Fraction(1) for k in range(n)]


class TestDirectSumsExactThenRounded:
    """Each partial sum is the exact rational one rounded once to P + 10 digits."""

    @pytest.mark.parametrize("digits", [16, 64])
    @pytest.mark.parametrize("z", [Fraction(1, 2), Fraction(5), Fraction(163, 8), Fraction(20)])
    @pytest.mark.parametrize("terms", [1, 10, 60])
    def test_e1(self, z, terms, digits):
        prec = PrecisionContext(digits)
        d = e1_factorial_coeffs(terms - 1)
        report = sum_factorial_series(FormalSeries(SeriesKind.FACTORIAL, d), z, terms, prec)
        bits = libmp.dps_to_prec(digits + 10)
        want = [rounded(q, bits) for q in exact_factorial_sums(d, z)]
        assert [s._mpf_ for s in report.partial_sums] == [s._mpf_ for s in want]
        assert report.final is report.partial_sums[-1]

    @pytest.mark.parametrize("z", [Fraction(3), Fraction(-7, 3), Fraction(-51, 2), Fraction(10**30, 7)])
    def test_waring(self, z):
        d = waring(40)
        report = sum_factorial_series(FormalSeries(SeriesKind.FACTORIAL, d), z, 40, PREC)
        want = [rounded(q, libmp.dps_to_prec(74)) for q in exact_factorial_sums(d, z)]
        assert [s._mpf_ for s in report.partial_sums] == [s._mpf_ for s in want]

    @pytest.mark.parametrize("z", [0.1, 2.0**-30 + 3, mp.mpf(5) / 3, mp.mpf("1e-40") + 1])
    def test_float_and_mpf_z_read_exactly(self, z):
        # 0.1 is the dyadic 3602879701896397/2^55, not 1/10; an mpf holds its own bits
        zq = Fraction(z) if isinstance(z, float) else Fraction(*libmp.to_rational(z._mpf_))
        d = waring(12)
        report = sum_factorial_series(FormalSeries(SeriesKind.FACTORIAL, d), z, 12, PREC)
        want = [rounded(q, libmp.dps_to_prec(74)) for q in exact_factorial_sums(d, zq)]
        assert [s._mpf_ for s in report.partial_sums] == [s._mpf_ for s in want]

    @pytest.mark.parametrize("digits", [16, 30, 64])
    @pytest.mark.parametrize("z, terms", [(Fraction(3, 2), 12), (Fraction(100), 60)])
    def test_relative_errors_of_the_rounded_sums(self, z, terms, digits):
        # |round-once(S_m) - ref| / |ref|, all at P + 15 digits
        prec = PrecisionContext(digits)
        d = e1_factorial_coeffs(terms - 1)
        series = FormalSeries(SeriesKind.FACTORIAL, d)
        report = applications.E1Series.build(terms - 1).summation_report(z, terms, prec)
        sums = [rounded(q, libmp.dps_to_prec(digits + 10)) for q in exact_factorial_sums(d, z)]
        assert report.partial_sums == sum_factorial_series(series, z, terms, prec).partial_sums
        with mp.workdps(digits + 15):
            ref = mp.exp(to_mpf(z)) * mp.e1(to_mpf(z))
            assert report.reference == ref
            want = [abs(s - ref) / abs(ref) for s in sums]
        assert [e._mpf_ for e in report.relative_errors] == [e._mpf_ for e in want]

    @pytest.mark.parametrize("z", [float("inf"), mp.inf, mp.nan, "inf"])
    def test_non_finite_z(self, z):
        with pytest.raises(DomainError):
            sum_factorial_series(FormalSeries(SeriesKind.FACTORIAL, [1, 1]), z, 2, PREC)


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

    @pytest.mark.parametrize("z", [float("inf"), mp.inf, mp.nan, "inf"])
    def test_non_finite_z(self, z):
        with pytest.raises(DomainError):
            eval_power_as_factorial([1, 1], z, 2, PREC)

    @pytest.mark.parametrize("z", [Fraction(1, 8), Fraction(7, 3), 0.1, mp.mpf(5) / 2**70, "1e400"])
    def test_each_sum_exact_then_rounded(self, z):
        # sum_m (lambda_m/m!) prod_{k<=m} z/(z + 1/k) in Fractions at z's exact value, rounded
        # once with 10 guard digits
        lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, [1, -3, 7, Fraction(1, 5)]), 3)
        zq = Fraction(z) if not isinstance(z, mp.mpf) else Fraction(*libmp.to_rational(z._mpf_))
        report = eval_power_as_factorial(lam, z, 4, PREC)
        total, product = Fraction(0), Fraction(1)
        for m, (l, got) in enumerate(zip(lam, report.partial_sums)):
            product *= zq / (zq + Fraction(1, m)) if m else 1
            total += l / factorial(m) * product
            with PREC.workdps(10):
                assert got == to_mpf(total)


class TestEulerIntegral:
    def test_truncated_geometric_conjugate(self):
        # phi(u) = sum u^n rebuilt as [1/1] = 1/(1-u): integrand t^(z-2), whose
        # integral is 1/(z-1); the endpoint pole at u=1 lowers the exponent by one
        a = [Fraction(1)] * 3
        v = euler_integral_eval(a, 3, 1, 1, QuadratureSpec(), PREC)
        with PREC.workdps():
            assert mp.nstr(v, PREC.digits) == "0.5"
        for z in (1, Fraction(1, 2)):  # the integral diverges
            with pytest.raises(DomainError, match="pole of order 1"):
                euler_integral_eval(a, z, 1, 1, QuadratureSpec(), PREC)

    def test_double_endpoint_pole(self):
        # phi(u) = (1 + u)/(1-u)^2: integrand (2 - t)/t^2 t^(z-1), integral 2/(z-2) - 1/(z-1)
        p = PadeApprox(num=(Fraction(1), Fraction(1)), den=(Fraction(1), Fraction(-2), Fraction(1)))
        for z in (Fraction(5, 2), Fraction(7)):
            value = _euler_integral(p, z, QuadratureSpec(), PREC)
            with PREC.workdps(10):
                assert abs(value - (2 / (to_mpf(z) - 2) - 1 / (to_mpf(z) - 1))) < PREC.tol(-2)
        with pytest.raises(DomainError, match="pole of order 2"):
            _euler_integral(p, 2, QuadratureSpec(), PREC)

    def test_interior_pole_rejected(self):
        # phi(u) = 1/(1 - 2u) has a pole at u = 1/2
        a = [Fraction(2**n) for n in range(3)]
        with pytest.raises(PoleInDomainError):
            euler_integral_eval(a, 3, 1, 1, QuadratureSpec(), PREC)

    @pytest.mark.parametrize("den", [(1, -2), (1, Fraction(-3, 2))])
    def test_interior_pole_raised_by_the_integral_itself(self, den):
        # phi = 1/den has a pole at u = 1/2 or 2/3: _euler_integral's own set-up
        # refuses it, whoever calls it, and keeps nothing
        p = PadeApprox(num=(Fraction(1),), den=tuple(map(Fraction, den)))
        for _ in range(2):
            with pytest.raises(PoleInDomainError):
                _euler_integral(p, 2, QuadratureSpec(), PREC)
        assert p._node_tables == {}

    def test_e1_series_matches_reference(self):
        d = e1_factorial_coeffs(21)
        a = [dn / factorial(n) for n, dn in enumerate(d)]
        v = euler_integral_eval(a, 5, 10, 11, QuadratureSpec(), PREC)
        with PREC.workdps():
            ref = mp.e**5 * e1_reference(5, PREC)
            assert abs(v - ref) / ref < mp.mpf(10) ** -10

    # phi = 1/(1 + 10^4 (u - 3/4)^2) = 1/(5626 - 15000 u + 10^4 u^2), as its [0/2]
    # approximant: the poles t = 1/4 +- i/100 lie next to the panels of octaves 1 and 2,
    # where no real sign change shows them, and give rho about 1.8
    NEAR_POLES = [Fraction(1, 5626), Fraction(15000, 5626**2), Fraction(15000**2 - 10**4 * 5626, 5626**3)]

    @pytest.mark.parametrize("z", [Fraction(1, 3), Fraction(3), Fraction(20)])
    def test_complex_pole_pair_next_to_the_panels_warns(self, z):
        # at the default spec s = 0 alone would give 1e-80; the octave table's
        # Legendre coefficients see the poles
        for spec in (QuadratureSpec(), QuadratureSpec(16, 8)):
            with pytest.warns(QuadratureConvergenceWarning, match="panels of"):
                euler_integral_eval(self.NEAR_POLES, z, 0, 2, spec, PREC)

    def test_panel_check_is_relative_below_one(self):
        # the table's check is relative to the largest |psi|: the near poles scaled by
        # 2^-200 still warn, and the E1 conjugate function scaled either way does not
        with pytest.warns(QuadratureConvergenceWarning, match="panels of"):
            euler_integral_eval([c / 2**200 for c in self.NEAR_POLES], 3, 0, 2, QuadratureSpec(), PREC)
        d = e1_factorial_coeffs(21)
        a = [dn / factorial(n) for n, dn in enumerate(d)]
        for scale in (Fraction(1, 2**200), 2**200):
            euler_integral_eval([c * scale for c in a], 5, 10, 11, QuadratureSpec(), PREC)

    def test_panel_check_is_silent_where_the_rule_is_exact(self):
        # phi = 1 at z = 5: 8 Gauss points integrate s^4 exactly, and an integer z'
        # has no branch point
        v = euler_integral_eval([Fraction(1)], 5, 0, 0, QuadratureSpec(8, 2), PREC)
        with PREC.workdps():
            assert mp.nstr(v, PREC.digits) == mp.nstr(mp.mpf(1) / 5, PREC.digits)

    def test_panel_check_sees_the_layer(self):
        # phi = 1 at z = 200: s^199 grows across each of the 64 panels of 8 points
        # faster than rho^16, and the pass errs by about 1e-20; 16 points meet 10^-32
        with pytest.warns(QuadratureConvergenceWarning, match="panels of"):
            euler_integral_eval([Fraction(1)], 200, 0, 0, QuadratureSpec(8, 2), PREC)
        v = euler_integral_eval([Fraction(1)], 200, 0, 0, QuadratureSpec(16, 4), PREC)
        with PREC.workdps():
            assert abs(v * 200 - 1) < mp.mpf(10) ** -32

    def test_singularity_split_small_z(self):
        # phi = 1: integral of t^(z-1) is 1/z, singular at t=0 for z < 1
        v = euler_integral_eval([Fraction(1)], Fraction(1, 2), 0, 0,
                                QuadratureSpec(), PREC)
        with PREC.workdps():
            assert abs(v - 2) < PREC.tol(20)

    def test_tiny_z_prints_every_digit(self):
        # phi = 1: the head's first term 1/z' is the whole integral, and z' lies far
        # below the fixed-point unit of the head's other terms
        for z in (Fraction(1, 10**30), Fraction(1, 10**100)):
            v = euler_integral_eval([Fraction(1)], z, 0, 0, QuadratureSpec(), PREC)
            with PREC.workdps():
                assert mp.nstr(v, PREC.digits) == mp.nstr(mp.mpf(z.denominator), PREC.digits)
        # phi = 1/(1-u) at z = 1 + 10^-40: integral 1/(z-1), z - 1 formed exactly
        v = euler_integral_eval([Fraction(1)] * 3, 1 + Fraction(1, 10**40), 1, 1,
                                QuadratureSpec(), PREC)
        with PREC.workdps():
            assert mp.nstr(v, PREC.digits) == mp.nstr(mp.mpf(10) ** 40, PREC.digits)

    def test_large_z_up_to_the_reach(self):
        # phi = 1: integral 1/z; the panels on [1, 2] double up to 128, which is
        # enough for the layer at t = 1 up to z = 64 points per panel, and no further
        v = euler_integral_eval([Fraction(1)], 2048, 0, 0, QuadratureSpec(), PREC)
        with PREC.workdps():
            assert mp.nstr(v, PREC.digits) == mp.nstr(mp.mpf(1) / 2048, PREC.digits)
        with pytest.warns(QuadratureConvergenceWarning, match="reach"):
            euler_integral_eval([Fraction(1)], 2049, 0, 0, QuadratureSpec(), PREC)

    def test_reach_from_a_panel_count_not_a_power_of_two(self):
        # QuadratureSpec(32, 12) starts at 3 panels: the doubling stops at 64, not 96,
        # so the reach is 64 points = 2048 here too, and z = 3000 lies past it
        with pytest.warns(QuadratureConvergenceWarning, match="past the octave rule's reach"):
            euler_integral_eval([Fraction(1)], 3000, 0, 0, QuadratureSpec(32, 12), PREC)

    def test_z_positive_required(self):
        with pytest.raises(DomainError):
            euler_integral_eval([Fraction(1)], -1, 0, 0, QuadratureSpec(), PREC)


def floor_fixed(x, bits):
    """floor(x 2^bits) for an mpf x, exactly."""
    return math.floor(mpf_fraction(x) * Fraction(2) ** bits)


def reference_euler_integral(approx, z, spec, prec):
    """int_0^1 t^(z-1) phi(1-t) dt as the octave rule forms it with no node table:
    psi(1 - 2^-(k+1) s) at every node as it is needed, on a copy of the approximant
    that keeps nothing between calls, at the fine pass whose value the program returns."""
    with prec.workdps(10):
        fresh = PadeApprox(approx.num, approx.den)
        m, K, psi = (setup := _octave_setup(fresh))[:3]
        zm = to_mpf(z - m) if isinstance(z, (int, Fraction)) else to_mpf(z) - m
        a, e, g = mp.mpf(2) ** -zm, zm - 1, mp.prec + 20
        (f, phi), (f_head, head) = _fixed_point_phi(psi), _head_series(fresh, setup)
        nodes = _octave_nodes(spec.points_per_panel, 2 * max(1, spec.panels // 4), mp.prec)
        total = 0
        for s, w, log in zip(*nodes):
            acc = 0
            for k in reversed(range(K)):  # Horner in a = 2^-z', from the last octave
                _, man, exp, _ = mp.fsub(1, mp.ldexp(mp.make_mpf(s), -k - 1), exact=True)._mpf_
                acc = phi(man, -exp) + (acc * floor_fixed(a, g) >> g)
            with mp.workprec(g):
                c = mp.make_mpf(w) * mp.exp(mp.fmul(e, mp.make_mpf(log), exact=True))
            total += floor_fixed(c, g) * acc
        zf = floor_fixed(zm, g)
        rest = sum((c << g) // (zf + (k << g)) for k, c in enumerate(head[1:], 1))
        # a s^(z'-1) = (s/2)^(z'-1)/2: the logs are of s/2
        return a**K * mp.ldexp(head[0] / zm + rest, -f_head) + mp.ldexp(mp.mpf(total), -g - f - 1)


def oscillator_conjugate(order):
    """The order's Pade conjugate function, as oscillator_energy builds it."""
    shift = oscillator_coeffs(order + 1).shift_coeffs(order)
    lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), order)
    reduced = [l / factorial(m) for m, l in enumerate(lam)]
    return pade_construct(reduced, order // 2, order - order // 2)


class TestNodeTables:
    # z = 1/beta on both sides of 1, integer (20, 5, 1/2 ... ) and not (5/2, 7/3, 1/4)
    BETAS = [Fraction(1, 20), Fraction(1, 5), Fraction(2), Fraction(2, 5),
             Fraction(3, 7), Fraction(4)]

    def test_tabled_integral_is_the_untabled_rule(self):
        approx = oscillator_conjugate(12)
        cases = [(beta, prec, spec) for spec in (QuadratureSpec(), QuadratureSpec(24, 5))
                 for prec in (PrecisionContext(30), PrecisionContext(64)) for beta in self.BETAS]
        expected = {case: reference_euler_integral(approx, 1 / case[0], case[2], case[1])._mpf_
                    for case in cases}
        assert approx._node_tables == {}
        for _ in ("cold", "warm"):
            for beta, prec, spec in cases:
                got = _euler_integral(approx, 1 / beta, spec, prec)
                assert got._mpf_ == expected[beta, prec, spec], (beta, prec, spec)
        # the set-up, a head per precision, and per precision one octave table for
        # each spec: the one pass of the default spec (4 panels) and of 24 x 5 (2 panels)
        kinds = [k if isinstance(k, str) else k[0] for k in approx._node_tables]
        assert sorted(kinds) == ["head"] * 2 + ["setup"] + ["table"] * 4

    def test_each_node_value_is_the_untabled_one(self):
        # the sums above can absorb a one-unit change of a single entry; this cannot
        approx = oscillator_conjugate(12)
        for prec, (points, panels) in itertools.product(
                (PrecisionContext(30), PrecisionContext(64)), ((32, 2), (32, 4), (24, 1))):
            with prec.workdps(10):
                _, K, psi = (setup := _octave_setup(approx))[:3]
                f, columns, _ = _octave_table(approx, setup, points, panels)
                phi = _fixed_point_phi(psi)[1]
                ss = _octave_nodes(points, panels, mp.prec)[0]
                assert len(columns) == len(ss) == points * panels
                for s, column in zip(ss, columns):
                    us = [mp.fsub(1, mp.ldexp(mp.make_mpf(s), -k - 1), exact=True)._mpf_
                          for k in reversed(range(K))]
                    assert column == [phi(man, -exp) for _, man, exp, _ in us]

    def test_universal_nodes(self):
        # the rule on [1, 2]: nodes and weights of the composite rule, and the logs of s/2
        for prec, (points, panels) in itertools.product(
                (PrecisionContext(30), PrecisionContext(64)), ((32, 2), (32, 4), (24, 1))):
            with prec.workdps(10):
                nodes, weights = _gauss_legendre_nodes(points)
                half = mp.mpf(1) / (2 * panels)
                ss, ws, logs = _octave_nodes(points, panels, mp.prec)
                assert ss == [(1 + (2 * p + 1) * half + half * x)._mpf_
                              for p in range(panels) for x in nodes]
                assert ws == [(w * half)._mpf_ for _ in range(panels) for w in weights]
                bound = mp.ldexp(1, -mp.prec - 8)
                for s, log in zip(ss, logs):
                    with mp.workprec(mp.prec + 40):
                        assert abs(mp.make_mpf(log) - mp.log(mp.make_mpf(s) / 2)) <= bound

    def test_integral_energy_is_the_untabled_rule(self, monkeypatch):
        monkeypatch.setattr(applications, "_approx", {})
        approx, spec = oscillator_conjugate(12), QuadratureSpec()
        for _ in ("cold", "warm"):
            for beta in self.BETAS:  # 1 + omega at the exact 1/beta, to 10 guard digits
                omega = reference_euler_integral(approx, 1 / beta, spec, PREC)
                with PREC.workdps(10):
                    expected = 1 + omega
                assert oscillator_energy(beta, 12, "integral", PREC)._mpf_ == expected._mpf_

    def test_one_shot_approximant_keeps_no_table(self, monkeypatch):
        seen = []

        def spy(approx, *args):
            value = evaluate_integral(approx, *args)
            seen.append((weakref.ref(approx), len(approx._node_tables)))
            return value

        evaluate_integral = evaluate._euler_integral
        monkeypatch.setattr(evaluate, "_euler_integral", spy)
        euler_integral_eval([Fraction(1, n + 1) for n in range(5)], Fraction(3, 7), 2, 2,
                            QuadratureSpec(), PREC)
        gc.collect()
        [(approx, tables)] = seen
        assert tables > 0 and approx() is None

    @pytest.mark.parametrize("z, bad_u, t_range", [
        # the one table (4 panels) in its first octave, on both sides of z = 1
        (Fraction(5, 2), lambda u: u < 0.5, (0.5, 1)),
        (Fraction(1, 3), lambda u: u < 0.5, (0.5, 1)),
        # and in its last octave
        (Fraction(1, 3), lambda u: u > 0.9375, (0, 0.0625)),
    ])
    def test_non_finite_phi_raises_and_is_not_kept(self, monkeypatch, z, bad_u, t_range):
        def den_zero_at_one_node(p):
            (f, phi), hit = _fixed_point_phi(p), []

            def bad(m, s):
                if bad_u(m / 2**s) and not hit:
                    hit.append(m)
                    raise ZeroDivisionError
                return phi(m, s)

            return f, bad

        approx = pade_construct([Fraction(1, n + 1) for n in range(5)], 2, 2)
        monkeypatch.setattr(evaluate, "_fixed_point_phi", den_zero_at_one_node)
        for _ in range(2):  # from the failing build on, each build meets one bad node
            with pytest.raises(IntegrationError, match="non-finite integrand value") as info:
                _euler_integral(approx, z, QuadratureSpec(), PREC)
            assert t_range[0] < float(str(info.value).split("t=")[1]) < t_range[1]
            assert sorted(k if isinstance(k, str) else k[0] for k in approx._node_tables) \
                == ["head", "setup"]
        monkeypatch.undo()
        assert _euler_integral(approx, z, QuadratureSpec(), PREC) == \
            reference_euler_integral(approx, z, QuadratureSpec(), PREC)


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


def mpf_fraction(x):
    """The exact value of an mpf as a Fraction."""
    sign, man, exp, _ = x._mpf_
    return Fraction((-1) ** sign * man) * Fraction(2) ** exp


def mpf_horner_phi(p):
    """phi = num/den by mpf Horner at the working precision, as evaluated
    before the fixed-point kernel."""
    numf = [to_mpf(c) for c in p.num]
    denf = [to_mpf(c) for c in p.den]

    def phi(u):
        pn = mp.mpf(0)
        for c in reversed(numf):
            pn = pn * u + c
        pd = mp.mpf(0)
        for c in reversed(denf):
            pd = pd * u + c
        return pn / pd

    return phi


RATIONALS = st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9))


class TestFixedPointPhi:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(RATIONALS, min_size=1, max_size=21),
        st.lists(RATIONALS, max_size=20),
        st.sampled_from([0, -200, 200]),
        st.sampled_from([15, 40, 74]),
        st.data(),
    )
    def test_within_documented_bound(self, num, den_tail, scale, dps, data):
        num = [c * Fraction(2) ** scale for c in num]
        p = PadeApprox(num=tuple(num), den=(Fraction(1),) + tuple(den_tail))
        guard = (p.L + p.M + 2).bit_length() + 4
        with mp.workdps(dps):
            s = data.draw(st.integers(0, mp.prec), label="s")
            m = data.draw(st.integers(0, 2**s), label="m")
            u = Fraction(m, 2**s)
            scales, accs = [], []
            for coeffs, (w, fixed_coeffs) in zip((p.num, p.den), _fixed_point(p)):
                big = max(abs(c) for c in coeffs)
                if big:  # 2^-w is max|c| 2^-(prec+guard) to within a factor of 4
                    assert 1 < big * Fraction(2) ** (w - mp.prec - guard) < 4
                exact = sum(c * u**k for k, c in enumerate(coeffs)) * Fraction(2) ** w
                acc = _horner_fixed(fixed_coeffs, m, s)
                assert abs(acc - exact) <= len(coeffs)  # (deg+1) units of 2^-w
                scales.append(w)
                accs.append(acc)
            (wn, wd), (n_acc, d_acc) = scales, accs
            if d_acc == 0:
                return
            # the quotient is one floor division, its unit below one unit of N over D
            f, phi = _fixed_point_phi(p)
            assert f == mp.prec + 40 + wn - wd
            assert phi(m, s) == (n_acc << (mp.prec + 40)) // d_acc
            assert abs(d_acc) < 2 ** (mp.prec + 40)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(RATIONALS, min_size=1, max_size=21),
        st.lists(st.builds(Fraction, st.integers(0, 10**9), st.integers(1, 10**9)), max_size=20),
        st.integers(0, 2**74),
    )
    def test_tiny_numerator_keeps_relative_accuracy(self, num, den_tail, m):
        # a numerator scaled by 2^-200 scales phi exactly, and phi's relative
        # error stays within the documented per-polynomial bound (den >= 1 here)
        p = PadeApprox(num=tuple(num), den=(Fraction(1),) + tuple(den_tail))
        tiny = PadeApprox(num=tuple(c / 2**200 for c in num), den=p.den)
        with PREC.workdps(10):
            (f_tiny, phi_tiny), (f, phi) = _fixed_point_phi(tiny), _fixed_point_phi(p)
            assert phi_tiny(m, 74) == phi(m, 74) and (f_tiny == f + 200 or not any(num))
            u = Fraction(m, 2**74)
            at_u = [sum(c * u**k for k, c in enumerate(cs)) for cs in (tiny.num, tiny.den)]
            if at_u[0] == 0:
                return
            # each polynomial within (deg+1) 2^-w < 2^-(prec+4) max|c|, then the floor
            value, exact = Fraction(phi_tiny(m, 74), 2**f_tiny), at_u[0] / at_u[1]
            eps_n, eps_d = (Fraction(1, 2 ** (mp.prec + 4)) * max(abs(c) for c in cs) / abs(v)
                            for cs, v in zip((tiny.num, tiny.den), at_u))
            bound = (eps_n + eps_d) / (1 - eps_d) + Fraction(1, 2**f_tiny) / abs(exact)
            assert abs(value / exact - 1) <= bound

    def test_integral_scales_exactly_with_tiny_coefficients(self):
        d = e1_factorial_coeffs(21)
        a = [dn / factorial(n) for n, dn in enumerate(d)]
        tiny = [c / 2**200 for c in a]
        for z, (L, M) in ((5, (21, 0)), (3, (21, 0)), (Fraction(1, 2), (10, 11))):
            value = euler_integral_eval(tiny, z, L, M, QuadratureSpec(), PREC)
            assert value == mp.ldexp(euler_integral_eval(a, z, L, M, QuadratureSpec(), PREC), -200)
            if z >= 1:  # against the mpf-Horner route
                with PREC.workdps(10):
                    phi, zv = mpf_horner_phi(pade_construct(tiny, L, M)), to_mpf(z)
                    ref = quadrature_01(lambda t: t ** (zv - 1) * phi(1 - t), QuadratureSpec(), PREC)
                    assert abs(value / ref - 1) < PREC.tol(0)


def newton_gauss_legendre_reference(n):
    """Every node by its own Newton iteration from a cosine guess, all in mpf."""
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
    return nodes, weights


class TestGaussLegendreNodes:
    @pytest.mark.parametrize("n", [8, 16, 32, 33])
    def test_matches_newton_reference(self, n):
        with PREC.workdps(10):  # the quadrature's working precision
            nodes, weights = _gauss_legendre_nodes(n)
            ref_nodes, ref_weights = newton_gauss_legendre_reference(n)
            assert len(nodes) == len(weights) == n
            assert nodes == sorted(nodes, reverse=True)
            assert nodes[: n // 2] == [-x for x in reversed(nodes[-(n // 2):])]
            for x, w, rx, rw in zip(nodes, weights, ref_nodes, ref_weights):
                if abs(rx) < mp.eps:
                    # the middle root of an odd P_n is 0; the reference lands within rounding
                    assert x == 0 and w == rw
                    continue
                assert abs(x - rx) <= mp.ldexp(1, mp.mag(rx) - mp.prec)  # 1 ulp
                if x == rx:
                    assert w == rw
                # w = 2/((1-x^2) P_n'(x)^2) moves by 2|x|/(1-x^2) of itself per unit
                # of x, i.e. at most 8x^2/(1-x^2) of its own units for a 1-ulp node
                # change, plus n units for the rounding of the recurrence
                ulps = 8 * rx * rx / (1 - rx * rx) + n
                assert abs(w - rw) <= ulps * mp.ldexp(1, mp.mag(rw) - mp.prec)


def two_stage_gauss_legendre_reference(n):
    """The nodes and weights as they were formed before the fixed-point Newton started
    from the cosine guess itself: 8 float64 Newton steps first, then the same
    fixed-point Newton from that float root."""
    def legendre(x):
        p0, p1 = 1, x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / (x * x - 1)

    bits = mp.prec + 20
    one = 1 << bits
    half = []
    for i in range((n + 1) // 2):
        x = float(mp.cos(mp.pi * (i + 0.75) / (n + 0.5)))
        for _ in range(8):
            p, dp = legendre(x)
            x -= p / dp
        fx = 0 if 2 * i + 1 == n else int(x * 2.0**bits)
        for _ in range(100):
            p0, p1 = one, fx
            for j in range(2, n + 1):
                p0, p1 = p1, (((2 * j - 1) * fx * p1 >> bits) - (j - 1) * p0) // j
            dx = p1 * ((fx * fx >> bits) - one) // (n * ((fx * p1 >> bits) - p0) or 1)
            fx -= dx
            if abs(dx) < 1 << 10:
                break
        x = mp.make_mpf(libmp.from_man_exp(fx, -bits, mp.prec, libmp.round_nearest))
        _, dp = legendre(x)
        half.append((x, 2 / ((1 - x * x) * dp * dp)))
    half += [(-x, w) for x, w in reversed(half[: n // 2])]
    return tuple(map(list, zip(*half)))


class TestGaussLegendreNewton:
    @pytest.mark.parametrize("digits", [30, 64])
    @pytest.mark.parametrize("n", [8, 16, 32, 33])
    def test_bit_identical_to_the_two_stage_newton(self, n, digits):
        with mp.workdps(digits):
            nodes, weights = _gauss_legendre_nodes(n)
            ref_nodes, ref_weights = two_stage_gauss_legendre_reference(n)
            assert [x._mpf_ for x in nodes] == [x._mpf_ for x in ref_nodes]
            assert [w._mpf_ for w in weights] == [w._mpf_ for w in ref_weights]
