"""Quadrature and the three summation back-ends."""

import contextlib
import gc
import itertools
import math
import sys
import weakref
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
import mpmath
from mpmath import libmp, mp

from facseries import applications, evaluate
from facseries.applications import (
    asymptotics_check,
    e1_factorial_coeffs,
    e1_reference,
    e1_reference_quadrature,
    oscillator_coeffs,
    oscillator_energy,
)
from facseries.errors import DomainError, FacseriesError, IntegrationError, PoleError, PoleInDomainError
from facseries.evaluate import (
    QuadratureConvergenceWarning,
    _check_poles_in_unit_interval,
    _euler_integral,
    _head_series,
    _gauss_legendre_nodes,
    _octave_column,
    _octave_nodes,
    _octave_setup,
    _octave_table,
    _t_form,
    _product_form_sums,
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
    _check_pole,
    _rational,
    factorial_term,
    forward_difference_term,
    pochhammer,
    term_decay_estimate,
    to_mpf,
)
from facseries.pade import PadeApprox, _pade_value, pade_construct, pade_eval
from facseries.transforms import power_to_factorial_coeffs

PREC = PrecisionContext(64)
PREC_BITS = libmp.dps_to_prec(PREC.digits + 10)  # the Euler integral's bit count


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


# The formulas the explicit-precision path replaced, each under the global precision
# that workdps set: the path must give their bits and their messages.


def old_quotient(p, q):
    return mp.make_mpf(libmp.from_rational(p, q, mp.prec, libmp.round_nearest))


def old_to_mpf(x):
    return old_quotient(x.numerator, x.denominator) if isinstance(x, Fraction) else mp.mpf(x)


def old_check_pole(z, n, prec):
    tol = prec.tol(4)
    i = int(mp.nint(min(n, max(0, -z))))
    if abs(z + i) < tol:
        raise PoleError(f"z={z} is within {mp.nstr(tol, 3)} of the pole at {-i}")


def old_with_reference(sums, reference, prec):
    with prec.workdps(15):
        ref = old_to_mpf(reference)
        return ref, tuple(abs(s - ref) / abs(ref) for s in sums)


def old_factorial_sums(d, z, terms, prec):
    with prec.workdps(10):
        old_check_pole(old_to_mpf(zq := _rational(z)), terms - 1, prec)
        w = 1 / zq
        return [old_quotient(w.numerator * p, w.denominator * q)
                for p, q in _product_form_sums(d.coeffs[:terms], w)]


def old_product_sums(lam, z, terms, prec):
    with prec.workdps(10):
        return [old_quotient(*s) for s in _product_form_sums(map(_rational, lam[:terms]), _rational(z))]


def pole_outcome(fn, *args):
    try:
        fn(*args)
    except PoleError as exc:
        return str(exc)
    return None


@st.composite
def references(draw):
    """A nonzero reference as an mpf (of up to 400 bits), a Fraction, an int or a decimal str."""
    kind = draw(st.sampled_from(["mpf", "fraction", "int", "str"]))
    num = draw(st.integers(-10**120, 10**120).filter(bool))
    den = draw(st.integers(1, 10**90))
    if kind == "mpf":
        return mp.make_mpf(libmp.from_rational(num, den, draw(st.integers(20, 400)), libmp.round_nearest))
    if kind == "fraction":
        return Fraction(num, den)
    if kind == "int":
        return num
    return f"{num}.{den}e{draw(st.integers(-80, 80))}"


digits_drawn = st.sampled_from([30, 64, 100])
points = st.fractions(min_value=Fraction(1, 64), max_value=40, max_denominator=10**6)


class TestExplicitPrecisionIsTheOldPath:
    """The sums, the pole check and with_reference round at the context's own bits
    with the libmp calls that the global precision used to select: the same bits."""

    @settings(max_examples=60, deadline=None)
    @given(digits=digits_drawn, z=points, terms=st.integers(1, 40), reference=references())
    def test_with_reference(self, digits, z, terms, reference):
        prec = PrecisionContext(digits)
        report = sum_factorial_series(FormalSeries(SeriesKind.FACTORIAL, e1_factorial_coeffs(terms - 1)),
                                      z, terms, prec)
        got = report.with_reference(reference, prec)
        ref, errs = old_with_reference(report.partial_sums, reference, prec)
        assert got.reference._mpf_ == ref._mpf_
        assert [e._mpf_ for e in got.relative_errors] == [e._mpf_ for e in errs]

    @settings(max_examples=40, deadline=None)
    @given(digits=digits_drawn, z=st.one_of(points, points.map(float), points.map(lambda q: -q)),
           terms=st.integers(1, 40))
    def test_factorial_sums(self, digits, z, terms):
        prec = PrecisionContext(digits)
        d = FormalSeries(SeriesKind.FACTORIAL, e1_factorial_coeffs(terms - 1))
        want = pole_outcome(old_factorial_sums, d, z, terms, prec)
        assert pole_outcome(sum_factorial_series, d, z, terms, prec) == want
        if want is None:
            got = sum_factorial_series(d, z, terms, prec).partial_sums
            assert [s._mpf_ for s in got] == [s._mpf_ for s in old_factorial_sums(d, z, terms, prec)]

    @settings(max_examples=40, deadline=None)
    @given(digits=digits_drawn, z=st.one_of(points, points.map(float)), terms=st.integers(1, 30))
    def test_product_sums(self, digits, z, terms):
        prec = PrecisionContext(digits)
        lam = power_to_factorial_coeffs(
            FormalSeries(SeriesKind.POWER, [Fraction((-1) ** m, m + 1) for m in range(terms)]), terms - 1)
        got = eval_power_as_factorial(lam, z, terms, prec).partial_sums
        assert [s._mpf_ for s in got] == [s._mpf_ for s in old_product_sums(lam, z, terms, prec)]

    @settings(max_examples=80, deadline=None)
    @given(digits=digits_drawn, pole=st.integers(0, 6), n=st.integers(0, 5),
           offset=st.integers(-4, 4), exponent=st.integers(-6, 6))
    def test_pole_messages(self, digits, pole, n, offset, exponent):
        # z = -pole + offset 10^-(P - 4 + exponent): on either side of the tolerance 10^(4-P)
        prec = PrecisionContext(digits)
        z = Fraction(-pole) + Fraction(offset, 10 ** (digits - 4 + exponent))
        d = FormalSeries(SeriesKind.FACTORIAL, [1] * (n + 1))
        for extra, call in [(10, lambda: sum_factorial_series(d, z, n + 1, prec)),
                            (0, lambda: factorial_term(z, n, 1, prec)),
                            (10, lambda: forward_difference_term(z, n - n // 2, n // 2, prec))]:
            with prec.workdps(extra):
                want = pole_outcome(old_check_pole, old_to_mpf(z), n, prec)
            assert pole_outcome(call) == want

    @pytest.mark.parametrize("z", [mp.nan, mp.inf, -mp.inf, mp.mpf(0), mp.mpf(-0.5),
                                   mp.mpf(-3.5), mp.mpf(-4.4), mp.mpf(-10) ** 40, mp.mpf(-2) ** -300])
    @pytest.mark.parametrize("extra", [0, 10])
    def test_pole_check_special_values(self, z, extra):
        for n in (0, 4):
            with PREC.workdps(extra):
                want = pole_outcome(old_check_pole, +z, n, PREC)
            assert pole_outcome(_check_pole, z._mpf_, n, PREC, extra) == want


# The workdps formulas of the public functions that now compute at the context's own
# bits, each under the global precision it set: the functions must give their bits.


def old_pochhammer(z, n, prec):
    with prec.workdps():
        zv = to_mpf(z)
        out = mp.mpf(1)
        for i in range(n):
            out *= zv + i
        return out


def old_factorial_term(z, n, d_n, prec):
    with prec.workdps():
        _check_pole((zv := to_mpf(z))._mpf_, n, prec, 0)
        return to_mpf(d_n) / old_pochhammer(zv, n + 1, prec)


def old_forward_difference_term(z, n, k, prec):
    with prec.workdps(10):
        _check_pole((zv := to_mpf(z))._mpf_, n + k, prec, 10)
        return (-1) ** k * factorial(n + k) / old_pochhammer(zv, n + k + 1, prec)


def old_term_decay_estimate(z, n, prec):
    with prec.workdps():
        return mp.mpf(n) ** (-to_mpf(z))


def old_pade_eval(p, z, prec):
    with prec.workdps(10):
        return to_mpf(_pade_value(p, _rational(z)))


def old_asymptotics_check(series, prec):
    with prec.workdps():
        pref = mp.sqrt(24) / mp.pi ** mp.mpf("1.5")
        out = []
        for n in range(1, series.order + 1):
            predicted = (-1) ** (n + 1) * pref * mp.gamma(n + mp.mpf(1) / 2) * mp.mpf(3) ** n / 2**n
            out.append(to_mpf(series.coeffs[n]) / predicted)
        return out


def old_e1_reference_quadrature(z, prec):
    with prec.workdps(15):
        zv = to_mpf(z)
        if not (zv > 0):
            raise DomainError(f"e1_reference_quadrature requires z > 0, got {z}")
        return mp.quad(lambda t: mp.exp(-t) / t, [zv, mp.inf])


def outcome(fn, *args):
    """[(type, raw value)] of fn(*args), one pair per value of a list, or the error's type and text."""
    try:
        value = fn(*args)
    except FacseriesError as exc:
        return type(exc), str(exc)
    return [(type(v), v._mpf_) for v in (value if isinstance(value, list) else [value])]


@st.composite
def reals(draw, low=-40, high=40):
    """A real in [low, high] as an int, a Fraction, a decimal str or an mpf of 20 to 400 bits."""
    q = draw(st.fractions(min_value=low, max_value=high, max_denominator=10**15))
    kind = draw(st.sampled_from(["int", "fraction", "str", "mpf"]))
    if kind == "int":
        return round(q)
    if kind == "fraction":
        return q
    if kind == "str":
        return f"{q.numerator / q.denominator:.{draw(st.integers(1, 40))}e}"
    return mp.make_mpf(libmp.from_rational(q.numerator, q.denominator, draw(st.integers(20, 400)),
                                           libmp.round_nearest))


all_digits = st.sampled_from([16, 30, 64, 100])


class TestMovedFunctionsAreTheOldFormulas:
    """Each public function that ran under workdps now computes at the context's own bits:
    the reference formula's raw value, typed mpmath.mpf, under any global precision."""

    @staticmethod
    def check(new, old, *args):
        want = outcome(old, *args)
        assert isinstance(want, tuple) or all(t is mpmath.mpf for t, _ in want)
        # a DomainError shows an mpf argument as str() does, at the caller's own precision
        shown = want[:1] if want[0] is DomainError and any(isinstance(a, mpmath.mpf) for a in args) else want
        for foreign in (None, 20, 200):  # the caller's own mpmath precision
            with mp.workdps(foreign) if foreign else contextlib.nullcontext():
                got = outcome(new, *args)
                assert got[: len(shown)] == shown and len(got) == len(want)
                assert mp.dps == (foreign or 15)

    @settings(max_examples=80, deadline=None)
    @given(digits=all_digits, z=reals(), n=st.integers(0, 30), d_n=reals(), k=st.integers(0, 6))
    def test_pochhammer_and_terms(self, digits, z, n, d_n, k):
        prec = PrecisionContext(digits)
        self.check(pochhammer, old_pochhammer, z, n, prec)
        self.check(factorial_term, old_factorial_term, z, n, d_n, prec)
        self.check(forward_difference_term, old_forward_difference_term, z, n, k, prec)
        self.check(term_decay_estimate, old_term_decay_estimate, z, n + 1, prec)

    @settings(max_examples=60, deadline=None)
    @given(digits=all_digits, z=reals(-8, 8), which=st.sampled_from(["log", "shift"]))
    def test_pade_eval(self, digits, z, which):
        if which == "log":  # log(1 + z)/z, whose [4/4] has poles on the negative axis
            p = pade_construct([Fraction((-1) ** k, k + 1) for k in range(9)], 4, 4)
        else:
            p = pade_construct(oscillator_coeffs(17).shift_coeffs(16), 8, 8)
        self.check(pade_eval, old_pade_eval, p, z, PrecisionContext(digits))

    @settings(max_examples=12, deadline=None)
    @given(digits=all_digits, order=st.integers(20, 60))
    def test_asymptotics_check(self, digits, order):
        self.check(asymptotics_check, old_asymptotics_check, oscillator_coeffs(order), PrecisionContext(digits))

    @settings(max_examples=6, deadline=None)
    @given(digits=all_digits, z=reals(-1, 20))
    def test_e1_reference_quadrature(self, digits, z):
        self.check(e1_reference_quadrature, old_e1_reference_quadrature, z, PrecisionContext(digits))


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


def untabled_columns(setup, nodes, bits):
    """(F, columns) as the octave table holds them, formed with no cache: each node's
    (N, D) from _octave_column on scales formed afresh at every call, each value
    floor(N/D 2^(F - w_num + w_den)) with the largest near 2^(bits+20)."""
    pairs = [_octave_column(lambda extra: _t_form(setup, bits, extra), man, exp, setup[1], bits)
             for _, man, exp, _ in nodes]
    shift = bits + 20 - max(n.bit_length() - d.bit_length() for column in pairs for n, d in column)
    (wn, _), (wd, _) = _t_form(setup, bits, 0)
    return shift + wn - wd, [[math.floor(Fraction(n, d) * Fraction(2) ** shift) for n, d in column]
                             for column in pairs]


def reference_euler_integral(approx, z, spec, prec):
    """int_0^1 t^(z-1) phi(1-t) dt as the octave rule forms it with no node table:
    psi(1 - 2^-(k+1) s) at every node from untabled_columns, on a copy of the approximant
    that keeps nothing between calls, at the fine pass whose value the program returns."""
    with prec.workdps(10):
        fresh = PadeApprox(approx.num, approx.den)
        m, K = (setup := _octave_setup(fresh))[:2]
        zm = to_mpf(z - m) if isinstance(z, (int, Fraction)) else to_mpf(z) - m
        a, e, g = mp.mpf(2) ** -zm, zm - 1, mp.prec + 20
        f_head, head = _head_series(fresh, setup, mp.prec)
        nodes = _octave_nodes(spec.points_per_panel, 2 * max(1, spec.panels // 4), mp.prec)
        f, columns = untabled_columns(setup, nodes[0], mp.prec)
        total = 0
        for column, w, log in zip(columns, *nodes[1:]):
            acc = 0
            for v in column:  # Horner in a = 2^-z', from the last octave
                acc = v + (acc * floor_fixed(a, g) >> g)
            w, log = (mp.make_mpf(libmp.from_man_exp(v, -g)) for v in (w, log))  # fixed at 2^-g
            with mp.workprec(g):
                c = w * mp.exp(mp.fmul(e, log, exact=True))
            total += floor_fixed(c, g) * acc
        zf = floor_fixed(zm, g)
        rest = sum((c << g) // (zf + (k << g)) for k, c in enumerate(head[1:], 1))
        # a s^(z'-1) = (s/2)^(z'-1)/2: the logs are of s/2
        return a**K * mp.ldexp(head[0] / zm + rest, -f_head) + mp.ldexp(mp.mpf(total), -g - f - 1)


def counting_mpf_calls(patch, names):
    """{name: calls} of libmp's routines, counted in every mpmath module that bound them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(libmp, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("mpmath") and getattr(module, name, None) is original:
                patch.setattr(module, name, counted)
    return counts


def oscillator_conjugate(order):
    """The order's Pade conjugate function, as oscillator_energy builds it."""
    shift = oscillator_coeffs(order + 1).shift_coeffs(order)
    lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), order)
    reduced = [l / factorial(m) for m, l in enumerate(lam)]
    return pade_construct(reduced, order // 2, order - order // 2)


class TestNodeTables:
    # z = 1/beta on both sides of 1, integer (20, 5) and not (1/2, 5/2, 3/2, 7/3, 1/4):
    # the ln 2 reduction of the integer sum's powers has n = 0 for z < 1 and n < 0 for z > 1
    BETAS = [Fraction(1, 20), Fraction(1, 5), Fraction(2), Fraction(2, 5), Fraction(2, 3),
             Fraction(3, 7), Fraction(4)]
    PRECS = [PrecisionContext(30), PrecisionContext(64), PrecisionContext(100)]

    def test_tabled_integral_is_the_untabled_rule(self):
        approx = oscillator_conjugate(12)
        # 24 x 5 only below 100 digits, where its 2-panel pass meets half the digits
        cases = [(beta, prec, spec) for spec, precs in ((QuadratureSpec(), self.PRECS),
                                                        (QuadratureSpec(24, 5), self.PRECS[:2]))
                 for prec in precs for beta in self.BETAS]
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
        assert sorted(kinds) == ["head"] * 3 + ["setup"] + ["table"] * 5

    def test_each_node_value_is_the_untabled_one(self):
        # the sums above can absorb a one-unit change of a single entry; this cannot
        approx = oscillator_conjugate(12)
        for prec, (points, panels) in itertools.product(
                (PrecisionContext(30), PrecisionContext(64)), ((32, 2), (32, 4), (24, 1))):
            with prec.workdps(10):
                K = (setup := _octave_setup(approx))[1]
                f, columns, _ = _octave_table(approx, setup, points, panels, mp.prec)
                ss = _octave_nodes(points, panels, mp.prec)[0]
                assert len(columns) == len(ss) == points * panels
                assert all(len(column) == K for column in columns)
                assert (f, columns) == untabled_columns(setup, ss, mp.prec)

    def test_universal_nodes(self):
        # the rule on [1, 2]: nodes and weights of the composite rule, and the logs of
        # s/2; weights and logs in fixed point at 2^-(prec+20), the weights exactly
        for prec, (points, panels) in itertools.product(
                (PrecisionContext(30), PrecisionContext(64)), ((32, 2), (32, 4), (24, 1))):
            with prec.workdps(10):
                nodes, weights = _gauss_legendre_nodes(points, mp.prec)
                half, bits = mp.mpf(1) / (2 * panels), mp.prec + 20
                ss, ws, logs = _octave_nodes(points, panels, mp.prec)
                assert ss == [(1 + (2 * p + 1) * half + half * x)._mpf_
                              for p in range(panels) for x in nodes]
                assert [libmp.from_man_exp(w, -bits) for w in ws] == \
                    [(w * half)._mpf_ for _ in range(panels) for w in weights]
                bound = mp.ldexp(1, -mp.prec - 8)
                for s, log in zip(ss, logs):
                    with mp.workprec(mp.prec + 40):
                        log = mp.make_mpf(libmp.from_man_exp(log, -bits))
                        assert abs(log - mp.log(mp.make_mpf(s) / 2)) <= bound

    def test_integral_energy_is_the_untabled_rule(self, monkeypatch):
        monkeypatch.setattr(applications, "_approx", {})
        approx, spec = oscillator_conjugate(12), QuadratureSpec()
        for _, prec, beta in itertools.product(("cold", "warm"), self.PRECS[1:], self.BETAS):
            omega = reference_euler_integral(approx, 1 / beta, spec, prec)
            with prec.workdps(10):  # 1 + omega at the exact 1/beta, to 10 guard digits
                expected = 1 + omega
            assert oscillator_energy(beta, 12, "integral", prec)._mpf_ == expected._mpf_

    def test_warm_request_makes_no_mpf_call_per_node(self, monkeypatch):
        # a warm request forms its powers in integers: as many mpf_exp and mpf_mul
        # calls at 64 nodes as at 128, wherever mpmath bound those names
        approx, prec, counts = oscillator_conjugate(12), PrecisionContext(30), []
        for spec in (QuadratureSpec(16, 8), QuadratureSpec(32, 8)):
            _euler_integral(approx, Fraction(7, 3), spec, prec)
            with monkeypatch.context() as patch:
                counts.append(counting_mpf_calls(patch, ("mpf_exp", "mpf_mul")))
                _euler_integral(approx, Fraction(7, 3), spec, prec)
        assert counts[0] == counts[1]

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
        def den_zero_where_bad(forms, man, e, K, bits):
            column = octave_column(forms, man, e, K, bits)
            return [(n, 0 if bad_u(1 - man * 2.0 ** (e - k - 1)) else d)
                    for k, (n, d) in zip(reversed(range(K)), column)]

        octave_column = evaluate._octave_column
        approx = pade_construct([Fraction(1, n + 1) for n in range(5)], 2, 2)
        monkeypatch.setattr(evaluate, "_octave_column", den_zero_where_bad)
        for _ in range(2):  # each build meets the bad nodes and stops at the first
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


def column_and_scales(setup, man, e, bits):
    """_octave_column's pairs at s = man 2^e, the scales (w_num, w_den) they are in
    units of, and the extras it asked _t_form for."""
    extras = []

    def forms(extra):
        extras.append(extra)
        return _t_form(setup, bits, extra)

    pairs = _octave_column(forms, man, e, setup[1], bits)
    (wn, _), (wd, _) = _t_form(setup, bits, extras[-1])
    return pairs, wn, wd, extras


def t_form_value(cs, d, t):
    """sum_i cs_i t^i / d, exactly."""
    return sum(c * t**i for i, c in enumerate(cs)) / d


class TestOctaveColumn:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=21),
        st.integers(1, 10**30),
        st.integers(-10**30, 10**30).filter(bool),
        st.lists(st.integers(-10**30, 10**30), max_size=20),
        st.sampled_from([0, -200, 200]),
        st.sampled_from([15, 40, 74]),
        st.integers(4, 14),
        st.data(),
    )
    def test_within_documented_bound(self, p, b, q0, q_tail, scale, dps, K, data):
        # psi(1 - t) = (sum p_i t^i / b) / (sum q_i t^i / q_0), at s = man 2^-r in (1, 2)
        p, b, q = [c << max(scale, 0) for c in p], b << max(-scale, 0), [q0] + q_tail
        bits = libmp.dps_to_prec(dps)
        r = data.draw(st.integers(1, bits), label="r")
        man = data.draw(st.integers(2**r + 1, 2 ** (r + 1) - 1), label="man")
        pairs, wn, wd, extras = column_and_scales((0, K, p, b, q), man, -r, bits)
        E = 2 * (max(len(p), len(q)) - 1) + 6
        assert len(pairs) == K
        for k, (n, d) in zip(reversed(range(K)), pairs):
            t = Fraction(man, 2 ** (r + k + 1))
            assert abs(n - t_form_value(p, b, t) * 2**wn) < E
            assert abs(d - t_form_value(q, q0, t) * 2**wd) < E
        # formed again, each time with a multiple of 32 more bits, while some N or D keeps
        # fewer than bits + 24 + bitlen(E) bits and extra is at most deg (K + r) + bits
        kept = min(v.bit_length() for pair in pairs for v in pair)
        cap = (max(len(p), len(q)) - 1) * (K + r) + bits
        assert extras[0] == 0 and all(0 < b - a and (b - a) % 32 == 0 for a, b in zip(extras, extras[1:]))
        assert all(extra <= cap for extra in extras[:-1])
        assert kept >= bits + 24 + E.bit_length() or extras[-1] > cap

    @pytest.mark.parametrize("num, den, man", [
        # (1 - u)^30 and (1 - u)^20 at t = 1 - u just above 1/16: about 2^-120 and 2^-80
        # from coefficients up to 2^27 in u (den's zero at u = 1 is divided out)
        ([(-1) ** k * math.comb(30, k) for k in range(31)], [1], 2**76 + 12345),
        ([1], [(-1) ** k * math.comb(20, k) for k in range(21)], 2**76 + 12345),
        ([(-1) ** k * math.comb(30, k) for k in range(31)], [(-1) ** k * math.comb(20, k) for k in range(21)],
         2**76 + 12345),
        # (1 - 2u)^9 = (2t - 1)^9 at t just above 1/2: about 2^-180 from coefficients up to 2^13 in t
        ([(-2) ** k * math.comb(9, k) for k in range(10)], [1], 2**76 + 2**56 + 12345),
        # and at t = 1/2 + 12345 2^-77: about 2^-562, which needs more than one pass formed again
        ([(-2) ** k * math.comb(9, k) for k in range(10)], [1], 2**76 + 12345),
    ])
    def test_cancelling_values_keep_relative_accuracy(self, num, den, man):
        p = PadeApprox(num=tuple(map(Fraction, num)), den=tuple(map(Fraction, den)))
        m, _, pn, b, q = _octave_setup(p)
        bits = PREC_BITS  # t = s 2^-(k+1) for k = 3 .. 0, s = man 2^-76
        pairs, wn, wd, _ = column_and_scales((m, 4, pn, b, q), man, -76, bits)
        for k, (n, d) in zip(reversed(range(4)), pairs):
            t = Fraction(man, 2 ** (77 + k))
            exact = t_form_value(pn, b, t) / t_form_value(q, q[0], t)
            # N and D each relatively within 2^-(bits+23), as each keeps bits + 24 + bitlen(E) bits
            assert abs(Fraction(n, d) * Fraction(2) ** (wd - wn) / exact - 1) <= Fraction(1, 2 ** (bits + 20))

    def test_exact_root_ends(self):
        # phi(u) = 1 - 4u is exactly 0 at t = 1 - u = 3/4, s = 3/2, k = 0: N stays 0 at
        # every extra, and the passes stop once extra is past deg (K - e) + bits
        p = PadeApprox(num=(Fraction(1), Fraction(-4)), den=(Fraction(1),))
        m, _, pn, b, q = _octave_setup(p)
        pairs, wn, wd, extras = column_and_scales((m, 4, pn, b, q), 3, -1, PREC_BITS)
        assert pairs[-1][0] == 0 and extras[-2] <= 1 * (4 + 1) + PREC_BITS < extras[-1]
        # a numerator that is 0 everywhere, with a denominator of degree 3 at e = -60, the same
        zero, _, _, zero_extras = column_and_scales((0, 4, [0], 1, [1, 2, 3, 4]), 2**60 + 1, -60, PREC_BITS)
        assert {n for n, _ in zero} == {0} and zero_extras[-2] <= 3 * (4 + 60) + PREC_BITS < zero_extras[-1]
        # degree 10 at e = -200: each pass past the first re-form at least doubles extra,
        # so 5 passes pass the cap 10 (4 + 200) + bits, where steps of 288 bits took 9
        zero, _, _, zero_extras = column_and_scales((0, 4, [0], 1, list(range(1, 12))), 2**200 + 1, -200, PREC_BITS)
        assert {n for n, _ in zero} == {0} and zero_extras[-2] <= 10 * (4 + 200) + PREC_BITS < zero_extras[-1]
        assert len(zero_extras) == 5 and all(b >= 2 * a for a, b in zip(zero_extras[1:], zero_extras[2:]))
        for k, (n, d) in zip(reversed(range(4)), pairs[:-1]):
            t = Fraction(3, 2 ** (k + 2))
            exact = t_form_value(pn, b, t) / t_form_value(q, q[0], t)
            assert abs(Fraction(n, d) * Fraction(2) ** (wd - wn) / exact - 1) <= Fraction(1, 2 ** (PREC_BITS + 20))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(RATIONALS, min_size=1, max_size=21),
        st.lists(st.builds(Fraction, st.integers(0, 10**9), st.integers(1, 10**9)), max_size=20),
        st.integers(1, 2**74 - 1),
    )
    def test_tiny_numerator_scales_exactly(self, num, den_tail, m):
        # a numerator scaled by 2^-200 moves its scale by exactly 200 bits and leaves
        # every N and D as it was (den >= 1 on [0, 1] here)
        p = PadeApprox(num=tuple(num), den=(Fraction(1),) + tuple(den_tail))
        tiny = PadeApprox(num=tuple(c / 2**200 for c in num), den=p.den)
        (pairs, wn, wd, _), (tiny_pairs, tiny_wn, tiny_wd, _) = (
            column_and_scales(_octave_setup(a), 2**74 + m, -74, PREC_BITS) for a in (p, tiny))
        assert tiny_pairs == pairs and tiny_wd == wd and (tiny_wn == wn + 200 or not any(num))

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


def e1_conjugate(L):
    """E1's [L/L+1] conjugate approximant, as TestIntegralOracle builds it."""
    d = e1_factorial_coeffs(2 * L + 1)
    return pade_construct([dn / factorial(n) for n, dn in enumerate(d)], L, L + 1)


class TestOctaveTableValues:
    @pytest.mark.parametrize("build, arg", [(oscillator_conjugate, 34), (oscillator_conjugate, 53),
                                            (e1_conjugate, 29)], ids=["osc-34", "osc-53", "e1-29-30"])
    def test_within_two_units_of_the_exact_values(self, build, arg):
        # E1's [29/30] cancels by up to 53 bits in t, the oscillator's by up to 28
        approx = build(arg)
        K, pn, b, q = (setup := _octave_setup(approx))[1:]
        f, columns, _ = _octave_table(approx, setup, 32, 4, PREC_BITS)
        # the unit from the values: the largest |value| in [2^(bits+19), 2^(bits+21))
        assert max(abs(v) for column in columns for v in column).bit_length() in (PREC_BITS + 20, PREC_BITS + 21)
        nodes = _octave_nodes(32, 4, PREC_BITS)[0]
        for (_, man, e, _), column in list(zip(nodes, columns))[::5]:
            for k, v in zip(reversed(range(K)), column):
                t = Fraction(man) * Fraction(2) ** (e - k - 1)
                psi = t_form_value(pn, b, t) / t_form_value(q, q[0], t)
                assert abs(v - math.floor(psi * 2**f)) <= 2, (man, k)

    def test_small_psi_keeps_every_digit(self):
        # phi(u) = (1 - 2u)^60 has coefficients up to 2^92 in t = 1 - u and |phi| <= 1 on
        # [0, 1]: with the unit from the values, not the coefficients, the integral at z = 3
        # keeps all 64 digits (9.2e-59 with the unit from the coefficients)
        approx = PadeApprox(num=tuple(Fraction((-2) ** k * math.comb(60, k)) for k in range(61)),
                            den=(Fraction(1),))
        exact = sum(Fraction(math.comb(60, i) * 2**i * (-1) ** (60 - i), i + 3) for i in range(61))
        value = mpf_fraction(_euler_integral(approx, 3, QuadratureSpec(), PREC))
        assert abs(value / exact - 1) <= Fraction(1, 10**64)


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
            nodes, weights = _gauss_legendre_nodes(n, mp.prec)
            ref_nodes, ref_weights = newton_gauss_legendre_reference(n)
            assert len(nodes) == len(weights) == n
            assert nodes == sorted(nodes, reverse=True)
            assert nodes[: n // 2] == [-x for x in reversed(nodes[-(n // 2):])]
            for x, w, rx, rw in zip(nodes, weights, ref_nodes, ref_weights):
                if abs(rx) < mp.eps:
                    # the middle root of an odd P_n is 0; the reference lands within rounding
                    assert x == 0
                else:
                    assert abs(x - rx) <= mp.ldexp(1, mp.mag(rx) - mp.prec)  # 1 ulp
                # w = 2/((1-x^2) P_n'(x)^2) moves by 2|x|/(1-x^2) of itself per unit
                # of x, i.e. at most 8x^2/(1-x^2) of its own units for a 1-ulp node
                # change, plus n units for the rounding of the recurrence
                ulps = 8 * rx * rx / (1 - rx * rx) + n
                assert abs(w - rw) <= ulps * mp.ldexp(1, mp.mag(rw) - mp.prec)


def two_stage_gauss_legendre_reference(n):
    """The nodes as they were formed before the fixed-point Newton started from the
    cosine guess itself: 8 float64 Newton steps first, then the same fixed-point
    Newton at the full precision from that float root."""
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
        half.append(mp.make_mpf(libmp.from_man_exp(fx, -bits, mp.prec, libmp.round_nearest)))
    return half + [-x for x in reversed(half[: n // 2])]


class TestGaussLegendreNewton:
    @pytest.mark.parametrize("digits", [30, 64])
    @pytest.mark.parametrize("n", [8, 16, 32, 33])
    def test_bit_identical_to_the_two_stage_newton(self, n, digits):
        # the precision-doubling Newton lands on the same nodes; the weights are
        # checked against a wider build below
        with mp.workdps(digits):
            nodes = _gauss_legendre_nodes(n, mp.prec)[0]
            assert [x._mpf_ for x in nodes] == [x._mpf_ for x in two_stage_gauss_legendre_reference(n)]

    @pytest.mark.parametrize("digits", [30, 64, 100])
    @pytest.mark.parametrize("n", [8, 16, 24, 32, 33])
    def test_weights_within_one_ulp_of_a_wider_build(self, n, digits):
        bits = libmp.dps_to_prec(digits)
        weights, wider = (_gauss_legendre_nodes(n, b)[1] for b in (bits, 2 * bits + 40))
        for w, ref in zip(weights, wider):
            _, _, exp, bc = w._mpf_
            assert abs(mpf_fraction(w) - mpf_fraction(ref)) <= Fraction(2) ** (exp + bc - bits)
