"""Case studies: the exponential integral E1 and the quartic oscillator."""

import itertools
import sys
import threading
import warnings
from fractions import Fraction
from math import factorial

import pytest
import sympy
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
from facseries.errors import DomainError, IntegrityError, PoleInDomainError
from facseries.evaluate import (
    QuadratureConvergenceWarning,
    QuadratureSpec,
    _weighted_gl,
    euler_integral_eval,
)
from facseries.pade import pade_construct, pade_eval
from facseries.series import FormalSeries, PrecisionContext, SeriesKind, to_mpf
from facseries.transforms import inverse_power_to_factorial, power_to_factorial_coeffs

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

    @pytest.mark.parametrize("z", [Fraction(1, 1000), Fraction(1, 100000)])
    def test_small_z_against_convergent_series(self, z):
        # E1(z) = -gamma - ln z - sum_{k>=1} (-z)^k / (k k!), summed at 120 digits
        with mp.workdps(120):
            zv = mp.mpf(z.numerator) / z.denominator
            series = -mp.euler - mp.log(zv) - mp.nsum(
                lambda k: (-zv) ** k / (k * mp.factorial(k)), [1, mp.inf]
            )
            got = e1_reference(z, PREC)
            assert abs(got - series) / series < mp.mpf(10) ** -PREC.digits

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


class TestE1Pade:
    @pytest.mark.parametrize("n", range(1, 61))
    def test_closed_form_equals_solve(self, n):
        series = E1Series.build(n - 1)
        h = n // 2
        solved = pade_construct(series.inverse_power.coeffs, max(h - 1, 0), h)
        assert series.pade() == solved

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 61])
    def test_matches_through_order(self, n):
        p = E1Series.build(n - 1).pade()
        coeffs = e1_inverse_power_coeffs(n - 1).coeffs
        assert p.taylor(p.L + p.M) == coeffs[: p.L + p.M + 1]
        assert all(type(v) is Fraction for v in p.num + p.den)

    @pytest.mark.parametrize("h", [1, 2, 5, 17, 30])
    def test_denominator_is_scaled_laguerre(self, h):
        # h! w^h L_h(-1/w), expanded in w by sympy: an oracle apart from both routes
        w = sympy.symbols("w")
        poly = sympy.Poly(sympy.expand(sympy.factorial(h) * w**h * sympy.laguerre(h, -1 / w)), w)
        want = tuple(Fraction(int(c)) for c in reversed(poly.all_coeffs()))
        assert E1Series.build(2 * h - 1).pade().den == want


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


@pytest.fixture
def pade_builds(monkeypatch):
    """(L, M) of each pade_construct call applications makes, from no kept approximant."""
    calls = []

    def counting(*args):
        calls.append(args[1:])
        return pade_construct(*args)

    monkeypatch.setattr(applications, "_approx", {})
    monkeypatch.setattr(applications, "pade_construct", counting)
    return calls


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

    # 64-digit integral energies at order 34, recorded before the fixed-point
    # quadrature kernel and the mirrored Gauss-Legendre nodes replaced the mpf
    # Horner and the n-root Newton build; the rebuilt path must reproduce them
    INTEGRAL_ORDER_34 = {
        Fraction(1, 20): "1.034729697255483804270223252253604604069184256186584563437983952",
        Fraction(1, 5): "1.118292654368740442901792846152361900933443159046968163607309169",
        Fraction(2): "1.609568258429662756572025552782775855533725900122504867040871543",
        Fraction(4): "1.927420778416946147315092190035242178669926943082243640802982088",
    }

    @pytest.mark.parametrize("beta", sorted(INTEGRAL_ORDER_34))
    def test_integral_energy_pinned(self, beta):
        energy = oscillator_energy(beta, 34, "integral", PREC)
        assert mp.nstr(energy, 64) == self.INTEGRAL_ORDER_34[beta]

    def test_approximants_built_once_per_order(self, pade_builds):
        prec, spec = PrecisionContext(20), QuadratureSpec(points_per_panel=16, panels=2)
        shift = oscillator_coeffs(35).shift_coeffs(34)
        lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), 34)
        reduced = [l / factorial(m) for m, l in enumerate(lam)]
        solved = pade_construct(shift, 17, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureConvergenceWarning)
            for beta in (Fraction(i * i, 64) for i in range(2, 18)):  # 1/16 .. 289/64
                # each energy as oscillator_energy formed it with no approximant kept
                with prec.workdps(10):
                    w = 1 / to_mpf(beta)
                omega = euler_integral_eval(reduced, w, 17, 17, spec, prec)
                with prec.workdps():
                    bv = to_mpf(beta)
                    pade = 1 + bv * pade_eval(solved, beta, prec)
                    integral = 1 + bv * (omega / bv)
                assert oscillator_energy(beta, 34, "pade", prec) == pade
                assert oscillator_energy(beta, 34, "integral", prec, spec) == integral
        assert pade_builds == [(17, 17), (17, 17)]

    def test_concurrent_approximant_builds_keep_one(self, monkeypatch):
        # threads racing to build the same approximant all get the one kept
        monkeypatch.setattr(applications, "_approx", {})
        keys = [(20, "pade"), (20, "integral"), (14, "pade")] * 3
        results, errors = {}, []
        barrier = threading.Barrier(len(keys))

        def build(slot, key):
            try:
                barrier.wait(timeout=10)
                results[slot] = applications._oscillator_approx(*key)
            except Exception as exc:  # reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=item) for item in enumerate(keys)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sorted(applications._approx) == [(14, "pade"), (20, "integral"), (20, "pade")]
        for slot, key in enumerate(keys):
            assert results[slot] is applications._approx[key]
        shift = oscillator_coeffs(15).shift_coeffs(14)
        assert applications._approx[(14, "pade")] == pade_construct(shift, 7, 7)

    def test_concurrent_node_tables_match_serial(self, monkeypatch):
        # threads racing to build one approximant's node tables and log tables,
        # at beta on both sides of 1, all get the pieces of a serial run.  They
        # call the tabled rule itself: mpmath's precision is one global, which
        # every workdps (PrecisionContext.tol's too) sets on entry and restores
        # on exit, so whole integrals run concurrently can take one another's
        # precision whatever the tables do
        betas = [Fraction(1, 5), Fraction(3, 7), Fraction(2), Fraction(4)]

        def pieces(order):
            approx = applications._oscillator_approx(16, "integral")
            out = {}
            for b, panels in itertools.product(order, (8, 16)):
                zv = 1 / to_mpf(b)
                lo = mp.mpf(0) if zv >= 1 else mp.mpf(1) / 16
                out[b, panels] = _weighted_gl(approx, zv, lo, mp.mpf(1), 16, panels)
            return out

        def compute(slot):
            try:
                barrier.wait(timeout=10)
                results[slot] = pieces(betas[slot % 4 :] + betas[: slot % 4])
            except Exception as exc:  # reported below
                errors.append(exc)

        with PREC.workdps(10):  # the quadrature's precision, for every thread
            monkeypatch.setattr(applications, "_approx", {})
            serial = pieces(betas)
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(3):  # each round races on a fresh approximant
                    monkeypatch.setattr(applications, "_approx", {})
                    results, errors = {}, []
                    barrier = threading.Barrier(8)
                    threads = [threading.Thread(target=compute, args=(s,)) for s in range(8)]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=120)
                    assert not any(t.is_alive() for t in threads)
                    assert errors == []
                    assert all(results[slot] == serial for slot in range(8))
            finally:
                sys.setswitchinterval(old)
        # [0, 1] and [1/16, 1] at 8 and 16 panels, and their logs for 7/3 and 1/4
        assert len(applications._approx[16, "integral"]._node_tables) == 8

    def test_approximant_with_pole_not_kept(self, pade_builds):
        for _ in range(2):
            with pytest.raises(PoleInDomainError):
                oscillator_energy(Fraction(1, 5), 36, "integral", PREC)
        assert len(pade_builds) == 2 and applications._approx == {}

    def test_integral_energy_ignores_global_precision(self):
        # 1/beta is not dyadic at 137/1000: it must be formed at the working
        # precision, not at whatever mpmath precision the caller has set
        beta, spec = Fraction(137, 1000), QuadratureSpec(panels=64)
        energy = oscillator_energy(beta, 34, "integral", PREC, spec)
        with mp.workdps(80):
            raised = oscillator_energy(beta, 34, "integral", PREC, spec)
        assert mp.nstr(raised, 64) == mp.nstr(energy, 64)
