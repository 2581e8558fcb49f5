"""Case studies: the exponential integral E1 and the quartic oscillator."""

import copy
import hashlib
import itertools
import sys
import threading
import time
import warnings
from fractions import Fraction
from math import factorial

import pytest
import sympy
from mpmath import libmp, mp

from facseries import applications
from facseries.acceleration import TransformInput, levin, weniger_s
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
from facseries.cli import _fmt
from facseries.errors import DomainError, IntegrityError, PoleInDomainError
from facseries.evaluate import (
    QuadratureConvergenceWarning,
    QuadratureSpec,
    _euler_integral,
    _octave_setup,
    _octave_sum,
    euler_integral_eval,
)
from facseries.pade import PadeApprox, _pade_value, pade_construct, pade_eval
from facseries.series import (
    FormalSeries,
    PrecisionContext,
    SeriesKind,
    _context,
    _round,
    factorial_term,
    pochhammer,
    to_mpf,
)
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
        e1_factorial_coeffs(20)  # and with the table grown past order 0
        with pytest.raises(DomainError):
            e1_factorial_coeffs(-1)
        with pytest.raises(DomainError):
            E1Series.build(-1)


def direct_e1_factorial_coeffs(order):
    return inverse_power_to_factorial(e1_inverse_power_coeffs(order), order).coeffs


class TestE1Table:
    """e1_factorial_coeffs and E1Series.build read one table, rebuilt only past its order."""

    @pytest.mark.parametrize("orders", [[30, 5, 60, 12], [0, 1, 2, 60], [60, 59, 0, 7]])
    def test_build_is_a_prefix_whatever_the_order_of_calls(self, monkeypatch, orders):
        monkeypatch.setattr(applications, "_e1", ((), ()))
        built = {n: E1Series.build(n) for n in orders}
        longest = max(orders)
        for n, series in built.items():
            assert series.factorial.coeffs == direct_e1_factorial_coeffs(longest)[: n + 1]
            assert series.inverse_power == e1_inverse_power_coeffs(n)
            assert tuple(e1_factorial_coeffs(n)) == series.factorial.coeffs

    def test_built_once_up_to_the_cached_order(self, monkeypatch):
        monkeypatch.setattr(applications, "_e1", ((), ()))
        calls = []

        def counted(c, order):
            calls.append(order)
            return inverse_power_to_factorial(c, order)

        monkeypatch.setattr(applications, "inverse_power_to_factorial", counted)
        E1Series.build(60)
        for _ in range(3):
            for n in range(61):
                E1Series.build(n)
                e1_factorial_coeffs(n)
        assert calls == [60]
        E1Series.build(61)
        assert calls == [60, 61]

    def test_concurrent_growth_from_a_fresh_table(self, monkeypatch):
        # 8 threads, each asking its own order, give what a serial run gives; the smaller
        # the order, the later its build ends, so a rebuild that did not re-check the
        # table under the lock would replace a larger table by a smaller one
        monkeypatch.setattr(applications, "_e1", ((), ()))
        monkeypatch.setattr(applications, "inverse_power_to_factorial",
                            lambda c, order: time.sleep((61 - order) * 1e-4)
                            or inverse_power_to_factorial(c, order))
        orders = [12, 45, 5, 60, 21, 33, 1, 26]
        results, errors = {}, []
        barrier = threading.Barrier(len(orders))

        def grow(slot, order):
            try:
                barrier.wait(timeout=10)
                results[slot] = (e1_factorial_coeffs(order), E1Series.build(order))
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
        serial = direct_e1_factorial_coeffs(60)
        for slot, order in enumerate(orders):
            coeffs, series = results[slot]
            assert tuple(coeffs) == series.factorial.coeffs == serial[: order + 1]
            assert series.inverse_power == e1_inverse_power_coeffs(order)
        assert applications._e1 == (e1_inverse_power_coeffs(60).coeffs, serial)


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

    def test_kept_per_h(self, monkeypatch):
        # one object per h, whichever series of that h asks, equal to the solved one
        monkeypatch.setattr(applications, "_e1_pade", {})
        for h in (1, 2, 9, 30):
            first = E1Series.build(2 * h - 1).pade()
            assert E1Series.build(2 * h).pade() is first is E1Series.build(2 * h - 1).pade()
            assert first == pade_construct(e1_inverse_power_coeffs(2 * h - 1).coeffs, h - 1, h)
        assert sorted(applications._e1_pade) == [1, 2, 9, 30]

    @pytest.mark.parametrize("h", [1, 2, 5, 17, 30])
    def test_denominator_is_scaled_laguerre(self, h):
        # h! w^h L_h(-1/w), expanded in w by sympy: an oracle apart from both routes
        w = sympy.symbols("w")
        poly = sympy.Poly(sympy.expand(sympy.factorial(h) * w**h * sympy.laguerre(h, -1 / w)), w)
        want = tuple(Fraction(int(c)) for c in reversed(poly.all_coeffs()))
        assert E1Series.build(2 * h - 1).pade().den == want


def e1_path(z, digits, terms=30):
    """What e1 --compare computes at z: the report, Levin and Weniger on E1's terms, and
    the exact value of E1's Pade approximant at w = 1/z."""
    prec = PrecisionContext(digits)
    series = E1Series.build(terms - 1)
    report = series.summation_report(z, terms, prec)
    inp = TransformInput.from_terms(
        [Fraction((-1) ** m * factorial(m)) / z ** (m + 1) for m in range(terms)])
    k = len(inp.s) - 1
    return (report.partial_sums, report.reference, report.relative_errors,
            levin(inp, k, 0, prec), weniger_s(inp, k, 0, prec), _pade_value(series.pade(), 1 / z))


def race(compute, before_round=lambda: None, rounds=3, threads=8):
    """[{slot: compute(slot)} per round] of `threads` threads started together under a
    1 us switch interval (restored after), before_round() ahead of each round; no thread
    may raise, hang or warn."""
    old, rounds_out = sys.getswitchinterval(), []
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            before_round()
            results, errors, barrier = {}, [], threading.Barrier(threads)

            def work(slot):
                try:
                    barrier.wait(timeout=10)
                    results[slot] = compute(slot)
                except Exception as exc:  # reported below
                    errors.append(exc)

            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                pool = [threading.Thread(target=work, args=(slot,)) for slot in range(threads)]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join(timeout=300)
            assert not any(t.is_alive() for t in pool)
            assert errors == [] and [str(w.message) for w in caught] == []
            rounds_out.append(results)
    finally:
        sys.setswitchinterval(old)
    return rounds_out


class TestE1PathThreads:
    ZS = (Fraction(1, 2), Fraction(3), Fraction(163, 8))

    def test_threads_at_two_precisions_match_serial(self, monkeypatch):
        # 8 threads, half at 30 digits and half at 64, under a 1 us switch interval:
        # the path reads no global precision, so each result is the serial one
        monkeypatch.setattr(applications, "_e1_pade", {})
        serial = {(d, z): e1_path(z, d) for d in (30, 64) for z in self.ZS}

        def compute(slot):
            return {(d, z): e1_path(z, d) for d in [(30, 64)[slot % 2]]
                    for z in self.ZS[slot % 3 :] + self.ZS[: slot % 3]}

        # each round races on a fresh Pade table
        for results in race(compute, lambda: monkeypatch.setattr(applications, "_e1_pade", {})):
            assert sum(map(len, results.values())) == 24
            assert all(got == {key: serial[key] for key in got} for got in results.values())


def whole_path(beta, digits, orders=(16,)):
    """(type, raw value) of every route that once ran under workdps, at beta: the three
    energies at each order, pade_eval, euler_integral_eval, factorial_term and pochhammer."""
    prec, shift = PrecisionContext(digits), oscillator_coeffs(17).shift_coeffs(16)
    conjugate = [l / factorial(m) for m, l in enumerate(
        power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), 16))]
    values = [oscillator_energy(beta, order, m, prec) for order in orders for m in OSCILLATOR_METHODS]
    values += [pade_eval(pade_construct(shift, 8, 8), beta, prec),
               euler_integral_eval(conjugate, 1 / beta, 8, 8, QuadratureSpec(), prec),
               factorial_term(1 / beta, 16, shift[16], prec), pochhammer(beta, 16, prec)]
    return [(type(v), v._mpf_) for v in values]


class TestWholePathThreads:
    # the serial pass runs first: mpmath's own constant_memo (ln2_fixed's) sets its value
    # and its precision in two steps, so it must reach its largest precision before a race
    BETAS = (Fraction(1, 5), Fraction(3, 7), Fraction(2), Fraction(4))

    def rotated(self, slot):
        return self.BETAS[slot % 4 :] + self.BETAS[: slot % 4]

    def test_threads_at_two_precisions_match_serial(self):
        serial = {(d, b): whole_path(b, d) for d in (30, 64) for b in self.BETAS}

        def compute(slot):  # half the threads at 30 digits, half at 64
            return {(d, b): whole_path(b, d) for d in [(30, 64)[slot % 2]] for b in self.rotated(slot)}

        for results in race(compute):
            assert len(results) == 8
            assert all(got == {key: serial[key] for key in got} for got in results.values())

    def test_cold_build_in_threads_leaves_later_serial_results_right(self, monkeypatch):
        # threads build the approximants and their node tables; every energy they get,
        # and every energy a serial call gets afterwards from those tables, is the one
        # computed on a separate fresh table
        orders = (16, 20)
        monkeypatch.setattr(applications, "_approx", {})
        expected = {(d, b): whole_path(b, d, orders) for d in (30, 64) for b in self.BETAS}

        def compute(slot):
            return {(d, b): whole_path(b, d, orders) for d in [(30, 64)[slot % 2]] for b in self.rotated(slot)}

        for results in race(compute, lambda: monkeypatch.setattr(applications, "_approx", {})):
            assert all(got == {key: expected[key] for key in got} for got in results.values())
            assert {key: whole_path(key[1], key[0], orders) for key in expected} == expected


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
    """b_0..b_order in Fractions by the x-power-basis recursion, a route apart from
    the module's: with psi = exp(-x^2/2) sum_j beta^j P_j(x) and even polynomials
    P_j(x) = sum_m A[j][m] x^(2m), A[j][0] = 0 for j >= 1, the Schrodinger equation
    gives, per power x^(2m),

        -(2m+2)(2m+1) A[j][m+1] + 4m A[j][m] + A[j-1][m-2] = sum_{i=1..j} b_i A[j-i][m],

    solved top-down from m = 2j; the m = 0 equation yields b_j = -2 A[j][1]."""
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


def fresh_oscillator_state(monkeypatch):
    """Give the module the state it starts from: row 0, b_0 and b_1."""
    for name, value in [("_rows", [[1]]), ("_weighted", [[1]]), ("_T", [0, 0]),
                        ("_w", [1, 6]), ("_b", [Fraction(1), Fraction(3, 4)])]:
        monkeypatch.setattr(applications, name, value)


def oscillator_state():
    """A copy of the growing state, b last."""
    names = ("_rows", "_weighted", "_T", "_w", "_b")
    return tuple(copy.deepcopy(getattr(applications, name)) for name in names)


# b_100, from the Fraction recursion; its denominator is 2^296
B100_NUMERATOR = int(
    "-41878320957485246059475829426903698800162646287922978002634877338214172599300622904"
    "844270801382538421612501739089849418436083956400397515701600055913337614548315628564"
    "314810175724859550529887294344947875490759292693065773385537402569515077878366061884"
    "7102306340395"
)
B100_DENOMINATOR = 127314748520905380391777855525586135065716774604121015664758778084648831235208544136462336
B0_TO_B200_SHA256 = "6cb105e0799bc5028ec30067518ef1081010e38158d55561bfd33c47f2efe5b3"


class TestOscillatorIntegerRecursion:
    def test_matches_fraction_recursion(self):
        assert oscillator_coeffs(60).coeffs == fraction_recursion_reference(60)

    def test_b100_pinned(self):
        b100 = oscillator_coeffs(100).coeffs[100]
        assert (b100.numerator, b100.denominator) == (B100_NUMERATOR, B100_DENOMINATOR)
        assert B100_DENOMINATOR == 2**296

    def test_b0_to_b200_pinned(self):
        # SHA-256 of repr([(numerator, denominator) of b_0..b_200]), recorded
        # from the Fraction-row recursion this integer one replaced
        bs = oscillator_coeffs(200).coeffs
        pairs = repr([(b.numerator, b.denominator) for b in bs]).encode()
        assert hashlib.sha256(pairs).hexdigest() == B0_TO_B200_SHA256
        den = bs[200].denominator
        assert den & (den - 1) == 0  # a power of two

    def test_remainder_check_is_live(self, monkeypatch):
        # a corrupted stored row entry must stop the growth, not be truncated:
        # C[2][4] + 1 first enters row 3 at s = 2, through the band term
        # (k+3)(k+1) P[s+2] = 35 P[4], and moves 8 C[3][2] by -70
        fresh_oscillator_state(monkeypatch)
        assert oscillator_coeffs(5).coeffs == fraction_recursion_reference(5)
        applications._rows[2][4] += 1
        before = oscillator_state()
        with pytest.raises(IntegrityError, match=r"C\[3\]\[2\] is not an integer"):
            oscillator_coeffs(7)
        assert oscillator_state() == before

    def test_energy_remainder_check_is_live(self, monkeypatch):
        # C[2][2] + 1 leaves every division of row 3 exact, and w_6 catches it
        fresh_oscillator_state(monkeypatch)
        oscillator_coeffs(5)
        applications._rows[2][2] += 1
        before = oscillator_state()
        with pytest.raises(IntegrityError, match=r"w_6 is not an integer"):
            oscillator_coeffs(7)
        assert oscillator_state() == before

    def test_concurrent_growth_from_fresh_state(self, monkeypatch):
        # a fresh state grown by several threads at once must equal the serial
        # build: growth is serialised by the lock, reads take none
        fresh_oscillator_state(monkeypatch)
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
        grown = oscillator_state()
        fresh_oscillator_state(monkeypatch)
        oscillator_coeffs(30)
        assert grown == oscillator_state()
        assert len(applications._rows) == 16 and len(applications._b) == 32
        serial = fraction_recursion_reference(30)
        for slot, order in enumerate(orders):
            assert results[slot] == serial[: order + 1]

    def test_stepwise_growth_equals_one_shot(self, monkeypatch):
        # growth continues the rows and the T_t; it recomputes nothing
        fresh_oscillator_state(monkeypatch)
        oscillator_coeffs(200)
        one_shot = oscillator_state()
        fresh_oscillator_state(monkeypatch)
        for order in [*range(1, 41), 5, 120, 200]:
            assert oscillator_coeffs(order).coeffs == tuple(one_shot[-1][: order + 1])
        assert oscillator_state() == one_shot

    def test_rule_energies_equal_row_energies(self):
        # w_j from the 2n+1 rule against w_j = 12 C[j-1][1] + 6 C[j-1][2] from
        # the rows, for every row the build to b_200 holds
        oscillator_coeffs(200)
        rows, w, b = applications._rows, applications._w, applications._b
        assert len(rows) == 101 and len(w) == len(b) == 202
        assert w[:2] == [1, 6]
        for j in range(2, len(rows) + 1):
            assert w[j] == 12 * rows[j - 1][1] + 6 * rows[j - 1][2]
        assert all(bj == Fraction(wj, 8**j) for j, (wj, bj) in enumerate(zip(w, b)))


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


# SHA-256 of repr([(order, num pairs, den pairs), ...]) per route, each pair a
# coefficient's (numerator, denominator), over the orders 20..54 whose
# integral approximant has no pole in (0, 1); recorded from the solver that
# cleared the whole Toeplitz system over one common denominator
APPROX_20_TO_54_SHA256 = {
    "pade": "684601a5e6f355c568bff85f1e44ffc2271f6b69120291cada5543e3f1245e8c",
    "integral": "72543c5f6573e579e8ec8e8ced14da40233d24091acdebb130c00e423d56fcdb",
}


def fraction_pairs(values):
    return [(v.numerator, v.denominator) for v in values]


def approximant_digests(orders):
    """(orders whose integral approximant has a pole in (0, 1), {route: SHA-256})."""
    poles, rows = [], {"pade": [], "integral": []}
    for order in orders:
        try:
            applications._oscillator_approx(order, "integral")
        except PoleInDomainError:
            poles.append(order)
            continue
        for route, kept in rows.items():
            p = applications._oscillator_approx(order, route)
            kept.append((order, fraction_pairs(p.num), fraction_pairs(p.den)))
    return poles, {route: hashlib.sha256(repr(kept).encode()).hexdigest() for route, kept in rows.items()}


class TestOscillatorApproximantsPinned:
    def test_orders_20_to_54_pinned(self):
        poles, digests = approximant_digests(range(20, 55))
        assert poles == [36, 40, 44]
        assert digests == APPROX_20_TO_54_SHA256


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


def closed_form_integral(approx, zs, dps=110):
    """int_0^1 t^(z-1) phi(1-t) dt for each z in zs, phi = num/den the approximant,
    in closed form at dps digits: with u_k den's roots (simple, none in [0, 1]) and
    r_k = num(u_k)/den'(u_k) their residues, c_k = 1 - u_k, the integral is
    q/z + sum_k r_k 2F1(1, z; z+1; 1/c_k)/(c_k z), q = num_L/den_M when L = M and
    0 when L < M."""
    with mp.workdps(dps):
        num, den = ([mp.mpf(c.numerator) / c.denominator for c in cs]
                    for cs in (approx.num, approx.den))
        q = num[-1] / den[-1] if approx.L == approx.M else 0
        dden = [k * c for k, c in enumerate(den)][1:]
        poles = [(1 - u, mp.polyval(num[::-1], u) / mp.polyval(dden[::-1], u))
                 for u in mp.polyroots(den[::-1], maxsteps=400, extraprec=2 * dps)]
        out = {}
        for zq in zs:
            z = mp.mpf(zq.numerator) / zq.denominator
            total = q / z + sum(r * mp.hyp2f1(1, z, z + 1, 1 / c) / (c * z) for c, r in poles)
            out[zq] = mp.re(total)
        return out


def closed_form_energy(approx, betas, dps=110):
    """1 + the closed-form integral at z = 1/beta for each beta."""
    integrals = closed_form_integral(approx, [1 / beta for beta in betas], dps)
    with mp.workdps(dps):
        return {beta: 1 + integrals[1 / beta] for beta in betas}


class TestIntegralOracle:
    # z = 1/beta from 20 down to 1/4, generic values next to z = 1 included; at
    # order 34 also z from 150 to 2048, where the panels on [1, 2] double
    BETAS_34 = [Fraction(1, 20), Fraction(1, 5), Fraction(7, 10), Fraction(9, 10),
                Fraction(1001, 1000), Fraction(10, 7), Fraction(2), Fraction(217, 100),
                Fraction(4)]

    @pytest.mark.parametrize("order, betas", [
        (34, BETAS_34 + [Fraction(1, 150), Fraction(1, 1000), Fraction(1, 2048)]),
        (53, [Fraction(1, 5), Fraction(4)])])
    def test_printed_digits_are_the_closed_form(self, order, betas):
        oracle = closed_form_energy(applications._oscillator_approx(order, "integral"), betas)
        for beta in betas:
            energy = oscillator_energy(beta, order, "integral", PREC)
            with mp.workdps(110):
                assert mp.nstr(energy, 64) == mp.nstr(oracle[beta], 64), beta

    # the rule alone, off the oscillator: z' from 10^-30 up, other octave counts K,
    # and a den root next to u = 1, which the head series has to carry
    @pytest.mark.parametrize("L, K, zs", [
        (10, 11, [Fraction(1, 10**30), Fraction(1, 3), Fraction(7, 3), Fraction(5)]),
        (20, 13, [Fraction(1, 10**30), Fraction(1, 3), Fraction(7, 3), Fraction(5)]),
        # num and den cancel on [0, 1]: the table's values lose up to 72 bits
        (29, 14, [Fraction(1, 2), Fraction(7, 3)])], ids=["10-11", "20-13", "29-14"])
    def test_e1_approximant_is_the_closed_form(self, L, K, zs):
        d = e1_factorial_coeffs(2 * L + 1)
        approx = pade_construct([dn / factorial(n) for n, dn in enumerate(d)], L, L + 1)
        assert _octave_setup(approx)[:2] == (0, K)
        self.assert_every_digit(approx, zs)

    def test_den_root_next_to_one(self):
        # phi = (1 + u/3)/((1 - u/r)(1 + u/2)), r = 1 + 10^-3: den(1-t) vanishes at t = -10^-3
        r = 1 + Fraction(1, 1000)
        approx = PadeApprox(num=(Fraction(1), Fraction(1, 3)),
                            den=(Fraction(1), Fraction(1, 2) - 1 / r, -1 / (2 * r)))
        assert _octave_setup(approx)[:2] == (0, 14)
        self.assert_every_digit(approx, [Fraction(1, 10**6), Fraction(1, 3), Fraction(5, 2), Fraction(20)])

    def test_panel_check_before_the_one_pass(self):
        # P panels of n points on [1, 2] err by about rho_P^(-2n), rho_P the Bernstein
        # ellipse through s = 0: (2P+1) + sqrt((2P+1)^2 - 1).  At 64 digits 8 x 2 and,
        # for z' <= 16, 16 x 4 (P = 2: 1.4e-32) warn; past z' = 16 the layer at t = 1
        # doubles 16 x 4 to P = 4, and 16 x 8 (P = 4: 1e-40) meets the oracle to 10^-32
        approx = applications._oscillator_approx(34, "integral")
        for z in (Fraction(1, 4), Fraction(7, 3), Fraction(31, 2)):
            for spec in (QuadratureSpec(8, 2), QuadratureSpec(16, 4)):
                with pytest.warns(QuadratureConvergenceWarning, match="panels of"):
                    _euler_integral(approx, z, spec, PREC)
        _euler_integral(approx, Fraction(17), QuadratureSpec(16, 4), PREC)
        # an integer z' has no branch point: s^15 is a polynomial 16 points integrate
        value, oracle = _euler_integral(approx, 16, QuadratureSpec(16, 4), PREC), closed_form_integral(approx, [16])
        with mp.workdps(110):
            assert abs(value - oracle[16]) < abs(oracle[16]) * mp.mpf(10) ** -32
        zs = [Fraction(1, 4), Fraction(7, 3), Fraction(20)]
        oracle = closed_form_integral(approx, zs)
        for z in zs:
            value = _euler_integral(approx, z, QuadratureSpec(16, 8), PREC)
            with mp.workdps(110):
                assert abs(value - oracle[z]) < abs(oracle[z]) * mp.mpf(10) ** -32, z

    @staticmethod
    def assert_every_digit(approx, zs):
        oracle = closed_form_integral(approx, zs)
        for z in zs:
            value = _euler_integral(approx, z, QuadratureSpec(), PREC)
            with mp.workdps(110):
                assert abs(value - oracle[z]) < abs(oracle[z]) * mp.mpf(10) ** -(PREC.digits + 1), z


def rounded_once(q: Fraction, digits: int) -> str:
    """The exact q rounded once to `digits` significant digits, as mp.nstr prints them
    (one binary rounding 60 digits further down first, which a tie would need to see)."""
    with mp.workdps(digits + 60):
        return mp.nstr(mp.mpf(q.numerator) / q.denominator, digits)


class TestExactThenRoundedOnce:
    # the pade and factorial energies are exact rationals; over this grid of orders,
    # couplings and precisions the printed string must be that rational rounded once
    BETAS = [Fraction(1, 20), Fraction(1, 10), Fraction(1, 5), Fraction(3, 7), Fraction(1, 2),
             Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3),
             Fraction(7, 2), Fraction(4)]

    @staticmethod
    def exact_energies(order, method):
        """beta -> the route's exact energy at this order."""
        shift = oscillator_coeffs(order + 1).shift_coeffs(order)
        if method == "pade":
            p = pade_construct(shift, order // 2, order - order // 2)

            def energy(beta):
                num, den = (sum(c * beta**k for k, c in enumerate(cs)) for cs in (p.num, p.den))
                return 1 + beta * num / den
            return energy
        lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), order)

        def energy(beta):  # 1 + beta sum_m (lambda_m/m!) prod_{k<=m} beta/(beta + 1/k)
            total, product = Fraction(0), Fraction(1)
            for m, l in enumerate(lam):
                product *= beta / (beta + Fraction(1, m)) if m else 1
                total += l / factorial(m) * product
            return 1 + beta * total
        return energy

    @pytest.mark.parametrize("method", ["pade", "factorial"])
    @pytest.mark.parametrize("order", [20, 27, 34, 41, 53])
    def test_printed_energy_is_the_exact_one_rounded_once(self, order, method):
        exact, wrong = self.exact_energies(order, method), []
        for beta, digits in itertools.product(self.BETAS, (30, 64)):
            prec = PrecisionContext(digits)
            printed = _fmt(oscillator_energy(beta, order, method, prec), prec)
            if printed != rounded_once(exact(beta), digits):
                wrong.append((beta, digits))
        assert wrong == []


class TestOscillatorEnergy:
    def test_domain_checks(self):
        with pytest.raises(DomainError):
            oscillator_energy(Fraction(1, 5), 6, "borel", PREC)
        with pytest.raises(DomainError):
            oscillator_energy(Fraction(1, 5), 0, "pade", PREC)
        with pytest.raises(DomainError):
            oscillator_energy(Fraction(-1, 5), 6, "pade", PREC)

    @pytest.mark.parametrize("method", OSCILLATOR_METHODS)
    @pytest.mark.parametrize("beta", [mp.inf, mp.nan, float("inf"), "inf"])
    def test_non_finite_beta(self, method, beta):
        with pytest.raises(DomainError):
            oscillator_energy(beta, 20, method, PREC)

    @pytest.mark.parametrize("method", OSCILLATOR_METHODS)
    def test_string_beta_is_an_exact_decimal(self, method):
        assert oscillator_energy("0.2", 20, method, PREC) == oscillator_energy(Fraction(1, 5), 20, method, PREC)
        assert oscillator_energy("0.1", 20, method, PREC) != oscillator_energy(0.1, 20, method, PREC)

    def test_all_methods_small_order(self):
        # coarse run: every route lands in the right neighbourhood already
        # at order 6 for the weak coupling beta = 1/5
        ref = mp.mpf("1.118292654367039154")
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

    # 64-digit integral energies at order 34: the closed-form oracle's rounding
    # (TestIntegralOracle), which the octave rule reproduces
    INTEGRAL_ORDER_34 = {
        Fraction(1, 20): "1.034729697255483804270223252253604604069184256186584563437983952",
        Fraction(1, 5): "1.118292654368740442901792846152361900604898341574310255428006501",
        Fraction(2): "1.609568258429662756572025552782775855533725900122504879248629046",
        Fraction(4): "1.927420778416946147315092190035242178669926943082243733869033196",
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
        for beta in (Fraction(i * i, 64) for i in range(2, 18)):  # 1/16 .. 289/64
            # each energy as oscillator_energy forms it with no approximant kept:
            # 1 + beta num(beta)/den(beta) exact, and 1 + omega at the exact 1/beta,
            # each rounded once to 10 guard digits
            omega = euler_integral_eval(reduced, 1 / beta, 17, 17, spec, prec)
            num, den = (sum(c * beta**k for k, c in enumerate(cs)) for cs in (solved.num, solved.den))
            with prec.workdps(10):
                pade = to_mpf(1 + beta * num / den)
                integral = 1 + omega
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
        # threads racing to build one approximant's set-up and octave tables, at
        # beta on both sides of 1, all get the sums of a serial run
        betas = [Fraction(1, 5), Fraction(3, 7), Fraction(2), Fraction(4)]
        bits = libmp.dps_to_prec(PREC.digits + 10)  # the quadrature's bit count
        ctx = _context(bits)

        def pieces(order):
            approx = applications._oscillator_approx(16, "integral")
            setup, out = _octave_setup(approx), {}
            for b, panels in itertools.product(order, (2, 4)):
                zv = ctx.make_mpf(_round(1 / b, bits))
                out[b, panels] = _octave_sum(approx, setup, zv, ctx.mpf(2) ** -zv, 16, panels, bits)
            return out

        def compute(slot):
            return pieces(betas[slot % 4 :] + betas[: slot % 4])

        monkeypatch.setattr(applications, "_approx", {})
        serial = pieces(betas)
        # each round races on a fresh approximant
        for results in race(compute, lambda: monkeypatch.setattr(applications, "_approx", {})):
            assert all(results[slot] == serial for slot in range(8))
        # the set-up and the octave tables at 2 and 4 panels, one precision
        assert len(applications._approx[16, "integral"]._node_tables) == 3

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
