"""Series containers, precision handling, and Pochhammer term arithmetic."""

import math
import random
from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st
from mpmath import libmp, mp

from facseries.errors import DomainError, IntegrityError, PoleError
from facseries.series import (
    FormalSeries,
    MomentSequence,
    PrecisionContext,
    SeriesKind,
    _rational,
    factorial_term,
    forward_difference_term,
    pochhammer,
    term_decay_estimate,
    to_mpf,
)

PREC = PrecisionContext(64)


class TestPrecisionContext:
    def test_default_and_minimum(self):
        assert PrecisionContext().digits == 64
        assert PrecisionContext(16).digits == 16
        with pytest.raises(DomainError):
            PrecisionContext(15)

    def test_workdps_scopes_mpmath(self):
        before = mp.dps
        with PrecisionContext(30).workdps(5):
            assert mp.dps == 35
        assert mp.dps == before

    def test_tol(self):
        t = PrecisionContext(20).tol(4)
        assert mp.almosteq(t, mp.mpf(10) ** -16)

    def test_to_mpf_fraction_is_exact(self):
        with PREC.workdps():
            x = to_mpf(Fraction(1, 3))
            assert abs(x - mp.mpf(1) / 3) < mp.mpf(10) ** -60

    def test_to_mpf_rounds_a_fraction_once(self):
        # numerators far longer than the working precision: rounding one first and
        # the quotient again would miss the nearest mpf about once in four
        rng = random.Random(600500)
        with PREC.workdps(10):
            for _ in range(200):
                x = Fraction(rng.choice((1, -1)) * rng.getrandbits(600), rng.getrandbits(500) | 1)
                got = to_mpf(x)._mpf_
                assert got == libmp.from_rational(x.numerator, x.denominator, mp.prec, libmp.round_nearest)
                _, _, exp, bc = got  # within half a unit of the last of mp.prec bits
                assert abs(Fraction(*libmp.to_rational(got)) - x) <= Fraction(2) ** (exp + bc - mp.prec) / 2


class TestRational:
    @pytest.mark.parametrize("x, exact", [
        (7, Fraction(7)), (Fraction(-22, 7), Fraction(-22, 7)), (0.1, Fraction(3602879701896397, 2**55)),
        (mp.mpf(0.375), Fraction(3, 8)), (mp.mpf(-5) * 2**-200, Fraction(-5, 2**200)),
        ("0.1", Fraction(1, 10)), ("1e400", Fraction(10**400)), ("-2.5e-3", Fraction(-1, 400)),
        ("22/7", Fraction(22, 7))])
    def test_exact_value(self, x, exact):
        assert _rational(x) == exact and type(_rational(x)) is Fraction

    @pytest.mark.parametrize("x", [mp.inf, -mp.inf, mp.nan, float("inf"), float("nan"),
                                   "inf", "nan", "1/0", "", "one", None, 1j, mp.mpc(1, 1)])
    def test_non_finite_or_not_real(self, x):
        with pytest.raises(DomainError):
            _rational(x)

    @given(st.integers(-(2**200), 2**200), st.integers(-10**4, 10**4))
    def test_finite_mpf_round_trips(self, man, exp):
        # an mpf is a dyadic rational: read exactly, it converts back to itself
        with mp.workprec(max(man.bit_length(), 53)):
            x = mp.make_mpf(libmp.from_man_exp(man, exp))
            assert to_mpf(_rational(x)) == x


class TestFormalSeries:
    def test_construction_coerces(self):
        s = FormalSeries("power", [1, "1/2", Fraction(3, 4)])
        assert s.kind is SeriesKind.POWER
        assert s.coeffs == (Fraction(1), Fraction(1, 2), Fraction(3, 4))
        assert len(s) == 3

    def test_reduced_coeffs(self):
        d = FormalSeries(SeriesKind.FACTORIAL, [1, 2, 6, 12])
        assert d.reduced_coeffs() == (
            Fraction(1),
            Fraction(2),
            Fraction(3),
            Fraction(2),
        )

    def test_reduced_requires_factorial_kind(self):
        with pytest.raises(DomainError):
            FormalSeries(SeriesKind.POWER, [1]).reduced_coeffs()

    def test_json_round_trip(self, tmp_path):
        s = FormalSeries(
            SeriesKind.INVERSE_POWER, [Fraction(-7, 3), 0, Fraction(10**40, 9)]
        )
        path = tmp_path / "series.json"
        s.dump(path)
        back = FormalSeries.load(path)
        assert back == s

    def test_json_schema_fields(self):
        obj = FormalSeries(SeriesKind.FACTORIAL, [Fraction(1, 2)]).to_json_obj()
        assert obj["schema"] == "facseries/1"
        assert obj["coeffs"] == [{"num": "1", "den": "2"}]

    def test_coefficients_past_the_digit_limit(self, tmp_path):
        # 5000 and 5000 decimal digits, past CPython's default limit of 4300 on
        # int <-> str; Decimal formats them by its own route
        c = Fraction(-(3**10479) - 2, 2**16609)
        obj = FormalSeries(SeriesKind.POWER, [c, Fraction(1, 3)]).to_json_obj()
        assert obj["coeffs"] == [
            {"num": str(Decimal(c.numerator)), "den": str(Decimal(c.denominator))},
            {"num": "1", "den": "3"},
        ]
        assert len(obj["coeffs"][0]["num"]) == len(obj["coeffs"][0]["den"]) + 1 == 5001
        s = FormalSeries(SeriesKind.POWER, [c, Fraction(1, 3)])
        s.dump(tmp_path / "big.json")
        assert FormalSeries.load(tmp_path / "big.json") == s

    @pytest.mark.parametrize("num", ["1" * 5000 + "x", "--" + "1" * 5000, "1_" * 2500])
    def test_long_malformed_integer(self, num):
        with pytest.raises(IntegrityError):
            FormalSeries.from_json_obj({"kind": "power", "coeffs": [{"num": num, "den": "1"}]})

    def test_long_integer_in_whitespace(self):
        # 9000 ones, read as int() reads a shorter string
        obj = {"kind": "power", "coeffs": [{"num": " -" + "1" * 9000 + "\n", "den": "1"}]}
        assert FormalSeries.from_json_obj(obj).coeffs == (Fraction(-(10**9000 - 1) // 9),)

    @pytest.mark.parametrize("num, den", [(1.5, 1), ("1", 2.9), (True, 1), ("1", False),
                                          (2.0, 1), (None, 1)])
    def test_non_string_numbers_refused(self, num, den):
        # int() would truncate 1.5 to 1 and read true as 1
        with pytest.raises(IntegrityError, match="malformed series object"):
            FormalSeries.from_json_obj({"kind": "power", "coeffs": [{"num": num, "den": den}]})

    def test_json_integers_accepted(self):
        obj = {"kind": "power", "coeffs": [{"num": -3, "den": 4}, {"num": "5", "den": 10**30}]}
        assert FormalSeries.from_json_obj(obj).coeffs == (Fraction(-3, 4), Fraction(5, 10**30))

    def test_malformed_json(self):
        with pytest.raises(IntegrityError):
            FormalSeries.from_json_obj({"kind": "factorial"})
        with pytest.raises(IntegrityError):
            FormalSeries.from_json_obj(
                {"kind": "factorial", "coeffs": [{"num": "x", "den": "1"}]}
            )


class TestMomentSequence:
    def test_positive_required(self):
        with pytest.raises(DomainError):
            MomentSequence([1, 0, 2])
        with pytest.raises(DomainError):
            MomentSequence([1, -3])

    def test_stieltjes_series_alternates(self):
        ms = MomentSequence([factorial(n) for n in range(6)])
        s = ms.stieltjes_series()
        assert s.kind is SeriesKind.INVERSE_POWER
        assert s.coeffs[:4] == (1, -1, 2, -6)


class TestPochhammer:
    def test_values(self):
        assert pochhammer(3, 0, PREC) == 1
        assert pochhammer(2, 3, PREC) == 24  # 2*3*4
        assert pochhammer(Fraction(1, 2), 2, PREC) == mp.mpf("0.75")

    def test_negative_n(self):
        with pytest.raises(DomainError):
            pochhammer(1, -1, PREC)


class TestFactorialTerm:
    def test_simple_value(self):
        # 6 / (2)_3 = 6 / 24
        assert mp.almosteq(factorial_term(2, 2, 6, PREC), mp.mpf(1) / 4)

    def test_pole_detection(self):
        with pytest.raises(PoleError):
            factorial_term(0, 0, 1, PREC)
        with pytest.raises(PoleError):
            factorial_term(-2, 3, 1, PREC)
        # pole at -3 is outside the chain for n = 1: fine
        factorial_term(-3.5, 1, 1, PREC)

    def test_negative_n(self):
        with pytest.raises(DomainError):
            factorial_term(2, -1, 1, PREC)

    def test_beta_integral_identity(self):
        # n!/(z)_{n+1} = int_0^1 t^(z-1) (1-t)^n dt for Re z > 0
        for z in (1, mp.mpf("2.5"), 5):
            for n in (0, 3, 10):
                term = factorial_term(z, n, factorial(n), PREC)
                with PREC.workdps(5):
                    integral = mp.quad(
                        lambda t: t ** (mp.mpf(z) - 1) * (1 - t) ** n, [0, 1]
                    )
                    assert abs(term - integral) < mp.mpf(10) ** -55


class TestForwardDifference:
    def test_matches_direct_differences(self):
        # closed form cross-checked internally; verify one cell by hand too
        val = forward_difference_term(3, 1, 1, PREC)
        with PREC.workdps():
            f = lambda z: 1 / (z * (z + 1))  # 1!/(z)_2
            assert mp.almosteq(val, f(mp.mpf(4)) - f(mp.mpf(3)))

    def test_sign_and_magnitude(self):
        with PREC.workdps():
            v = forward_difference_term(2, 2, 3, PREC)
            expect = -factorial(5) / pochhammer(2, 6, PREC)
            assert mp.almosteq(v, expect)

    @pytest.mark.parametrize("z, n, k", [(Fraction(7, 3), 0, 20), (Fraction(1, 3), 2, 30),
                                         (Fraction(7, 3), 5, 40)])
    def test_high_order_differences(self, z, n, k):
        # the k-th difference of n!/(z)_{n+1}, iterated exactly, against the closed form
        vals = [factorial(n) / math.prod(z + j + i for i in range(n + 1)) for j in range(k + 1)]
        for _ in range(k):
            vals = [b - a for a, b in zip(vals, vals[1:])]
        with PREC.workdps(10):
            assert mp.almosteq(forward_difference_term(z, n, k, PREC), to_mpf(vals[0]), 10**-62, 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            forward_difference_term(2, -1, 0, PREC)
        with pytest.raises(PoleError):
            forward_difference_term(-1, 1, 1, PREC)


class TestTermDecay:
    def test_trivial_values(self):
        assert mp.almosteq(term_decay_estimate(2, 10, PREC), mp.mpf("0.01"))
        assert mp.almosteq(term_decay_estimate(5, 100, PREC), mp.mpf(10) ** -10)

    def test_predicts_actual_decay(self):
        # n!/(z)_{n+1} ~ Gamma(z) n^-z: ratio within a factor 2 for n >= 20
        for z in (1, 2, mp.mpf("3.5"), 5):
            with PREC.workdps():
                gz = mp.gamma(z)
                for n in (20, 30, 40):
                    actual = factorial_term(z, n, factorial(n), PREC)
                    predicted = gz * term_decay_estimate(z, n, PREC)
                    assert mp.mpf(1) / 2 < actual / predicted < 2

    def test_domain(self):
        with pytest.raises(DomainError):
            term_decay_estimate(2, 0, PREC)
