"""Series containers, precision handling, and Pochhammer term arithmetic."""

from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp

from facseries.errors import DomainError, IntegrityError, PoleError
from facseries.series import (
    FormalSeries,
    MomentSequence,
    PrecisionContext,
    SeriesKind,
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
