"""Exact Stirling-weighted coefficient transforms and the triangular framework."""

import random
from fractions import Fraction
from math import factorial

import pytest

from facseries.errors import DomainError, IntegrityError
from facseries.series import FormalSeries, MomentSequence, SeriesKind
from facseries.stirling import stirling2
from facseries.transforms import (
    TransformMatrix,
    coefficient_transform,
    factorial_to_inverse_power,
    inverse_power_to_factorial,
    moments_to_factorial,
    power_to_factorial_coeffs,
    triangular_forward,
    triangular_inverse_apply,
)


def random_rationals(rng, n, bound=1000, den=99):
    return [
        Fraction(rng.randint(-bound, bound), rng.randint(1, den)) for _ in range(n)
    ]


class TestStirlingPairTransforms:
    def test_unit_series_fixed_point(self):
        c = FormalSeries(SeriesKind.INVERSE_POWER, [1, 0, 0, 0])
        d = inverse_power_to_factorial(c, 3)
        assert d.kind is SeriesKind.FACTORIAL
        assert d.coeffs == (1, 0, 0, 0)
        back = factorial_to_inverse_power(d, 3)
        assert back.coeffs == c.coeffs

    def test_kind_checks(self):
        p = FormalSeries(SeriesKind.POWER, [1, 1])
        with pytest.raises(DomainError):
            inverse_power_to_factorial(p, 1)
        with pytest.raises(DomainError):
            factorial_to_inverse_power(p, 1)
        with pytest.raises(DomainError):
            power_to_factorial_coeffs(
                FormalSeries(SeriesKind.FACTORIAL, [1, 1]), 1
            )

    def test_order_exceeds_length(self):
        c = FormalSeries(SeriesKind.INVERSE_POWER, [1, 2])
        with pytest.raises(DomainError):
            inverse_power_to_factorial(c, 5)

    def test_small_hand_values(self):
        # c = (0, 1, 0, ...): d_m = (-1)^m sum (-1)^mu s1(m,mu) c_mu = s1(m,1)*(-1)^(m+1)
        c = FormalSeries(SeriesKind.INVERSE_POWER, [0, 1, 0, 0])
        d = inverse_power_to_factorial(c, 3)
        # s1(m,1) = (-1)^(m-1) (m-1)!: d_m = (m-1)! for m >= 1
        assert d.coeffs == (0, 1, 1, 2)

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(20):
            c = FormalSeries(SeriesKind.INVERSE_POWER, random_rationals(rng, 16))
            d = inverse_power_to_factorial(c, 15)
            assert factorial_to_inverse_power(d, 15).coeffs == c.coeffs

    def test_unit_factorial_gives_inverse_pochhammer_expansion(self):
        # d = e_k: the inverse-power coefficients of 1/(z)_{k+1} are
        # c_m = (-1)^(m+k) s2(m, k); check both the sign pattern and that the
        # truncated sums actually converge to 1/(z)_{k+1} at z = 6, k = 1
        k = 1
        d = FormalSeries(SeriesKind.FACTORIAL, [0] * k + [1] + [0] * 30)
        c = factorial_to_inverse_power(d, 30)
        for m in range(1, 31):
            assert c.coeffs[m] == (-1) ** (m + k) * stirling2(m, k)
        z = Fraction(6)
        partial = sum(cm / z ** (m + 1) for m, cm in enumerate(c.coeffs))
        assert abs(partial - Fraction(1, 42)) < Fraction(1, 10**20)


class TestPowerToFactorial:
    def test_unit_vector(self):
        g = FormalSeries(SeriesKind.POWER, [1, 0, 0])
        assert power_to_factorial_coeffs(g, 2) == (1, 0, 0)

    def test_linear_coefficient(self):
        # gamma = (0, 1, 0, ...): lambda_m = (-1)^(m+1) s1(m, 1) = (m-1)!
        g = FormalSeries(SeriesKind.POWER, [0, 1, 0, 0, 0])
        lam = power_to_factorial_coeffs(g, 4)
        assert lam == (0, 1, 1, 2, 6)

    def test_linearity(self):
        rng = random.Random(13)
        a = random_rationals(rng, 10)
        b = random_rationals(rng, 10)
        la = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, a), 9)
        lb = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, b), 9)
        summed = power_to_factorial_coeffs(
            FormalSeries(SeriesKind.POWER, [x + y for x, y in zip(a, b)]), 9
        )
        assert summed == tuple(x + y for x, y in zip(la, lb))


class TestMomentsToFactorial:
    def test_matches_stieltjes_route(self):
        ms = MomentSequence([factorial(n) for n in range(12)])
        direct = moments_to_factorial(ms, 11)
        via_series = inverse_power_to_factorial(ms.stieltjes_series(), 11)
        assert direct == via_series

    def test_geometric_moments(self):
        # mu_n = 1: Stieltjes function 1/(z+1), whose factorial series
        # terminates: 1/(z+1) = 1/(z)_1 - 1/(z)_2 ... no; check first terms
        ms = MomentSequence([1] * 6)
        d = moments_to_factorial(ms, 5)
        assert d.coeffs[0] == 1
        # d_m = (-1)^m sum_v s1(m, v) = 0 for m >= 2 (generating polynomial at 1)
        assert all(dm == 0 for dm in d.coeffs[2:])


class TestTransformMatrix:
    def test_row_shape_enforced(self):
        with pytest.raises(IntegrityError):
            TransformMatrix([[1], [2, 3, 4]])

    def test_identity(self):
        m = TransformMatrix.identity(4)
        m.verify_orthogonality()
        assert m.entry(3, 3) == 1
        assert m.entry(3, 1) == 0
        assert m.entry(2, 4) == 0  # above the diagonal

    def test_stirling_pair_orthogonal(self):
        m = TransformMatrix.stirling_pair(12)
        m.verify_orthogonality()

    def test_computed_companion_matches_stirling_inverse(self):
        pair = TransformMatrix.stirling_pair(10)
        computed = TransformMatrix(pair.rows).with_computed_companion()
        assert computed.companion.rows == pair.companion.rows

    def test_zero_diagonal_rejected(self):
        m = TransformMatrix([[1], [1, 0]])
        with pytest.raises(IntegrityError):
            m.with_computed_companion()

    def test_orthogonality_violation_detected(self):
        a = TransformMatrix([[1], [1, 1]])
        bad = TransformMatrix([[1], [1, 1]], companion=a)
        with pytest.raises(IntegrityError):
            bad.verify_orthogonality()

    def test_missing_companion(self):
        with pytest.raises(IntegrityError):
            TransformMatrix([[1]]).verify_orthogonality()


class TestVerifyOnce:
    def test_single_product_over_two_applies(self, monkeypatch):
        calls = []
        original = TransformMatrix.verify_orthogonality

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(TransformMatrix, "verify_orthogonality", counting)
        pair = TransformMatrix.stirling_pair(8)
        y = [Fraction(k + 1, 3) for k in range(9)]
        first = triangular_inverse_apply(pair, y)
        second = triangular_inverse_apply(pair, y)
        assert first == second
        assert calls == [pair]

    def test_direct_call_still_checks(self):
        # a recorded pass must not short-cut an explicit check
        bad = TransformMatrix([[1], [1, 1]], companion=TransformMatrix([[1], [1, 1]]))
        object.__setattr__(bad, "_verified", True)
        with pytest.raises(IntegrityError):
            bad.verify_orthogonality()

    def test_bad_companion_raises_on_first_apply(self):
        a = TransformMatrix([[1], [1, 1]])
        bad = TransformMatrix([[1], [1, 1]], companion=a)
        with pytest.raises(IntegrityError):
            triangular_inverse_apply(bad, [1, 1])
        with pytest.raises(IntegrityError):
            triangular_inverse_apply(bad, [1, 1])

    def test_verified_flag_not_part_of_equality(self):
        pair = TransformMatrix.stirling_pair(4)
        fresh = TransformMatrix.stirling_pair(4)
        pair.verify_orthogonality()
        assert pair == fresh


class TestTriangularActions:
    def test_forward_matches_by_hand(self):
        m = TransformMatrix([[1], [2, 3], [4, 5, 6]])
        y = triangular_forward(m, [1, 1, 1])
        assert y == (1, 5, 15)

    def test_round_trip_random_matrix(self):
        rng = random.Random(29)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            + [Fraction(rng.randint(1, 9))]
            for n in range(12)
        ]
        m = TransformMatrix(rows).with_computed_companion()
        x = random_rationals(rng, 12)
        y = triangular_forward(m, x)
        assert triangular_inverse_apply(m, y) == tuple(x)

    def test_vector_too_long(self):
        m = TransformMatrix.identity(2)
        with pytest.raises(DomainError):
            triangular_forward(m, [1, 2, 3, 4])


class TestCoefficientTransform:
    def test_unit_vectors_pick_columns(self):
        m = TransformMatrix.stirling_pair(6)
        for k in range(7):
            eta = [Fraction(int(i == k)) for i in range(7)]
            xi = coefficient_transform(m, eta, 6)
            # xi_n = A_kn: row k of the matrix, padded with zeros
            expect = tuple(m.entry(k, n) for n in range(7))
            assert xi == expect

    def test_matches_brute_force(self):
        rng = random.Random(41)
        m = TransformMatrix.stirling_pair(9)
        eta = random_rationals(rng, 10)
        xi = coefficient_transform(m, eta, 9)
        for n in range(10):
            brute = sum(m.entry(k, n) * eta[k] for k in range(n, 10))
            assert xi[n] == brute

    def test_domain_checks(self):
        m = TransformMatrix.identity(3)
        with pytest.raises(DomainError):
            coefficient_transform(m, [1, 2], 3)
        with pytest.raises(DomainError):
            coefficient_transform(m, [1] * 10, 9)


class TestCrossModule:
    def test_forward_action_reproduces_invpow_to_factorial(self):
        # d_n = sum_v |s1(n, v)| c_v: the unsigned first-kind triangle acting
        # forward reproduces the inverse-power -> factorial transform
        from facseries.stirling import pochhammer_coeffs

        rng = random.Random(53)
        c = random_rationals(rng, 13)
        unsigned = TransformMatrix([pochhammer_coeffs(n) for n in range(13)])
        d = triangular_forward(unsigned, c)
        ref = inverse_power_to_factorial(
            FormalSeries(SeriesKind.INVERSE_POWER, c), 12
        )
        assert d == ref.coeffs
