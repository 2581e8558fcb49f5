"""Exact Stirling-weighted coefficient transforms and the triangular framework."""

import random
import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from facseries import transforms
from facseries.applications import e1_factorial_coeffs
from facseries.errors import DomainError, IntegrityError
from facseries.series import FormalSeries, MomentSequence, SeriesKind, _common_denominator
from facseries.stirling import stirling1, stirling2
from facseries.transforms import (
    TransformMatrix,
    _lower_apply,
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


def forward_substitution(rows):
    """The inverse B of a lower-triangular A by plain Fraction forward
    substitution, column k solving A B[:, k] = e_k: the reference."""
    n = len(rows)
    b = [[Fraction(0)] * (r + 1) for r in range(n)]
    for k in range(n):
        for r in range(k, n):
            acc = Fraction(1 if r == k else 0)
            for j in range(k, r):
                acc -= rows[r][j] * b[j][k]
            b[r][k] = acc / rows[r][r]
    return b


def counting(monkeypatch, name):
    """Record the arguments of every call to transforms.<name>."""
    calls, original = [], getattr(transforms, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(transforms, name, wrapper)
    return calls


class TestLowerApply:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.lists(st.fractions(max_denominator=10**4), max_size=12), max_size=12),
        st.lists(st.fractions(max_denominator=10**4), max_size=12),
        st.integers(1, 50),
    )
    def test_cleared_rows_equal_fraction_sums(self, rows, x, extra):
        # any common denominator serves, not only the least one
        cleared = []
        for row in rows:
            d, ints = _common_denominator(row)
            cleared.append((d * extra, [i * extra for i in ints]))
        assert _lower_apply(cleared, x) == tuple(
            sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows
        )


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

    def test_negative_order_rejected(self):
        for transform, kind in (
            (inverse_power_to_factorial, SeriesKind.INVERSE_POWER),
            (factorial_to_inverse_power, SeriesKind.FACTORIAL),
            (power_to_factorial_coeffs, SeriesKind.POWER),
        ):
            with pytest.raises(DomainError, match="got -1"):
                transform(FormalSeries(kind, [1, 2]), -1)
        with pytest.raises(DomainError, match="got -1"):
            coefficient_transform(TransformMatrix.identity(3), [1, 2], -1)

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


@pytest.fixture(scope="module")
def sympy_stirling():
    """Signed first-kind and second-kind triangles to n = 59, from sympy."""
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    return {
        1: [[int(numbers.stirling(m, mu, kind=1, signed=True)) for mu in range(m + 1)]
            for m in range(60)],
        2: [[int(numbers.stirling(m, mu, kind=2)) for mu in range(m + 1)] for m in range(60)],
    }


class TestAgainstSympyStirling:
    TRANSFORMS = [
        (inverse_power_to_factorial, SeriesKind.INVERSE_POWER, 1),
        (factorial_to_inverse_power, SeriesKind.FACTORIAL, 2),
        (power_to_factorial_coeffs, SeriesKind.POWER, 1),
    ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=60),
        st.sampled_from(TRANSFORMS),
    )
    def test_written_formula(self, sympy_stirling, x, transform):
        # (-1)^m sum_mu (-1)^mu s(m, mu) x_mu, written out over sympy's triangles
        fn, kind, stirling_kind = transform
        out = fn(FormalSeries(kind, x), len(x) - 1)
        got = out.coeffs if isinstance(out, FormalSeries) else out
        s = sympy_stirling[stirling_kind]
        assert got == tuple(
            (-1) ** m * sum((-1) ** mu * s[m][mu] * x[mu] for mu in range(m + 1))
            for m in range(len(x))
        )
        # e1: the same transform of c_mu = (-1)^mu mu!
        assert e1_factorial_coeffs(len(x) - 1) == [
            (-1) ** m * sum(sympy_stirling[1][m][mu] * factorial(mu) for mu in range(m + 1))
            for m in range(len(x))
        ]


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

    @pytest.mark.parametrize("build", [TransformMatrix.identity, TransformMatrix.stirling_pair])
    def test_negative_size_rejected(self, build):
        with pytest.raises(DomainError):
            build(-3)

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

    def test_first_zero_diagonal_row_named(self):
        rows = [[Fraction(1, n + 1)] * (n + 1) for n in range(8)]
        rows[5][5] = rows[7][7] = 0
        with pytest.raises(IntegrityError, match="at row 5;"):
            TransformMatrix(rows).with_computed_companion()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_companion_equals_forward_substitution(self, data):
        n = data.draw(st.integers(1, 25))
        den = st.integers(1, 60)
        entry = st.builds(Fraction, st.integers(-999, 999), den)
        pivot = st.builds(Fraction, st.integers(1, 999) | st.integers(-999, -1), den)
        rows = [data.draw(st.lists(entry, min_size=r, max_size=r)) + [data.draw(pivot)]
                for r in range(n)]
        m = TransformMatrix(rows).with_computed_companion()
        assert m.companion.rows == TransformMatrix(forward_substitution(rows)).rows
        m.verify_orthogonality()

    def test_companion_columns_rescaled(self, monkeypatch):
        # diagonal 1/p over distinct primes: B_rr = p_r, and the rational
        # off-diagonals give each column entries whose denominators its
        # common denominator does not yet hold
        rng = random.Random(17)
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 11, 13)))
                 for _ in range(r)] + [Fraction(1, p)] for r, p in enumerate(primes)]
        rescales = counting(monkeypatch, "lcm")
        m = TransformMatrix(rows).with_computed_companion()
        assert rescales  # the rescale path ran
        assert m.companion.rows == TransformMatrix(forward_substitution(rows)).rows
        m.verify_orthogonality()

    def test_integer_unit_diagonal_never_rescales(self, monkeypatch):
        rng = random.Random(19)
        rows = [[rng.randint(-3, 3) for _ in range(r)] + [1] for r in range(30)]
        rescales = counting(monkeypatch, "lcm")
        m = TransformMatrix(rows).with_computed_companion()
        assert rescales == []
        assert m.companion.rows == TransformMatrix(forward_substitution(rows)).rows

    def test_orthogonality_violation_detected(self):
        a = TransformMatrix([[1], [1, 1]])
        bad = TransformMatrix([[1], [1, 1]], companion=a)
        with pytest.raises(IntegrityError):
            bad.verify_orthogonality()

    def test_deep_companion_corruption_detected(self):
        pair = TransformMatrix.stirling_pair(30)
        b_rows = [list(row) for row in pair.companion.rows]
        b_rows[27][19] += 1
        bad = TransformMatrix(pair.rows, companion=TransformMatrix(b_rows))
        with pytest.raises(IntegrityError, match="n=27"):
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


class TestClearedOnce:
    """Each exact row is cleared once, at build, where it is kept; a product clears
    only its vector."""

    def test_forward_clears_only_the_vector_after_first_use(self, monkeypatch):
        rng = random.Random(23)
        rows = [random_rationals(rng, n + 1) for n in range(12)]
        x = random_rationals(rng, 12)
        calls = counting(monkeypatch, "_common_denominator")
        m = TransformMatrix(rows)
        assert calls == [(row,) for row in rows]  # the 12 rows, once, at build
        calls.clear()
        first = triangular_forward(m, x)
        assert calls == [(x,)]
        calls.clear()
        assert triangular_forward(m, x) == first
        assert calls == [(x,)]

    def test_inverse_apply_clears_only_the_vector_after_first_use(self, monkeypatch):
        pair = TransformMatrix.stirling_pair(10)
        y = [Fraction(k + 1, 7) for k in range(11)]
        triangular_inverse_apply(pair, y)
        calls = counting(monkeypatch, "_common_denominator")
        triangular_inverse_apply(pair, y)
        assert calls == [(y,)]

    def test_stirling_transforms_clear_only_the_vector(self, monkeypatch):
        c = FormalSeries(SeriesKind.INVERSE_POWER, [Fraction(k - 5, k + 2) for k in range(20)])
        calls = counting(monkeypatch, "_common_denominator")
        d = inverse_power_to_factorial(c, 19)
        factorial_to_inverse_power(d, 19)
        power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, c.coeffs), 19)
        assert len(calls) == 3

    def test_companion_clears_each_row_once(self, monkeypatch):
        rng = random.Random(29)
        rows = [random_rationals(rng, r) + [Fraction(rng.randint(1, 9), rng.randint(1, 9))]
                for r in range(16)]
        m = TransformMatrix(rows)
        calls = counting(monkeypatch, "_common_denominator")
        computed = m.with_computed_companion()
        # one kernel call a row, whose vector is row r's r entries left of the diagonal,
        # then B's 16 rows, once each at build; A's rows are not cleared again
        assert [len(args[0]) for args in calls] == [*range(16), *range(1, 17)]
        assert computed._cleared is m._cleared


class TestSharedFirstUse:
    """Applies share one TransformMatrix between threads: the rows are kept at build,
    and the only state an apply adds is the record of a passed check."""

    @staticmethod
    def matrix():
        rng = random.Random(31)
        rows = [random_rationals(rng, n) + [Fraction(rng.randint(1, 9), rng.randint(1, 9))]
                for n in range(40)]
        return TransformMatrix(rows).with_computed_companion()

    def test_first_use_from_eight_threads(self):
        x = random_rationals(random.Random(37), 40)
        serial = self.matrix()
        want = (triangular_forward(serial, x), triangular_inverse_apply(serial, x))
        shared, results = self.matrix(), [None] * 8
        start = threading.Barrier(8)

        def work(i):
            start.wait(timeout=60)
            results[i] = (triangular_forward(shared, x), triangular_inverse_apply(shared, x))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 8

    def test_used_and_unused_compare_and_hash_equal(self):
        used, fresh = self.matrix(), self.matrix()
        triangular_inverse_apply(used, triangular_forward(used, [1] * 40))
        assert used._verified and not fresh._verified
        assert vars(used).keys() == vars(fresh).keys()  # no state beyond _verified
        assert used == fresh
        assert hash(used) == hash(fresh)


class TestKeptRows:
    """The integer rows are the one stored form; rows and entry are read from them."""

    entries = st.one_of(
        st.integers(-10**30, 10**30),
        st.fractions(max_denominator=10**6),
        st.fractions(max_denominator=10**6).map(str),
        st.decimals(-10**6, 10**6, allow_nan=False, places=4).map(str),
        st.floats(-1e6, 1e6, allow_nan=False),
    )

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_rows_and_entry_equal_the_fraction_reference(self, data):
        size = data.draw(st.integers(0, 8))
        rows = [data.draw(st.lists(self.entries, min_size=n + 1, max_size=n + 1))
                for n in range(size)]
        ref = tuple(tuple(map(Fraction, row)) for row in rows)
        m = TransformMatrix(rows)
        assert m.rows == ref and m.n_max == size - 1
        assert all(type(v) is Fraction for row in m.rows for v in row)
        for n in range(size):
            for k in range(size + 1):
                v = m.entry(n, k)
                assert type(v) is Fraction and v == (ref[n][k] if k <= n else 0)
        # equal values, whatever their types, make equal matrices with equal hashes
        for same in (TransformMatrix(ref), TransformMatrix([map(str, row) for row in ref])):
            assert same == m and hash(same) == hash(m)

    def test_integer_rows_build_no_fraction(self, monkeypatch):
        made, original = [], Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        pair = TransformMatrix.stirling_pair(40)
        identity = TransformMatrix.identity(40)
        TransformMatrix([[1], [-2, 3], [4, 5, -6]])
        assert made == []
        assert pair.rows[40][1] == stirling1(40, 1) and identity.entry(3, 3) == 1
        assert made  # the Fractions are made when rows and entry are read
        # and hold the kept integers themselves, not copies
        assert all(f.numerator is i for f, i in zip(pair.rows[40], pair._cleared[40][1]))


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
        mixed = TransformMatrix(
            [[Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 7, 12, 35, 97]))
              for _ in range(n + 1)] for n in range(10)]
        )
        for m in (TransformMatrix.stirling_pair(9), mixed):
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
