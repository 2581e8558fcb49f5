"""Exact-rational Pade approximants: construction, matching, degeneracy."""

import random
from fractions import Fraction
from itertools import accumulate
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from facseries import pade
from facseries.errors import DegeneracyError, DomainError, PoleError
from facseries.pade import PadeApprox, _pade_value, _solve_exact, pade_construct, pade_eval
from facseries.series import PrecisionContext, to_mpf

PREC = PrecisionContext(64)


def series_of_rational(num, den, order):
    """Taylor coefficients of num(z)/den(z) (den[0] != 0), exact."""
    out = []
    for k in range(order + 1):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= Fraction(den[j]) * out[k - j]
        out.append(acc / Fraction(den[0]))
    return out


class TestConstruction:
    def test_exp_1_1(self):
        # [1/1] of exp: (1 + z/2)/(1 - z/2)
        coeffs = [Fraction(1, factorial(k)) for k in range(3)]
        p = pade_construct(coeffs, 1, 1)
        assert p.num == (1, Fraction(1, 2))
        assert p.den == (1, Fraction(-1, 2))

    def test_geometric_0_1(self):
        p = pade_construct([1, 1, 1], 0, 1)
        assert p.num == (1,)
        assert p.den == (1, -1)

    def test_m0_is_truncation(self):
        coeffs = [Fraction(k + 1, 3) for k in range(5)]
        p = pade_construct(coeffs, 4, 0)
        assert p.den == (1,)
        assert p.num == tuple(coeffs)

    def test_degrees(self):
        coeffs = [Fraction(1, factorial(k)) for k in range(8)]
        p = pade_construct(coeffs, 3, 4)
        assert (p.L, p.M) == (3, 4)
        assert p.den[0] == 1

    def test_mixed_coefficients_convert_as_before(self, monkeypatch):
        # a Fraction coefficient is taken as it is; int, str and float ones convert exactly
        mixed = [Fraction(1, 3), 2, "5/7", 0.5, "-1.25", Fraction(-4, 9), 3]
        seen, original = [], pade._try_denominator
        monkeypatch.setattr(pade, "_try_denominator", lambda c, L, M: seen.append(c) or original(c, L, M))
        p = pade_construct(mixed, 3, 3)
        assert seen[0][0] is mixed[0] and seen[0][5] is mixed[5]
        assert seen[0] == [Fraction(v) for v in mixed]
        assert p == pade_construct([Fraction(v) for v in mixed], 3, 3)

    def test_not_enough_coefficients(self):
        with pytest.raises(DomainError):
            pade_construct([1, 1], 1, 1)

    def test_negative_degrees(self):
        with pytest.raises(DomainError):
            pade_construct([1], -1, 0)


class TestMatchThroughOrder:
    def test_random_series(self):
        rng = random.Random(71)
        for _ in range(15):
            L = rng.randint(0, 6)
            M = rng.randint(0, 6)
            coeffs = [
                Fraction(rng.randint(1, 400), rng.randint(1, 40))
                for _ in range(L + M + 1)
            ]
            p = pade_construct(coeffs, L, M)
            assert p.taylor(L + M) == tuple(coeffs)

    def test_recovers_rational_function(self):
        # series of (1 + 2z)/(1 + z + z^2) must come back exactly as [1/2]
        num, den = [1, 2], [1, 1, 1]
        coeffs = series_of_rational(num, den, 3)
        p = pade_construct(coeffs, 1, 2)
        assert p.num == (1, 2)
        assert p.den == (1, 1, 1)
        # and the Taylor expansion keeps matching far beyond L+M
        assert p.taylor(12) == tuple(series_of_rational(num, den, 12))


class TestDegeneracy:
    def test_constant_series(self):
        with pytest.raises(DegeneracyError) as exc:
            pade_construct([1, 0, 0], 1, 1)
        assert exc.value.largest_m == 0
        assert exc.value.code == "degeneracy"

    def test_largest_m_reported(self):
        # 1/(1 - z^2) has only even structure: [0/1] is singular, [0/2] fine
        coeffs = series_of_rational([1], [1, 0, -1], 4)
        p = pade_construct(coeffs, 0, 2)
        assert p.den == (1, 0, -1)
        # the odd-degree denominator has nothing to match: [1/1] is singular
        with pytest.raises(DegeneracyError) as exc:
            pade_construct(coeffs[:3], 1, 1)
        assert exc.value.largest_m == 0


class TestEval:
    def test_exp_value(self):
        coeffs = [Fraction(1, factorial(k)) for k in range(11)]
        p = pade_construct(coeffs, 5, 5)
        with PREC.workdps():
            v = pade_eval(p, Fraction(1, 2), PREC)
            assert abs(v - mp.sqrt(mp.e)) < mp.mpf(10) ** -12

    def test_pole_raises(self):
        p = pade_construct([1, 1, 1], 0, 1)  # 1/(1-z)
        with pytest.raises(PoleError):
            pade_eval(p, 1, PREC)

    @pytest.mark.parametrize("z", [mp.inf, -mp.inf, mp.nan, float("inf"), "nan"])
    def test_non_finite_z(self, z):
        p = pade_construct([1, 1, 1], 0, 1)
        with pytest.raises(DomainError):
            pade_eval(p, z, PREC)

    @pytest.mark.parametrize("L, M", [(3, 1), (2, 2), (1, 3), (0, 2)])
    @pytest.mark.parametrize("z", [Fraction(-7, 3), Fraction(1, 10**30), Fraction(5), 0.1, "1e-7"])
    def test_exact_then_rounded_once(self, L, M, z):
        p = pade_construct([Fraction(1, factorial(k)) * (-1) ** (k // 2) for k in range(L + M + 1)], L, M)
        zq = Fraction(z)
        exact = (sum(c * zq**k for k, c in enumerate(p.num)) / sum(c * zq**k for k, c in enumerate(p.den)))
        assert _pade_value(p, zq) == exact
        with PREC.workdps(10):
            assert pade_eval(p, z, PREC) == to_mpf(exact)

    def test_warm_value_clears_no_coefficients(self, monkeypatch):
        # a kept approximant clears num and den once, not once per point
        calls, original = [], pade._common_denominator
        monkeypatch.setattr(pade, "_common_denominator", lambda values: calls.append(values) or original(values))
        p = pade_construct([Fraction(1, factorial(k)) for k in range(9)], 4, 4)
        calls.clear()
        first = [_pade_value(p, Fraction(k, 7)) for k in range(5)]
        assert calls == [p.num, p.den]
        assert [_pade_value(p, Fraction(k, 7)) for k in range(5)] == first and len(calls) == 2

    def test_pole_is_exact(self):
        # den(z) = 1 - z/(1 + 10^-40) is 0 only at its root, however near z comes to it
        root = 1 + Fraction(1, 10**40)
        p = PadeApprox(num=(Fraction(1),), den=(Fraction(1), -1 / root))
        assert pade_eval(p, 1, PREC) > 10**39
        with pytest.raises(PoleError):
            pade_eval(p, root, PREC)

    def test_frozen_dataclass(self):
        p = PadeApprox(num=(Fraction(1),), den=(Fraction(1), Fraction(2)))
        assert (p.L, p.M) == (0, 1)
        with pytest.raises(AttributeError):
            p.num = ()


# --- fraction-free solver against a Fraction Gauss-Jordan reference ---------


def gauss_jordan_reference(a, rhs):
    """Gauss-Jordan over Fractions with first-nonzero pivoting; None if singular."""
    m = len(rhs)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(a)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / pv
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][m] / aug[i][i] for i in range(m)]


def pade_reference(c, L, M):
    """(num, den) of [L/M] by the reference solver, or ("degenerate", largest_m)."""
    def denominator(mm):
        if mm == 0:
            return [Fraction(1)]
        a = [[c[L + i - j] if L + i - j >= 0 else 0 for j in range(1, mm + 1)]
             for i in range(1, mm + 1)]
        sol = gauss_jordan_reference(a, [-c[L + i] for i in range(1, mm + 1)])
        return None if sol is None else [Fraction(1)] + sol

    den = denominator(M)
    if den is None:
        return "degenerate", next(
            (mm for mm in range(M - 1, -1, -1) if denominator(mm) is not None), 0
        )
    num = [sum((den[j] * c[k - j] for j in range(min(k, M) + 1)), Fraction(0))
           for k in range(L + 1)]
    return tuple(num), tuple(den)


def assert_matches_reference(c, L, M):
    """pade_construct agrees with pade_reference: the same [L/M], or the same largest_m."""
    expected = pade_reference(c, L, M)
    if expected[0] == "degenerate":
        with pytest.raises(DegeneracyError) as err:
            pade_construct(c, L, M)
        assert err.value.largest_m == expected[1]
    else:
        p = pade_construct(c, L, M)
        assert (p.num, p.den) == expected


# small entries make singular systems and zero pivots common
rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def linear_systems(draw):
    m = draw(st.integers(1, 6))
    a = [draw(st.lists(rationals, min_size=m, max_size=m)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        # force rank deficiency: row i becomes a rational multiple of row j
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        s = draw(rationals)
        a[i] = [s * x for x in a[j]]
    return a, draw(st.lists(rationals, min_size=m, max_size=m))


@st.composite
def scaled_systems(draw):
    """Rows over denominators 2^a 3^b k! of very different sizes, columns that
    share an integer content, and one deformation: a zero column, a zero row,
    a zero right-hand side, or a row that is a multiple of another."""
    m = draw(st.integers(1, 6))
    small = st.integers(-4, 4)  # zero entries, and so zero pivots, stay common
    row_den = [
        2 ** draw(st.integers(0, 60)) * 3 ** draw(st.integers(0, 30)) * factorial(draw(st.integers(0, 20)))
        for _ in range(m)
    ]
    content = [
        draw(st.one_of(st.just(1), st.integers(2, 10**6), st.builds(lambda e: 8**e, st.integers(1, 30))))
        for _ in range(m)
    ]
    a = [[Fraction(draw(small) * g, d * draw(st.integers(1, 6))) for g in content] for d in row_den]
    rhs = [Fraction(draw(small), d * draw(st.integers(1, 6))) for d in row_den]
    shape = draw(st.sampled_from(["none", "zero column", "zero row", "zero rhs", "rank deficient"]))
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    if shape == "zero column":
        for row in a:
            row[j] = Fraction(0)
    elif shape == "zero row":
        a[i] = [Fraction(0)] * m
    elif shape == "zero rhs":
        rhs = [Fraction(0)] * m
    elif shape == "rank deficient" and i != j:
        a[i] = [draw(rationals) * x for x in a[j]]
    return a, rhs


@st.composite
def graded_systems(draw):
    """Entries 2^max(0, r_i - s_j) times small nonzero rationals, r and s rising from
    0 by two to four limbs a step, as a factorially divergent series grades its Pade
    system: after clearing, column j's largest entry has about r_(m-1) - s_j bits, so
    the graded order takes the columns last to first.  (A pure 2^(r_i - s_j) is a
    diagonal scaling, which the row clearing and the column contents undo.)  Then
    one deformation: a zero column, a zero right-hand side, or a row that is a
    multiple of another."""
    m = draw(st.integers(2, 6))
    steps = st.integers(60, 120)
    r, s = ([0] + list(accumulate(draw(st.lists(steps, min_size=m - 1, max_size=m - 1))))
            for _ in range(2))
    small = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1), st.integers(1, 6))
    a = [[draw(small) * 2 ** max(0, ri - sj) for sj in s] for ri in r]
    rhs = [draw(small) * 2 ** ri for ri in r]
    shape = draw(st.sampled_from(["none", "zero column", "zero rhs", "rank deficient"]))
    i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
    if shape == "zero column":
        for row in a:
            row[j] = Fraction(0)
    elif shape == "zero rhs":
        rhs = [Fraction(0)] * m
    elif shape == "rank deficient":
        a[i] = [draw(small) * x for x in a[j]]
    return a, rhs


# c_k = s_k 2^(5k^2) or its reciprocal: each Toeplitz column is about 10 (M - 1) bits
# longer than the next, and zero s_k make degenerate tables common
graded_series = st.builds(
    lambda ks, sign: [Fraction(k) * Fraction(2) ** (sign * 5 * n * n) for n, k in enumerate(ks)],
    st.lists(st.integers(-3, 3), min_size=13, max_size=13), st.sampled_from([1, -1]))


class TestFractionFreeSolver:
    @settings(max_examples=300, deadline=None)
    @given(linear_systems())
    def test_matches_gauss_jordan(self, system):
        a, rhs = system
        assert _solve_exact(a, rhs) == gauss_jordan_reference(a, rhs)

    @settings(max_examples=300, deadline=None)
    @given(scaled_systems())
    def test_row_and_column_scaling_matches_gauss_jordan(self, system):
        a, rhs = system
        assert _solve_exact(a, rhs) == gauss_jordan_reference(a, rhs)

    def test_singular_returns_none(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]]
        assert _solve_exact(a, [Fraction(1), Fraction(3)]) is None
        assert gauss_jordan_reference(a, [Fraction(1), Fraction(3)]) is None

    @settings(max_examples=300, deadline=None)
    @given(graded_systems())
    def test_graded_order_matches_gauss_jordan(self, system):
        a, rhs = system
        assert _solve_exact(a, rhs) == gauss_jordan_reference(a, rhs)

    def test_graded_singular_returns_none(self):
        # columns of 242, 143 and 2 bits after clearing: the graded order is 2, 1, 0
        a = [[Fraction(3, 2 ** k) for k in (0, 120, 240)],
             [Fraction(5), Fraction(7, 2 ** 60), Fraction(1, 2 ** 200)],
             [Fraction(9), Fraction(1), Fraction(1)]]
        rhs = [Fraction(1), Fraction(2), Fraction(3)]
        assert _solve_exact(a, rhs) == gauss_jordan_reference(a, rhs) is not None
        dependent = [a[0], a[1], [Fraction(-2, 7) * x for x in a[0]]]
        assert _solve_exact(dependent, rhs) is None
        assert gauss_jordan_reference(dependent, rhs) is None
        # an all-zero last column has limb count 0, so the graded order takes it first
        last_zero = [row[:2] + [Fraction(0)] for row in a]
        assert _solve_exact(last_zero, rhs) is None
        assert gauss_jordan_reference(last_zero, rhs) is None

    @pytest.mark.parametrize("L, M", [(3, 5), (5, 5), (7, 7)])
    def test_graded_degenerate_series_largest_m(self, L, M):
        # an even series graded like 2^(5n^2): these [L/M] systems are singular, and
        # the graded order moves the columns of both them and [L/M-1]'s
        c = [Fraction(2 ** (5 * n * n)) if n % 2 == 0 else Fraction(0) for n in range(L + M + 1)]
        expected = pade_reference(c, L, M)
        assert expected[0] == "degenerate"
        with pytest.raises(DegeneracyError) as err:
            pade_construct(c, L, M)
        assert err.value.largest_m == expected[1] > 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), graded_series)
    def test_graded_series_matches_reference(self, L, M, c):
        assert_matches_reference(c[: L + M + 1], L, M)

    def test_zero_leading_pivot(self):
        a = [[Fraction(0), Fraction(1)], [Fraction(2, 3), Fraction(5)]]
        assert _solve_exact(a, [Fraction(1), Fraction(1)]) == [Fraction(-6), Fraction(1)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_pade_construct_matches_reference(self, L, M, data):
        c = data.draw(st.lists(rationals, min_size=L + M + 1, max_size=L + M + 1))
        assert_matches_reference(c, L, M)
