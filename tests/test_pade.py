"""Exact-rational Pade approximants: construction, matching, degeneracy."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from facseries.errors import DegeneracyError, DomainError, PoleError
from facseries.pade import PadeApprox, _solve_exact, pade_construct, pade_eval
from facseries.series import PrecisionContext

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


class TestFractionFreeSolver:
    @settings(max_examples=300, deadline=None)
    @given(linear_systems())
    def test_matches_gauss_jordan(self, system):
        a, rhs = system
        assert _solve_exact(a, rhs) == gauss_jordan_reference(a, rhs)

    def test_singular_returns_none(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]]
        assert _solve_exact(a, [Fraction(1), Fraction(3)]) is None
        assert gauss_jordan_reference(a, [Fraction(1), Fraction(3)]) is None

    def test_zero_leading_pivot(self):
        a = [[Fraction(0), Fraction(1)], [Fraction(2, 3), Fraction(5)]]
        assert _solve_exact(a, [Fraction(1), Fraction(1)]) == [Fraction(-6), Fraction(1)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_pade_construct_matches_reference(self, L, M, data):
        c = data.draw(st.lists(rationals, min_size=L + M + 1, max_size=L + M + 1))
        expected = pade_reference(c, L, M)
        if expected[0] == "degenerate":
            with pytest.raises(DegeneracyError) as err:
                pade_construct(c, L, M)
            assert err.value.largest_m == expected[1]
        else:
            p = pade_construct(c, L, M)
            assert (p.num, p.den) == expected
