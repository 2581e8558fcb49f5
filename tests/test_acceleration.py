"""Levin and Weniger transformations: identities, model sequences, ln 2 run."""

import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from facseries.acceleration import (
    TransformInput,
    levin,
    remainder_estimates,
    transform_table,
    weniger_s,
)
from facseries.errors import DomainError, EstimateError, InstabilityError
from facseries.series import PrecisionContext, _rational, to_mpf

PREC = PrecisionContext(64)


def ln2_input(n_terms=20):
    terms = [Fraction((-1) ** m, m + 1) for m in range(n_terms)]
    return TransformInput.from_terms(terms, "first_neglected", 1)


class TestRemainderEstimates:
    def test_first_neglected(self):
        omega = remainder_estimates([1, Fraction(-1, 2), Fraction(1, 3)],
                                    "first_neglected")
        assert omega[0] == mp.mpf(-0.5)
        assert len(omega) == 2

    def test_scaled_term(self):
        omega = remainder_estimates([2, 2, 2], "scaled_term", beta=1)
        assert tuple(omega) == (2, 4, 6)

    def test_zero_term_rejected(self):
        with pytest.raises(EstimateError):
            remainder_estimates([1, 0, 1], "first_neglected")

    def test_unknown_strategy(self):
        with pytest.raises(DomainError):
            remainder_estimates([1, 2], "midpoint")

    def test_non_finite_term(self):
        with pytest.raises(DomainError, match="not a finite real number"):
            remainder_estimates([1, mp.nan], "scaled_term")


class TestTransformInput:
    def test_lengths_aligned(self):
        inp = ln2_input(10)
        assert len(inp.s) == len(inp.omega) == 9

    def test_validation(self):
        with pytest.raises(DomainError):
            TransformInput(s=(1, 2), omega=(1,))
        with pytest.raises(DomainError):
            TransformInput(s=(1,), omega=(1,), beta=0)
        with pytest.raises(DomainError, match="not a finite real number"):
            TransformInput((1,), (1,), float("nan"))
        with pytest.raises(DomainError, match="not a finite real number"):
            TransformInput.from_terms([1, mp.inf, 2])

    @pytest.mark.parametrize("strategy", ["scaled_term", "first_neglected"])
    @pytest.mark.parametrize("beta", [0, -1])
    def test_from_terms_checks_beta_first(self, strategy, beta):
        # scaled_term's omega_n = (beta + n) a_n is zero at n = -beta: the bad
        # beta is reported as such, not as a zero remainder estimate
        terms = [1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)]
        with pytest.raises(DomainError, match=f"beta must be > 0, got {beta}"):
            TransformInput.from_terms(terms, strategy, beta)


class TestIdentities:
    def test_k0_returns_partial_sum(self):
        inp = ln2_input()
        with PREC.workdps():
            tol = PREC.tol(10)
            for n in (0, 3, 7):
                assert abs(levin(inp, 0, n, PREC) - inp.s[n]) < tol
                assert abs(weniger_s(inp, 0, n, PREC) - inp.s[n]) < tol

    def test_shift_covariance(self):
        # the (k, n+1) cell equals the (k, n) cell of the shifted input with
        # beta raised by one: no hidden state beyond the declared window
        inp = ln2_input()
        shifted = TransformInput(inp.s[1:], inp.omega[1:], inp.beta + 1)
        for k in (2, 5):
            assert levin(inp, k, 1, PREC) == levin(shifted, k, 0, PREC)
            assert weniger_s(inp, k, 1, PREC) == weniger_s(shifted, k, 0, PREC)

    def test_window_bounds(self):
        inp = ln2_input(6)
        with pytest.raises(DomainError):
            levin(inp, 5, 1, PREC)
        with pytest.raises(DomainError):
            weniger_s(inp, -1, 0, PREC)


class TestLn2:
    """Alternating harmonic series: 20 divergent-free terms, huge speedup."""

    def test_levin_error_below_1e8(self):
        inp = ln2_input()
        with PREC.workdps():
            err = abs(levin(inp, 10, 0, PREC) - mp.log(2))
            assert err < mp.mpf(10) ** -8

    def test_weniger_error_below_1e8(self):
        inp = ln2_input()
        with PREC.workdps():
            err = abs(weniger_s(inp, 10, 0, PREC) - mp.log(2))
            assert err < mp.mpf(10) ** -8

    def test_errors_shrink_with_k(self):
        inp = ln2_input()
        with PREC.workdps():
            ref = mp.log(2)
            errs = [abs(levin(inp, k, 0, PREC) - ref) for k in (2, 6, 10)]
            assert errs[0] > errs[1] > errs[2]


def levin_model(rng, k, beta):
    """s_n = s + omega_n * (polynomial of degree k-1 in 1/(beta+n)), exact."""
    s = Fraction(rng.randint(-500, 500), rng.randint(1, 100))
    cs = [Fraction(rng.randint(-500, 500), 100) for _ in range(max(k, 1))]
    svals, omegas = [], []
    for n in range(k + 1):
        omega = Fraction((-1) ** n, n + 1)
        z = sum(c / (beta + n) ** j for j, c in enumerate(cs))
        svals.append(s + omega * z)
        omegas.append(omega)
    return s, TransformInput(tuple(svals), tuple(omegas), beta)


def weniger_model(rng, k, beta):
    """s_n = s + omega_n * (factorial series of length k in beta+n), exact."""
    s = Fraction(rng.randint(-500, 500), rng.randint(1, 100))
    cs = [Fraction(rng.randint(-500, 500), 100) for _ in range(max(k, 1))]
    svals, omegas = [], []
    for n in range(k + 1):
        omega = Fraction((-1) ** n, n + 1)
        z = Fraction(0)
        poch = Fraction(1)  # (beta+n)_j
        for j, c in enumerate(cs):
            if j > 0:
                poch *= beta + n + j - 1
            z += c / poch
        svals.append(s + omega * z)
        omegas.append(omega)
    return s, TransformInput(tuple(svals), tuple(omegas), beta)


class TestModelSequences:
    def test_levin_exactness(self):
        rng = random.Random(101)
        with PREC.workdps():
            tol = PREC.tol(8)
            for _ in range(10):
                k = rng.randint(1, 12)
                beta = rng.choice([Fraction(1), Fraction(5, 2)])
                s, inp = levin_model(rng, k, beta)
                got = levin(inp, k, 0, PREC)
                assert abs(got - s) <= tol * max(1, abs(s))

    def test_weniger_exactness(self):
        rng = random.Random(103)
        with PREC.workdps():
            tol = PREC.tol(8)
            for _ in range(10):
                k = rng.randint(1, 12)
                beta = rng.choice([Fraction(1), Fraction(5, 2)])
                s, inp = weniger_model(rng, k, beta)
                got = weniger_s(inp, k, 0, PREC)
                assert abs(got - s) <= tol * max(1, abs(s))


class TestInstability:
    def test_constant_omega_degenerates(self):
        # constant omega: the k=1 denominator is 1/w - 1/w = 0 exactly
        inp = TransformInput(s=(1, 2, 3), omega=(5, 5, 5))
        with pytest.raises(InstabilityError):
            levin(inp, 1, 0, PREC)
        with pytest.raises(InstabilityError):
            weniger_s(inp, 1, 0, PREC)


def fraction_cell(inp, k, n, method):
    """Exact (num, den, max |c_j|) of T_k^(n) over a rational window, from the
    binomial sums with the textbook weights (normalised by their j = k value)."""
    b = Fraction(inp.beta) + n
    num = den = scale = Fraction(0)
    for j in range(k + 1):
        w = Fraction(1)
        for i in range(k - 1):
            w *= (b + j) / (b + k) if method == "levin" else (b + j + i) / (b + k + i)
        c = (-1) ** j * comb(k, j) * w / Fraction(inp.omega[n + j])
        num += c * Fraction(inp.s[n + j])
        den += c
        scale = max(scale, abs(c))
    return num, den, scale


def mpf_formula_cell(inp, k, n, method):
    """T_k^(n) by the mpf formula with mp.rf / pow weights, at P + 10 digits."""
    with PREC.workdps(10):
        beta = mp.mpf(inp.beta)
        num = den = mp.mpf(0)
        for j in range(k + 1):
            if k <= 1:
                w = mp.mpf(1)
            elif method == "levin":
                w = ((beta + n + j) / (beta + n + k)) ** (k - 1)
            else:
                w = mp.rf(beta + n + j, k - 1) / mp.rf(beta + n + k, k - 1)
            w = (-1) ** j * comb(k, j) * w
            num += w * inp.s[n + j] / inp.omega[n + j]
            den += w / inp.omega[n + j]
        return num / den


TRANSFORMS = {"levin": levin, "weniger": weniger_s}
small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=30)
betas = st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=10)


@st.composite
def windows(draw, alternating):
    """(s, omega, beta, k, n); alternating omega gives c_j of one sign, so the
    denominator sum cannot cancel."""
    k, n = draw(st.integers(0, 8)), draw(st.integers(0, 2))
    size = n + k + 1
    s = draw(st.lists(small_fractions, min_size=size, max_size=size))
    omega = draw(st.lists(small_fractions.filter(bool), min_size=size, max_size=size))
    if alternating:
        omega = [(-1) ** i * abs(w) for i, w in enumerate(omega)]
    beta = draw(st.one_of(st.integers(1, 5), betas.filter(bool)))
    return s, omega, beta, k, n


class TestExactCells:
    @settings(max_examples=100, deadline=None)
    @given(windows(alternating=False), st.sampled_from(sorted(TRANSFORMS)))
    def test_rational_window_is_exact_then_rounded(self, window, method):
        s, omega, beta, k, n = window
        inp = TransformInput(tuple(s), tuple(omega), beta)
        num, den, scale = fraction_cell(inp, k, n, method)
        try:
            got = TRANSFORMS[method](inp, k, n, PREC)
        except InstabilityError:
            assert abs(den) <= scale / 10 ** (PREC.digits - 7)
            return
        exact = num / den
        with mp.workdps(PREC.digits + 40):
            want = mp.mpf(exact.numerator) / exact.denominator
        assert mp.nstr(got, PREC.digits) == mp.nstr(want, PREC.digits)

    @settings(max_examples=100, deadline=None)
    @given(windows(alternating=True), st.sampled_from(sorted(TRANSFORMS)))
    def test_mpf_window_matches_formula(self, window, method):
        s, omega, beta, k, n = window
        with PREC.workdps():
            inp = TransformInput(tuple(map(to_mpf, s)), tuple(map(to_mpf, omega)),
                                 to_mpf(Fraction(beta)))
            got = TRANSFORMS[method](inp, k, n, PREC)
            want = mpf_formula_cell(inp, k, n, method)
            bound = max(1, max(map(abs, inp.s))) * mp.mpf(10) ** (10 - PREC.digits)
            assert abs(got - want) <= bound

    @settings(max_examples=100, deadline=None)
    @given(windows(alternating=False), st.sampled_from(sorted(TRANSFORMS)),
           small_fractions.filter(bool), small_fractions)
    def test_affine_covariance(self, window, method, a, b):
        # s -> a s + b, omega -> a omega maps T to a T + b: every c_j is divided
        # by a, so |den| / max|c_j|, and with it the instability test, stays
        s, omega, beta, k, n = window
        inp = TransformInput(tuple(s), tuple(omega), beta)
        moved = TransformInput(tuple(a * x + b for x in s), tuple(a * w for w in omega), beta)
        num, den, scale = fraction_cell(inp, k, n, method)
        moved_num, moved_den, moved_scale = fraction_cell(moved, k, n, method)
        assert abs(moved_den) / moved_scale == abs(den) / scale
        transform = TRANSFORMS[method]
        try:
            got = transform(moved, k, n, PREC)
        except InstabilityError:
            with pytest.raises(InstabilityError):
                transform(inp, k, n, PREC)
            return
        transform(inp, k, n, PREC)  # stable on the moved window, so on this one
        want = a * num / den + b
        assert moved_num / moved_den == want
        with mp.workdps(PREC.digits + 40):
            want = mp.mpf(want.numerator) / want.denominator
            assert abs(got - want) <= PREC.tol(0) * abs(want)

    @pytest.mark.parametrize("z, size", [(Fraction(5), 60), (Fraction(1, 2), 60),
                                         (Fraction(163, 8), 30)])
    def test_mpf_terms_read_exactly(self, z, size):
        # E1's divergent terms (-1)^m m!/z^(m+1), rounded to mpf at P + 10
        # digits and summed outside that block, lose no digits to the
        # precision in force: the cells match those on the exact terms
        terms = [(-1) ** m * Fraction(factorial(m)) / z ** (m + 1) for m in range(size)]
        with PREC.workdps(10):
            mpf_terms = [to_mpf(t) for t in terms]
        exact = TransformInput.from_terms(terms)
        k = len(exact.s) - 1
        inp = TransformInput.from_terms(mpf_terms)
        got = [transform(inp, k, 0, PREC) for transform in TRANSFORMS.values()]
        for value, transform in zip(got, TRANSFORMS.values()):
            want = transform(exact, k, 0, PREC)
            assert abs(value - want) <= mp.mpf(10) ** -50 * abs(want)
        dps = mp.dps
        mp.dps = 200
        try:
            inp = TransformInput.from_terms(mpf_terms)
            again = [transform(inp, k, 0, PREC) for transform in TRANSFORMS.values()]
        finally:
            mp.dps = dps
        assert [v._mpf_ for v in again] == [v._mpf_ for v in got]

    @pytest.mark.parametrize("method", sorted(TRANSFORMS))
    def test_table_column_ends_in_the_single_cell(self, method):
        with PREC.workdps():
            mpf_terms = [mp.mpf((-1) ** m) / (m + 1) for m in range(14)]
        for inp in (ln2_input(14), TransformInput.from_terms(mpf_terms)):
            k = len(inp.s) - 1
            assert transform_table(inp, method, k, 0, PREC)[k] == \
                TRANSFORMS[method](inp, k, 0, PREC)


def fraction_loop_cell(inp, k, n, method, prec=PREC):
    """T_k^(n) of a rational window by the term-by-term loop the transforms used
    before they cleared the exact cell to integers: Fraction sums, the weights
    as functions of b = beta + n."""
    def power(b, k):
        return [(b + j) ** max(k - 1, 0) for j in range(k + 1)]

    def pochhammer(b, k):
        m = max(k - 1, 0)
        out = [prod((b + i for i in range(m)), start=1)]
        for j in range(k):
            out.append(out[-1] * (b + j + m) / (b + j))
        return out

    with prec.workdps(10):
        beta, *rest = map(Fraction, (inp.beta, *inp.s[n : n + k + 1], *inp.omega[n : n + k + 1]))
        s, omega = rest[: k + 1], rest[k + 1 :]
        num = den = scale = 0
        for j, w in enumerate((power if method == "levin" else pochhammer)(beta + n, k)):
            if omega[j] == 0:
                raise EstimateError(f"omega[{n + j}] is zero")
            c = (-1) ** j * comb(k, j) * w / omega[j]
            num += c * s[j]
            den += c
            scale = max(scale, abs(c))
        num, den, scale = to_mpf(num), to_mpf(den), to_mpf(scale)
        if abs(den) < prec.tol(6) * scale:
            raise InstabilityError(
                f"denominator vanished at (k={k}, n={n}): |den|={abs(den)}"
            )
        return num / den


@st.composite
def hard_windows(draw):
    """(inp, k, n): beta with a denominator > 1, and omega either free, nearly
    constant (the binomial sum of the weights over a constant omega is 0, so
    the denominator nearly cancels: by 10^-e relative, e up to 80, across the
    instability threshold), or holding zeros."""
    k, n = draw(st.integers(0, 8)), draw(st.integers(0, 2))
    size = n + k + 1
    beta = draw(st.fractions(min_value=Fraction(1, 40), max_value=20, max_denominator=40)
                .filter(lambda b: b.denominator > 1))
    s = draw(st.lists(small_fractions, min_size=size, max_size=size))
    shape = draw(st.sampled_from(["free", "near_constant", "zero"]))
    omega = draw(st.lists(small_fractions.filter(bool), min_size=size, max_size=size))
    if shape == "near_constant":
        e = draw(st.integers(0, 80))
        wiggle = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        omega = [omega[0] * (1 + Fraction(d, 10**e)) for d in wiggle]
    elif shape == "zero":
        zeros = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3))
        omega = [0 if i in zeros else w for i, w in enumerate(omega)]
    return TransformInput(tuple(s), tuple(omega), beta), k, n


def outcome(fn, *args):
    """The value's _mpf_, or the exception's class and message."""
    try:
        return fn(*args)._mpf_
    except (EstimateError, InstabilityError) as exc:
        return type(exc), str(exc)


class TestClearedCells:
    """The integer cell rounds to the very bits of the Fraction loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(hard_windows(), st.sampled_from(sorted(TRANSFORMS)))
    def test_bit_identical_to_fraction_loop(self, case, method):
        inp, k, n = case
        assert outcome(TRANSFORMS[method], inp, k, n, PREC) == \
            outcome(fraction_loop_cell, inp, k, n, method)

    @settings(max_examples=100, deadline=None)
    @given(hard_windows(), st.sampled_from(sorted(TRANSFORMS)))
    def test_mpf_window_unchanged(self, case, method):
        # an mpf window is read as the dyadic rationals it holds, exactly
        inp, k, n = case
        with PREC.workdps(10):
            inp = TransformInput(tuple(map(to_mpf, inp.s)), tuple(map(to_mpf, inp.omega)),
                                 to_mpf(inp.beta))
        read = TransformInput(tuple(map(_rational, inp.s)), tuple(map(_rational, inp.omega)),
                              _rational(inp.beta))
        assert outcome(TRANSFORMS[method], inp, k, n, PREC) == \
            outcome(fraction_loop_cell, read, k, n, method)

    @pytest.mark.parametrize("delta, unstable", [(Fraction(9, 10**59), True),
                                                 (Fraction(11, 10**59), False)])
    def test_instability_threshold_against_largest_abs_c(self, delta, unstable):
        # Levin, k = 2, beta = 1: c = (1, -4/(1+delta), 3) and |den|/max|c_j| = delta,
        # on either side of 10^(6-64); the largest |c_j| is that of a negative c_j
        inp = TransformInput((1, 2, 4), (1, 1 + delta, 1), 1)
        got = outcome(levin, inp, 2, 0, PREC)
        assert got == outcome(fraction_loop_cell, inp, 2, 0, "levin")
        assert (got[0] is InstabilityError) == unstable

    @pytest.mark.parametrize("beta", [Fraction(10) ** 400, Fraction(1, 10**400)])
    def test_extreme_beta(self, beta):
        # beta is compared exactly: float(beta) overflows, resp. reads 0
        terms = [Fraction((-1) ** m, m + 1) for m in range(8)]
        inp = TransformInput.from_terms(terms, "scaled_term", beta)
        for method, fn in TRANSFORMS.items():
            assert outcome(fn, inp, 6, 0, PREC) == outcome(fraction_loop_cell, inp, 6, 0, method)


class TestTable:
    def test_column(self):
        inp = ln2_input()
        table = transform_table(inp, "levin", 6, 0, PREC)
        assert sorted(table) == list(range(7))
        assert table[0] == inp.s[0]

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            transform_table(ln2_input(), "shanks", 3)

    @pytest.mark.parametrize("method", ["levin", "weniger"])
    def test_negative_k_max_is_domain_error(self, method):
        # as levin and weniger_s refuse k < 0, not an empty column
        with pytest.raises(DomainError, match="k_max"):
            transform_table(ln2_input(), method, -1)


def e1_input(z, n_terms):
    """E1's asymptotic terms (-1)^m m!/z^(m+1) at a rational z, as e1 --compare forms them."""
    return TransformInput.from_terms(
        [Fraction((-1) ** m * factorial(m)) / z ** (m + 1) for m in range(n_terms)])


CELLS = [(0, 0), (1, 0), (4, 0), (6, 3), (9, 2), (12, 0), (5, 7)]


class TestWindowCache:
    """A window (k, n) is cleared once per input; Levin and Weniger share it."""

    @pytest.mark.parametrize("first", ["levin", "weniger"])
    @pytest.mark.parametrize("make", [ln2_input, lambda n: e1_input(Fraction(7, 3), n)])
    def test_shared_window_gives_fresh_values(self, first, make):
        shared = make(14)
        order = [first, *(m for m in TRANSFORMS if m != first)]
        for k, n in CELLS:
            for method in order:
                got = TRANSFORMS[method](shared, k, n, PREC)
                assert got._mpf_ == TRANSFORMS[method](make(14), k, n, PREC)._mpf_
        assert sorted(shared._windows) == sorted(CELLS)
        for method in TRANSFORMS:  # a column reuses the windows of the cells above
            column = transform_table(shared, method, 12, 0, PREC)
            fresh = transform_table(make(14), method, 12, 0, PREC)
            assert [v._mpf_ for v in column.values()] == [v._mpf_ for v in fresh.values()]
            assert column[4]._mpf_ == TRANSFORMS[method](make(14), 4, 0, PREC)._mpf_

    def test_window_is_independent_of_precision(self):
        # the window holds exact integers: a cell at 30 digits, then at 64, is the fresh one
        inp = e1_input(Fraction(163, 8), 30)
        for digits in (30, 64, 100):
            prec = PrecisionContext(digits)
            for fn in TRANSFORMS.values():
                assert fn(inp, 25, 0, prec)._mpf_ == fn(e1_input(Fraction(163, 8), 30), 25, 0, prec)._mpf_

    def test_zero_omega_inside_the_window_raises(self):
        inp = TransformInput(s=(1, 3, 2, 5, 4, 7, 6, 9), omega=(1, -2, 3, -5, 0, 8, -13, 21))
        for fn in TRANSFORMS.values():
            for k, n in [(4, 0), (2, 3), (0, 4), (7, 0)]:
                for _ in range(2):  # a window that raises is not kept
                    with pytest.raises(EstimateError, match=r"omega\[4\] is zero"):
                        fn(inp, k, n, PREC)
            for k, n in [(3, 0), (2, 5), (0, 7), (1, 2)]:
                assert mp.isfinite(fn(inp, k, n, PREC))
        assert sorted(inp._windows) == [(0, 7), (1, 2), (2, 5), (3, 0)]
