"""Quadrature and the three summation back-ends."""

import gc
import itertools
import warnings
import weakref
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from facseries import applications, evaluate
from facseries.applications import (
    e1_factorial_coeffs,
    e1_reference,
    oscillator_coeffs,
    oscillator_energy,
)
from facseries.errors import DomainError, IntegrationError, PoleError, PoleInDomainError
from facseries.evaluate import (
    QuadratureConvergenceWarning,
    _check_poles_in_unit_interval,
    _euler_integral,
    _weighted_gl,
    _fixed_point,
    _fixed_point_phi,
    _horner_fixed,
    _gauss_legendre_nodes,
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
    factorial_term,
    to_mpf,
)
from facseries.pade import PadeApprox, pade_construct
from facseries.transforms import power_to_factorial_coeffs

PREC = PrecisionContext(64)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.points_per_panel * spec.panels >= 16

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(points_per_panel=4)
        with pytest.raises(DomainError):
            QuadratureSpec(panels=0)


class TestQuadrature01:
    def test_polynomial(self):
        with PREC.workdps():
            v = quadrature_01(lambda t: 5 * t**4, QuadratureSpec(), PREC)
            assert abs(v - 1) < PREC.tol(10)

    def test_smooth_transcendental(self):
        with PREC.workdps():
            v = quadrature_01(lambda t: mp.sin(t), QuadratureSpec(), PREC)
            assert abs(v - (1 - mp.cos(1))) < PREC.tol(10)

    def test_warning_on_rough_integrand(self):
        # |t - 1/3| has a kink no Gauss rule resolves to 32 digits
        with pytest.warns(QuadratureConvergenceWarning):
            quadrature_01(
                lambda t: abs(t - mp.mpf(1) / 3) ** mp.mpf("1.5"),
                QuadratureSpec(points_per_panel=8, panels=2),
                PREC,
            )


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


class TestEulerIntegral:
    def test_truncated_geometric_conjugate(self):
        # phi(u) = sum u^n rebuilt as [1/1] = 1/(1-u): integrand t^(z-2),
        # whose integral is 1/(z-1); the endpoint pole at u=1 must be tolerated
        a = [Fraction(1)] * 3
        v = euler_integral_eval(a, 3, 1, 1, QuadratureSpec(), PREC)
        with PREC.workdps():
            assert abs(v - mp.mpf("0.5")) < PREC.tol(10)

    def test_interior_pole_rejected(self):
        # phi(u) = 1/(1 - 2u) has a pole at u = 1/2
        a = [Fraction(2**n) for n in range(3)]
        with pytest.raises(PoleInDomainError):
            euler_integral_eval(a, 3, 1, 1, QuadratureSpec(), PREC)

    def test_e1_series_matches_reference(self):
        d = e1_factorial_coeffs(21)
        a = [dn / factorial(n) for n, dn in enumerate(d)]
        with warnings.catch_warnings():
            # the panel-doubling check sits right at the guard-digit floor here
            warnings.simplefilter("ignore", QuadratureConvergenceWarning)
            v = euler_integral_eval(a, 5, 10, 11, QuadratureSpec(), PREC)
        with PREC.workdps():
            ref = mp.e**5 * e1_reference(5, PREC)
            assert abs(v - ref) / ref < mp.mpf(10) ** -10

    def test_panel_check_is_relative_below_one(self):
        # the integral is about 0.17; scaled by 2^-200 its estimate moves by the
        # same relative amount, so both must warn
        d = e1_factorial_coeffs(21)
        a = [dn / factorial(n) for n, dn in enumerate(d)]
        for coeffs in (a, [c / 2**200 for c in a]):
            with pytest.warns(QuadratureConvergenceWarning):
                euler_integral_eval(coeffs, 5, 10, 11, QuadratureSpec(), PREC)

    def test_singularity_split_small_z(self):
        # phi = 1: integral of t^(z-1) is 1/z, singular at t=0 for z < 1
        v = euler_integral_eval([Fraction(1)], Fraction(1, 2), 0, 0,
                                QuadratureSpec(), PREC)
        with PREC.workdps():
            assert abs(v - 2) < PREC.tol(20)

    def test_z_positive_required(self):
        with pytest.raises(DomainError):
            euler_integral_eval([Fraction(1)], -1, 0, 0, QuadratureSpec(), PREC)


def reference_composite_gl(f, lo, hi, points, panels):
    """The composite rule with no node table: f at every node, summed in mpf."""
    nodes, weights = _gauss_legendre_nodes(points)
    total = mp.mpf(0)
    width = (hi - lo) / panels
    for p in range(panels):
        a = lo + p * width
        half = width / 2
        mid = a + half
        for x, w in zip(nodes, weights):
            total += w * f(mid + half * x)
    return total * width / 2


def reference_euler_integral(approx, z, spec, prec):
    """int_0^1 t^(z-1) phi(1-t) dt as the untabled rule forms it: t ** (z-1) *
    phi(1-t) at every node, the [0, 1/16] piece substituted for z < 1, at the
    doubled panel count whose value the program returns."""
    with prec.workdps(10):
        zv = to_mpf(z)
        phi = _fixed_point_phi(approx)

        def integrand(t):
            return t ** (zv - 1) * phi(1 - t)

        pieces = [(integrand, mp.mpf(0), mp.mpf(1))]
        if zv < 1:
            eps = mp.mpf(1) / 16
            pieces = [(lambda u: phi(1 - u ** (1 / zv)) / zv, mp.mpf(0), eps**zv),
                      (integrand, eps, mp.mpf(1))]
        return sum(reference_composite_gl(f, lo, hi, spec.points_per_panel, 2 * spec.panels)
                   for f, lo, hi in pieces)


def oscillator_conjugate(order):
    """The order's Pade conjugate function, as oscillator_energy builds it."""
    shift = oscillator_coeffs(order + 1).shift_coeffs(order)
    lam = power_to_factorial_coeffs(FormalSeries(SeriesKind.POWER, shift), order)
    reduced = [l / factorial(m) for m, l in enumerate(lam)]
    return pade_construct(reduced, order // 2, order - order // 2)


@pytest.mark.filterwarnings("ignore::facseries.evaluate.QuadratureConvergenceWarning")
class TestNodeTables:
    # z = 1/beta: integer (20, 5), half-integer (1/2, 5/2), generic (7/3, 1/4),
    # each on mpf_pow's own branch, on both sides of z = 1
    BETAS = [Fraction(1, 20), Fraction(1, 5), Fraction(2), Fraction(2, 5),
             Fraction(3, 7), Fraction(4)]

    def test_tabled_integral_is_the_untabled_rule(self):
        approx = oscillator_conjugate(12)
        cases = [(beta, prec, spec) for spec in (QuadratureSpec(), QuadratureSpec(12, 3))
                 for prec in (PrecisionContext(30), PrecisionContext(64)) for beta in self.BETAS]
        expected = {case: reference_euler_integral(approx, 1 / case[0], case[2], case[1])._mpf_
                    for case in cases}
        assert approx._node_tables == {}
        for _ in ("cold", "warm"):
            for beta, prec, spec in cases:
                got = _euler_integral(approx, 1 / beta, spec, prec)
                assert got._mpf_ == expected[beta, prec, spec], (beta, prec, spec)
        # [0, 1] and [1/16, 1] at two panel counts, two specs, two precisions
        assert len([k for k in approx._node_tables if k[-1] != "log"]) == 16

    def test_each_node_value_is_the_untabled_one(self, monkeypatch):
        # the sums above can absorb a one-ulp change of a single term; this cannot
        monkeypatch.setattr(evaluate, "_gl_sum", lambda rows, *bounds: list(rows))
        approx = oscillator_conjugate(12)
        for prec in (PrecisionContext(30), PrecisionContext(64)):
            with prec.workdps(10):
                phi = _fixed_point_phi(approx)
                for beta, lo in itertools.product(self.BETAS, (mp.mpf(0), mp.mpf(1) / 16)):
                    zv = to_mpf(1 / beta)
                    rows = _weighted_gl(approx, zv, lo, mp.mpf(1), 32, 8)
                    ts = [mp.make_mpf(t) for _, t, _ in rows]
                    expected = [(t ** (zv - 1) * phi(1 - t))._mpf_ for t in ts]
                    assert [f for _, _, f in rows] == expected, beta

    def test_integral_energy_is_the_untabled_rule(self, monkeypatch):
        monkeypatch.setattr(applications, "_approx", {})
        approx, spec = oscillator_conjugate(12), QuadratureSpec()
        for _ in ("cold", "warm"):
            for beta in self.BETAS:
                with PREC.workdps(10):
                    w = 1 / to_mpf(beta)
                omega = reference_euler_integral(approx, w, spec, PREC)
                with PREC.workdps():
                    expected = 1 + to_mpf(beta) * (omega / to_mpf(beta))
                assert oscillator_energy(beta, 12, "integral", PREC)._mpf_ == expected._mpf_

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

    @pytest.mark.parametrize("z, bad_u, t_range, kept", [
        (Fraction(5, 2), lambda u: u < 0.5, (0.5, 1), 0),  # the [0, 1] table
        (Fraction(1, 3), lambda u: u < 0.5, (0.5, 1), 0),  # the [1/16, 1] table
        # the left piece, whose phi(1 - u^3) reads above 15/16 at u < (1/16)^(1/3),
        # after the [1/16, 1] table at 8 panels and its logs are built, and kept
        (Fraction(1, 3), lambda u: u > 0.9375, (0, 0.397), 2),
    ])
    def test_non_finite_phi_raises_and_is_not_kept(self, monkeypatch, z, bad_u, t_range, kept):
        def nan_at_one_node(p):
            phi, hit = _fixed_point_phi(p), []

            def bad(u):
                if bad_u(u) and not hit:
                    hit.append(u)
                    return mp.nan
                return phi(u)

            return bad

        approx = pade_construct([Fraction(1, n + 1) for n in range(5)], 2, 2)
        monkeypatch.setattr(evaluate, "_fixed_point_phi", nan_at_one_node)
        for _ in range(2):
            with pytest.raises(IntegrationError, match="non-finite integrand value") as info:
                _euler_integral(approx, z, QuadratureSpec(), PREC)
            assert t_range[0] < float(str(info.value).split("t=")[1]) < t_range[1]
            assert len(approx._node_tables) == kept
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


class TestFixedPointPhi:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(RATIONALS, min_size=1, max_size=21),
        st.lists(RATIONALS, max_size=20),
        st.sampled_from([0, -200, 200]),
        st.sampled_from([15, 40, 74]),
        st.data(),
    )
    def test_within_documented_bound(self, num, den_tail, scale, dps, data):
        num = [c * Fraction(2) ** scale for c in num]
        p = PadeApprox(num=tuple(num), den=(Fraction(1),) + tuple(den_tail))
        guard = (p.L + p.M + 2).bit_length() + 4
        with mp.workdps(dps):
            s = data.draw(st.integers(0, mp.prec), label="s")
            m = data.draw(st.integers(0, 2**s), label="m")
            u = Fraction(m, 2**s)
            fixed = []
            for coeffs, (w, fixed_coeffs) in zip((p.num, p.den), _fixed_point(p)):
                big = max(abs(c) for c in coeffs)
                if big:  # 2^-w is max|c| 2^-(prec+guard) to within a factor of 4
                    assert 1 < big * Fraction(2) ** (w - mp.prec - guard) < 4
                exact = sum(c * u**k for k, c in enumerate(coeffs)) * Fraction(2) ** w
                acc = _horner_fixed(fixed_coeffs, m, s)
                assert abs(acc - exact) <= len(coeffs)  # (deg+1) units of 2^-w
                fixed.append(acc * Fraction(2) ** -w)
            if fixed[1] == 0:
                return
            got = _fixed_point_phi(p)(mp.ldexp(m, -s))
            _, man, exp, bc = got._mpf_
            # the quotient is rounded once, to nearest
            half_ulp = Fraction(2) ** (exp + bc - mp.prec - 1) if man else 0
            assert abs(mpf_fraction(got) - fixed[0] / fixed[1]) <= half_ulp

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(RATIONALS, min_size=1, max_size=21),
        st.lists(st.builds(Fraction, st.integers(0, 10**9), st.integers(1, 10**9)), max_size=20),
        st.integers(0, 2**74),
    )
    def test_tiny_numerator_keeps_relative_accuracy(self, num, den_tail, m):
        # a numerator scaled by 2^-200 scales phi exactly, and phi's relative
        # error stays within the documented per-polynomial bound (den >= 1 here)
        p = PadeApprox(num=tuple(num), den=(Fraction(1),) + tuple(den_tail))
        tiny = PadeApprox(num=tuple(c / 2**200 for c in num), den=p.den)
        with PREC.workdps(10):
            u = mp.ldexp(m, -74)
            value = _fixed_point_phi(tiny)(u)
            assert value == mp.ldexp(_fixed_point_phi(p)(u), -200)
            at_u = [sum(c * mpf_fraction(u) ** k for k, c in enumerate(cs)) for cs in (tiny.num, tiny.den)]
            if at_u[0] == 0:
                return
            # each polynomial within (deg+1) 2^-w < 2^-(prec+4) max|c|, then one rounding
            rnd = Fraction(2) ** -mp.prec
            eps_n, eps_d = (rnd / 16 * max(abs(c) for c in cs) / abs(v)
                            for cs, v in zip((tiny.num, tiny.den), at_u))
            quotient = (eps_n + eps_d) / (1 - eps_d)
            bound = quotient + rnd + quotient * rnd
            assert abs(mpf_fraction(value) / (at_u[0] / at_u[1]) - 1) <= bound

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
            nodes, weights = _gauss_legendre_nodes(n)
            ref_nodes, ref_weights = newton_gauss_legendre_reference(n)
            assert len(nodes) == len(weights) == n
            assert nodes == sorted(nodes, reverse=True)
            assert nodes[: n // 2] == [-x for x in reversed(nodes[-(n // 2):])]
            for x, w, rx, rw in zip(nodes, weights, ref_nodes, ref_weights):
                if abs(rx) < mp.eps:
                    # the middle root of an odd P_n is 0; the reference lands within rounding
                    assert x == 0 and w == rw
                    continue
                assert abs(x - rx) <= mp.ldexp(1, mp.mag(rx) - mp.prec)  # 1 ulp
                if x == rx:
                    assert w == rw
                # w = 2/((1-x^2) P_n'(x)^2) moves by 2|x|/(1-x^2) of itself per unit
                # of x, i.e. at most 8x^2/(1-x^2) of its own units for a 1-ulp node
                # change, plus n units for the rounding of the recurrence
                ulps = 8 * rx * rx / (1 - rx * rx) + n
                assert abs(w - rw) <= ulps * mp.ldexp(1, mp.mag(rw) - mp.prec)
