"""Quadrature contracts: finite rule, semi-infinite transform, oscillatory
Bessel integrals, and the acceleration utilities."""

import math

import mpmath as mp
import pytest

from sphrestrict.errors import DivergenceError, DomainError
from sphrestrict.quadrature import (
    OscillatoryIntegrand,
    _mapped,
    integrate_finite,
    integrate_oscillatory_bessel,
    integrate_semi_infinite_decaying,
    sum_over_partition,
    wynn_epsilon,
)
from sphrestrict.special_fns import BesselOrder, bessel_j_zero

from oracles import KERNEL_INTEGRALS


class TestFinite:
    def test_polynomial(self):
        res = integrate_finite(lambda x: x * x, 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, abs=5e-16)

    def test_polynomial_degree_eight_machine_exact(self):
        res = integrate_finite(lambda x: x**8, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 9.0, abs=5e-16)

    def test_sine(self):
        res = integrate_finite(math.sin, 0.0, math.pi)
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_endpoint_singularity(self):
        res = integrate_finite(lambda x: x**-0.5, 0.0, 1.0, 1e-10, 1e-14)
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-9)
        assert abs(res.value - 2.0) <= res.error_estimate

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            integrate_finite(math.sin, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate_finite(math.sin, 0.0, 1.0, tol=-1.0)

    def test_reports_nonconvergence(self):
        res = integrate_finite(lambda x: x**-0.5, 0.0, 1.0, 1e-13, 1e-16,
                               max_intervals=4)
        assert not res.converged
        assert res.value == pytest.approx(2.0, rel=1e-2)

    def test_additivity(self):
        f = math.cos
        whole = integrate_finite(f, 0.0, 2.3)
        left = integrate_finite(f, 0.0, 0.9)
        right = integrate_finite(f, 0.9, 2.3)
        tol = whole.error_estimate + left.error_estimate + right.error_estimate
        assert abs(left.value + right.value - whole.value) <= tol + 1e-15

    def test_positivity(self):
        res = integrate_finite(lambda x: math.exp(-x) * x**2, 0.0, 4.0)
        assert res.value >= 0.0

    @pytest.mark.parametrize(
        "f,a,b,expected",
        [
            (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
            (math.sin, 0.0, math.pi, 2.0),
            (lambda x: x**-0.5, 0.0, 1.0, 2.0),
        ],
    )
    def test_refinement_consistency(self, f, a, b, expected):
        # Tightening the tolerance moves the value by less than the first
        # run's reported error estimate.
        loose = integrate_finite(f, a, b, 1e-7, 1e-12)
        tight = integrate_finite(f, a, b, 1e-12, 1e-15)
        assert abs(loose.value - tight.value) <= max(loose.error_estimate, 1e-15)
        assert abs(tight.value - expected) <= max(tight.error_estimate, 1e-14)


class TestSemiInfinite:
    def test_half_gaussian(self):
        res = integrate_semi_infinite_decaying(lambda r: math.exp(-0.5 * r * r))
        assert res.converged
        assert res.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-9)

    def test_gaussian_second_moment(self):
        res = integrate_semi_infinite_decaying(
            lambda r: r * r * math.exp(-0.5 * r * r)
        )
        assert res.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-9)

    def test_gamma_four(self):
        res = integrate_semi_infinite_decaying(lambda r: r**3 * math.exp(-r))
        assert res.value == pytest.approx(6.0, rel=1e-9)

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            integrate_semi_infinite_decaying(lambda r: 1.0 / (1.0 + r))

    def test_refinement_consistency(self):
        loose = integrate_semi_infinite_decaying(
            lambda r: math.exp(-0.5 * r * r), 1e-7
        )
        tight = integrate_semi_infinite_decaying(
            lambda r: math.exp(-0.5 * r * r), 1e-12
        )
        assert abs(loose.value - tight.value) <= max(loose.error_estimate, 1e-15)


class TestWynnEpsilon:
    def test_alternating_harmonic(self):
        partial = []
        total = 0.0
        for k in range(1, 31):
            total += (-1.0) ** (k + 1) / k
            partial.append(total)
        est, err = wynn_epsilon(partial)
        assert est == pytest.approx(math.log(2.0), abs=1e-12)

    def test_geometric(self):
        partial = [sum(0.5**j for j in range(1, n + 1)) for n in range(1, 12)]
        est, _ = wynn_epsilon(partial)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            wynn_epsilon([])


class TestOscillatoryBessel:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_signed_bessel_integral_is_one(self, nu):
        spec = OscillatoryIntegrand(BesselOrder(nu), 0.0, 1.0, signed=True)
        res = integrate_oscillatory_bessel(spec, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("key", sorted(KERNEL_INTEGRALS))
    def test_kernel_integrals_against_frozen_references(self, key):
        d, p = key
        expected, unc = KERNEL_INTEGRALS[key]
        nu = (d - 2) / 2.0
        p_prime = p / (p - 1.0)
        beta = (2.0 + d * (p - 2.0)) / (2.0 * (p - 1.0))
        spec = OscillatoryIntegrand(BesselOrder(nu), beta, p_prime)
        res = integrate_oscillatory_bessel(spec, 1e-10)
        assert res.converged
        assert abs(res.value - expected) <= max(
            2.0 * res.error_estimate + unc, 1e-9 * expected
        )

    def test_d3_elementary_reduction(self):
        # nu = 1/2, p' = 6, beta = -1 reduces to (8/pi^3) sin^6(r)/r^4; the
        # oracle integrates the elementary form on [0, X] and bounds the
        # tail by (8/pi^3) * (10/32) / (3 X^3) from the cosine expansion
        # of sin^6.  The exact value is 1/pi^2.
        big_x = 400.0 * math.pi
        finite = integrate_finite(
            lambda r: math.sin(r) ** 6 / r**4 if r > 0 else 0.0,
            0.0,
            big_x,
            1e-12,
            1e-15,
            max_intervals=200000,
        )
        pref = 8.0 / math.pi**3
        tail_bound = pref * (10.0 / 32.0) / (3.0 * big_x**3)
        elementary = pref * finite.value
        spec = OscillatoryIntegrand(BesselOrder(0.5), -1.0, 6.0)
        res = integrate_oscillatory_bessel(spec, 1e-10)
        assert abs(res.value - elementary) <= 2.0 * tail_bound + 1e-10
        assert res.value == pytest.approx(1.0 / math.pi**2, rel=1e-11)

    def test_monotone_partial_sums_not_overshot(self):
        # Even integer power: arch contributions are nonnegative, so the
        # accelerated limit must dominate every partial sum and stay below
        # partial + a crude envelope tail bound.
        nu = 0.0
        spec = OscillatoryIntegrand(BesselOrder(nu), 1.0, 6.0)
        res = integrate_oscillatory_bessel(spec, 1e-9)
        total = 0.0

        def integrand(r):
            from sphrestrict.special_fns import bessel_j

            return r * abs(bessel_j(nu, r)) ** 6 if r > 0 else 0.0

        prev = 0.0
        partials = []
        for k in range(1, 41):
            z = bessel_j_zero(nu, k)
            total += integrate_finite(integrand, prev, z, 1e-11, 1e-16).value
            partials.append(total)
            prev = z
        assert res.value >= max(partials) - 1e-9 * res.value
        # envelope bound: integrand <= (2/pi)^3 r^(-2) (1 + eps) past X
        tail_cap = (2.0 / math.pi) ** 3 * 1.1 / prev
        assert res.value <= partials[-1] + tail_cap

    @pytest.mark.parametrize(
        "nu, beta, power",
        [
            (0.0, 1.0, 6.000000000000001),
            (0.5, -8.49999999999999, 20.999999999999982),
            (0.5, 0.49999799999600014, 3.0000040000079995),
            (6.0, -192.99999999999983, 34.33333333333331),
        ],
        ids=["d2_p1.2", "d3_p1.05", "d3_p1.499999", "d14_p1.03"],
    )
    def test_tail_coefficient_against_mpmath(self, nu, beta, power):
        # c0 = (2/pi)^(a/2) M(a) / (gamma - 1) at the (beta, p') of four
        # (d, p), M(a) the mean of |cos|^a over a period, here by quadrature,
        # and gamma - 1 from the exact doubles.
        # At p = 1.499999 gamma - 1 = 4e-6, and forming it as
        # tail_exponent - 1.0 would cost ~1e-10 relative.
        spec = OscillatoryIntegrand(BesselOrder(nu), beta, power)
        with mp.workdps(40):
            a = mp.mpf(power)
            mean = mp.quad(lambda u: abs(mp.cos(u)) ** a, [0, mp.pi / 2, mp.pi]) / mp.pi
            gamma_less_one = a / 2 - mp.mpf(beta) - 1
            c0 = (2 / mp.pi) ** (a / 2) * mean / gamma_less_one
            assert abs(spec.tail_coefficient - c0) <= 1e-14 * c0

    def test_divergent_exponent_rejected(self):
        # gamma = p'/2 - beta must exceed 1 for absolute convergence.
        spec = OscillatoryIntegrand(BesselOrder(0.0), 2.0, 5.0)
        with pytest.raises(DivergenceError, match="tail exponent"):
            integrate_oscillatory_bessel(spec)

    def test_local_integrability_rejected(self):
        spec = OscillatoryIntegrand(BesselOrder(0.0), -1.5, 1.0, signed=True)
        with pytest.raises(DivergenceError, match="locally integrable"):
            integrate_oscillatory_bessel(spec)

    def test_signed_requires_integer_power(self):
        with pytest.raises(DomainError):
            OscillatoryIntegrand(BesselOrder(0.0), 0.0, 1.5, signed=True)

    def test_power_below_one_rejected(self):
        with pytest.raises(DomainError):
            OscillatoryIntegrand(BesselOrder(0.0), 0.0, 0.5)


class TestSumOverPartition:
    def test_alternating_auto_detection(self):
        # int_0^inf sin(r)/r dr = pi/2 over arches of sin.
        def f(r):
            return math.sin(r) / r if r > 0 else 1.0

        res = sum_over_partition(_mapped(f), lambda k: k * math.pi, 1e-10, tail_exponent=1.0)
        assert res.converged
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-9)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_tolerance_outside_zero_to_inf_rejected(self, tol):
        # A NaN is met by no error estimate and inf by every one; the
        # per-cell tolerance, tol / 100 clamped to [100 eps, 1e-12], would
        # hide both.
        def f(r):
            return math.sin(r) / r if r > 0 else 1.0

        with pytest.raises(DomainError, match="0 < tol < inf"):
            sum_over_partition(_mapped(f), lambda k: k * math.pi, tol, tail_exponent=1.0)
        with pytest.raises(DomainError, match="0 < tol < inf"):
            integrate_finite(math.sin, 0.0, 1.0, tol=tol)
        spec = OscillatoryIntegrand(BesselOrder(0.5), 0.0, 3.0)
        with pytest.raises(DomainError, match="0 < tol < inf"):
            integrate_oscillatory_bessel(spec, tol)

    def test_tight_tolerance_stays_above_the_round_off_floor(self):
        # At 1e-12 the cells' tol / 100 lies under GK15's 50 eps round-off
        # floor; at that tolerance the cells would refine to their panel
        # limit and still not converge (2,399,700 evaluations).  Clamped at
        # 100 eps, each converges, and the sum takes 300.
        def f(r):
            return math.sin(r) / r if r > 0 else 1.0

        res = sum_over_partition(_mapped(f), lambda k: k * math.pi, 1e-12, tail_exponent=1.0)
        assert res.converged and res.evaluations <= 1_000
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_positive_with_tail_exponent(self):
        # int_0^inf sin^2(r)/r^2 dr = pi/2; cells decay like r^(-2).
        def f(r):
            s = math.sin(r)
            return s * s / (r * r) if r > 0 else 1.0

        res = sum_over_partition(_mapped(f), lambda k: k * math.pi, 1e-8, tail_exponent=2.0)
        assert res.value == pytest.approx(math.pi / 2.0, rel=1e-6)
