"""Random-profile harnesses and the independent oracle integrator."""

import math

import pytest

from sphrestrict.errors import DivergenceError, DomainError
from sphrestrict.quadrature import (
    integrate_finite,
    integrate_oscillatory_bessel,
    power_envelope_integrand,
)
from sphrestrict.restriction import (
    RestrictionParams,
    extremal_profile,
    gaussian_lower_bound,
    ratio_z,
    sharp_radial_constant,
)
from sphrestrict.radial_fourier import GaussianDecay, RadialProfile
from sphrestrict.special_fns import BesselOrder
from sphrestrict.verify import (
    RandomRadialSpec,
    generate_profiles,
    oracle_integrate,
    run_dominance_suite,
)


class TestGenerateProfiles:
    @pytest.mark.parametrize("family", ["gaussian_mixture", "polynomial_times_gaussian", "compact_bump"])
    def test_determinism(self, family):
        spec = RandomRadialSpec(seed=1234, family=family, count=8)
        first = [p.label for p in generate_profiles(spec)]
        second = [p.label for p in generate_profiles(spec)]
        assert first == second

    def test_distinct_seeds_differ(self):
        a = generate_profiles(RandomRadialSpec(seed=1, family="gaussian_mixture", count=3))
        b = generate_profiles(RandomRadialSpec(seed=2, family="gaussian_mixture", count=3))
        assert [p.label for p in a] != [p.label for p in b]

    def test_count_zero(self):
        spec = RandomRadialSpec(seed=5, family="compact_bump", count=0)
        assert generate_profiles(spec) == []

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            RandomRadialSpec(seed=1, family="sine_waves", count=1)

    def test_profiles_evaluate_and_decay(self):
        for family in ("gaussian_mixture", "polynomial_times_gaussian", "compact_bump"):
            for prof in generate_profiles(RandomRadialSpec(3, family, 5)):
                assert math.isfinite(prof.f(0.5))
                assert abs(prof.f(60.0)) < 1e-6

    def test_single_component_mixture_matches_gaussian_bound(self):
        # Hunt a seed whose first mixture has one component: its ratio is
        # then the closed-form Gaussian bound (scaling invariance).
        import re

        params = RestrictionParams(3, 1.2, 2.0)
        for seed in range(60):
            prof = generate_profiles(
                RandomRadialSpec(seed, "gaussian_mixture", 1)
            )[0]
            match = re.search(r"sigma=\[([0-9.eE+-]+)\]$", prof.label)
            if match is None:
                continue  # more than one component
            sigma = float(match.group(1))
            got = ratio_z(params, prof, 1e-10)
            assert got == pytest.approx(
                gaussian_lower_bound(params, sigma), rel=1e-8
            )
            return
        pytest.fail("no single-component mixture found in 60 seeds")


class TestOracleIntegrate:
    def test_polynomial_agreement(self):
        oracle = oracle_integrate(lambda x: x * x, (0.0, 1.0), 1e-9)
        production = integrate_finite(lambda x: x * x, 0.0, 1.0)
        assert abs(oracle.value - production.value) <= 1e-13

    def test_bessel_unit_integral(self):
        spec = power_envelope_integrand(BesselOrder(0.0), 0.0, 1.0, signed=True)
        oracle = oracle_integrate(spec, (0.0, math.inf), 1e-8)
        assert abs(oracle.value - 1.0) <= 1e-10

    def test_kernel_integral_via_independent_partition(self):
        spec = power_envelope_integrand(BesselOrder(0.5), -1.0, 6.0)
        oracle = oracle_integrate(spec, (0.0, math.inf), 1e-7)
        production = integrate_oscillatory_bessel(spec, 1e-10)
        assert abs(oracle.value - production.value) <= 1e-9
        assert oracle.value == pytest.approx(1.0 / math.pi**2, rel=1e-9)

    def test_kernel_integral_near_p_one(self):
        # (d, p) = (3, 1.001): beta = -498.5, so r**beta overflows below
        # r ~ 0.24; the oracle must take the integrand's log-space branch.
        params = RestrictionParams(3, 1.001, 2.0)
        spec = power_envelope_integrand(BesselOrder(0.5), params.beta, params.p_prime)
        oracle = oracle_integrate(spec, (0.0, math.inf), 1e-9)
        assert math.isfinite(oracle.value) and oracle.value > 0.0

    def test_kernel_integral_near_p_one_matches_production(self):
        params = RestrictionParams(2, 1.0005, 2.0)
        spec = power_envelope_integrand(BesselOrder(0.0), params.beta, params.p_prime)
        oracle = oracle_integrate(spec, (0.0, math.inf), 1e-9)
        production = integrate_oscillatory_bessel(spec, 1e-9)
        assert production.converged
        assert oracle.value == pytest.approx(production.value, rel=1e-11)

    def test_semi_infinite(self):
        oracle = oracle_integrate(
            lambda r: math.exp(-0.5 * r * r), (0.0, math.inf), 1e-9
        )
        assert oracle.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-10)


class TestDominanceSuite:
    def test_random_profiles_dominated(self):
        grid = [RestrictionParams(3, 1.2, 2.0)]
        spec = RandomRadialSpec(seed=7, family="gaussian_mixture", count=40)
        report = run_dominance_suite(grid, spec, tol=1e-6)
        point = report.points[0]
        assert point.trials == 40
        assert point.failures == []
        assert point.max_ratio <= point.k_rad * (1.0 + 1e-6)
        assert point.margin >= 0.0

    def test_extremal_injection_attains_constant(self):
        params = RestrictionParams(3, 1.2, 2.0)
        spec = RandomRadialSpec(seed=11, family="compact_bump", count=5)
        report = run_dominance_suite(
            [params], spec, tol=1e-6,
            extra_profiles=[extremal_profile(params, 1e-10)],
        )
        point = report.points[0]
        k_rad = sharp_radial_constant(params).k_rad_first_principles
        assert point.trials == 6
        assert point.max_ratio == pytest.approx(k_rad, rel=1e-6)
        assert point.argmax_label.startswith("extremal")
        assert point.failures == []

    def test_empty_pool(self):
        grid = [RestrictionParams(3, 1.2, 2.0)]
        spec = RandomRadialSpec(seed=1, family="gaussian_mixture", count=0)
        report = run_dominance_suite(grid, spec)
        assert report.points[0].trials == 0
        assert report.points[0].max_ratio == 0.0
        assert report.points[0].failures == []

    def test_report_json_deterministic(self):
        grid = [RestrictionParams(3, 1.2, 2.0)]
        spec = RandomRadialSpec(seed=3, family="polynomial_times_gaussian", count=6)
        a = run_dominance_suite(grid, spec, tol=1e-6).to_json()
        b = run_dominance_suite(grid, spec, tol=1e-6).to_json()
        assert a == b
        assert '"seed": 3' in a

    def test_inadmissible_grid_fails_before_profile_work(self):
        calls = []

        def f(r):
            calls.append(r)
            return math.exp(-0.5 * r * r)

        probe = RadialProfile(f=f, decay=GaussianDecay(1.0), label="probe")
        grid = [RestrictionParams(3, 1.2, 2.0), RestrictionParams(2, 1.4, 2.0)]
        spec = RandomRadialSpec(seed=0, family="gaussian_mixture", count=0)
        with pytest.raises(DivergenceError, match="convergence window"):
            run_dominance_suite(grid, spec, extra_profiles=[probe])
        assert calls == []
