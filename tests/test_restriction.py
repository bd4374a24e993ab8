"""Restriction constants: admissibility, Gaussian bounds, sharp constant,
extremal profile, ratio, and the grid runner behind the consistency
report."""

import math

import mpmath as mp
import numpy as np
import pytest

from sphrestrict.errors import DivergenceError, DomainError
from sphrestrict.radial_fourier import GaussianDecay, RadialProfile, gaussian_profile
from sphrestrict.restriction import (
    RestrictionParams,
    evaluate_grid,
    extremal_profile,
    gaussian_lower_bound,
    gaussian_lower_bound_optimized,
    radial_convergence_admissible,
    ratio_z,
    sharp_radial_constant,
    tomas_stein_admissible,
)
from sphrestrict.radial_fourier import radial_lp_norm
from sphrestrict.special_fns import RadialKernel, bessel_j, bessel_j_zero

from oracles import KERNEL_INTEGRALS

mp.mp.dps = 30


class TestParams:
    def test_conjugate_exponent(self):
        for p in (1.1, 1.25, 1.5, 2.0, 3.0):
            params = RestrictionParams(3, p, 2.0)
            assert 1.0 / p + 1.0 / params.p_prime == pytest.approx(1.0, abs=1e-15)

    def test_p_one_degenerates(self):
        params = RestrictionParams(3, 1.0, 2.0)
        assert params.p_prime == math.inf
        assert math.isnan(params.beta)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
    @pytest.mark.parametrize("p", [1.05, 1.2, 1.3, 1.45])
    def test_beta_identity(self, d, p):
        # (2 + d(p-2)) / (2(p-1)) must equal p'(1 - d/2) + d - 1.
        params = RestrictionParams(d, p, 2.0)
        alt = params.p_prime * (1.0 - 0.5 * d) + d - 1.0
        assert params.beta == pytest.approx(alt, rel=1e-13, abs=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            RestrictionParams(1, 1.2, 2.0)
        with pytest.raises(DomainError):
            RestrictionParams(3, 0.9, 2.0)
        with pytest.raises(DomainError):
            RestrictionParams(3, 1.2, 0.5)


class TestAdmissibility:
    def test_boundary_point_admissible(self):
        # Equality in both Tomas-Stein conditions at (3, 4/3, 2).
        assert tomas_stein_admissible(RestrictionParams(3, 4.0 / 3.0, 2.0)) is True

    def test_p_too_large(self):
        assert tomas_stein_admissible(RestrictionParams(3, 1.5, 1.0)) is False

    def test_p_one_any_q(self):
        assert tomas_stein_admissible(RestrictionParams(2, 1.0, 1e6)) is True

    def test_q_bound_binding(self):
        # d=3, p=1.2: q must stay below 0.5 * 6 = 3.
        assert tomas_stein_admissible(RestrictionParams(3, 1.2, 3.0)) is True
        assert tomas_stein_admissible(RestrictionParams(3, 1.2, 3.0 + 1e-12)) is False

    def test_convergence_window(self):
        assert radial_convergence_admissible(2, 1.2) is True
        assert radial_convergence_admissible(2, 4.0 / 3.0) is False
        assert radial_convergence_admissible(3, 1.49) is True
        assert radial_convergence_admissible(3, 1.5) is False
        assert radial_convergence_admissible(3, 1.0) is False


class TestGaussianBound:
    def test_p1_sigma_limit(self):
        params = RestrictionParams(3, 1.0, 2.0)
        # exponent d(1-1/p) vanishes; bound -> A^(1/2) as sigma -> 0.
        assert gaussian_lower_bound(params, 1e-8) == pytest.approx(
            math.sqrt(4.0 * math.pi), rel=1e-9
        )

    def test_p1_sigma_one_value(self):
        # High-precision evaluation of the display at (3, 1, 2, sigma=1).
        expected = float(mp.exp(mp.mpf(-0.5)) * mp.sqrt(4 * mp.pi))
        got = gaussian_lower_bound(RestrictionParams(3, 1.0, 2.0), 1.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.1500, abs=1e-3)

    @pytest.mark.parametrize(
        "d,p,q,sigma",
        [(2, 1.2, 2.0, 1.0), (3, 1.2, 2.0, 0.7), (4, 1.3, 1.5, 1.4), (2, 1.1, 4.0, 2.0)],
    )
    def test_formula_matches_quadrature_ratio(self, d, p, q, sigma):
        params = RestrictionParams(d, p, q)
        h = gaussian_profile(sigma, d)
        direct = ratio_z(params, h, 1e-10)
        assert gaussian_lower_bound(params, sigma) == pytest.approx(direct, rel=1e-8)

    def test_bad_sigma(self):
        with pytest.raises(DomainError):
            gaussian_lower_bound(RestrictionParams(3, 1.2, 2.0), 0.0)


class TestGaussianBoundOptimized:
    @pytest.mark.parametrize("d,p", [(2, 1.1), (2, 1.25), (3, 1.2), (3, 1.4), (4, 1.3)])
    def test_stationarity(self, d, p):
        opt = gaussian_lower_bound_optimized(RestrictionParams(d, p, 2.0))
        assert abs(opt.sigma_star**2 - d * (1.0 - 1.0 / p)) <= 1e-6

    @pytest.mark.parametrize("d,p,q", [(2, 1.2, 2.0), (3, 1.3, 1.0), (5, 1.15, 3.0)])
    def test_max_value_closed_form(self, d, p, q):
        opt = gaussian_lower_bound_optimized(RestrictionParams(d, p, q))
        a = d * (1.0 - 1.0 / p)
        base = (
            RadialKernel(d).sphere_area ** (1.0 / q)
            * (2.0 * math.pi) ** (0.5 * a)
            * p ** (d / (2.0 * p))
        )
        expected = base * math.exp(-0.5 * a) * a ** (0.5 * a)
        assert opt.bound == pytest.approx(expected, rel=1e-8)
        # literal closed form omits the e^(-a/2) factor
        assert opt.paper_closed_form == pytest.approx(base * a ** (0.5 * a), rel=1e-12)

    def test_p1_supremum_at_zero(self):
        opt = gaussian_lower_bound_optimized(RestrictionParams(3, 1.0, 2.0))
        assert opt.sigma_star <= 2e-6
        assert opt.bound == pytest.approx(math.sqrt(4.0 * math.pi), rel=1e-9)
        assert opt.paper_closed_form == pytest.approx(math.sqrt(4.0 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16, 64, 200])
    @pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 2.0, 3.0, 50.0])
    def test_bound_is_the_ratio_at_the_closed_form_maximiser(self, d, p):
        params = RestrictionParams(d, p, 2.0)
        opt = gaussian_lower_bound_optimized(params)
        assert opt.sigma_star == math.sqrt(d * (1.0 - 1.0 / p))
        assert opt.bound == gaussian_lower_bound(params, opt.sigma_star)

    @pytest.mark.parametrize("d, q", [(2, 2.0), (3, 2.0), (5, 1.5)])
    def test_p1_bound_is_exactly_the_supremum(self, d, q):
        # a = 0: the ratio at sigma = 0 is the literal form, 0.0 ** 0.0 == 1.
        opt = gaussian_lower_bound_optimized(RestrictionParams(d, 1.0, q))
        assert opt.sigma_star == 0.0
        assert opt.bound == opt.paper_closed_form
        assert opt.gauss_ratio == 1.0

    def test_golden_section_against_dense_scan(self):
        # No search is left; the closed-form maximum still dominates a
        # dense scan of the ratio.
        params = RestrictionParams(2, 1.2, 4.0)
        opt = gaussian_lower_bound_optimized(params)
        dense = max(
            gaussian_lower_bound(params, 1e-6 + i * (10.0 - 1e-6) / 200000)
            for i in range(1, 200001)
        )
        assert opt.bound >= dense - 1e-9 * dense

    def test_maximum_inside_double_range_is_finite(self):
        # sigma^a overflows far above sigma_star = 14, but the maximum fits.
        params = RestrictionParams(200, 50.0, 2.0)
        opt = gaussian_lower_bound_optimized(params)
        assert opt.sigma_star == 14.0
        assert math.isfinite(opt.bound)
        assert opt.bound == gaussian_lower_bound(params, opt.sigma_star)

    @pytest.mark.parametrize(
        "d, p, match",
        [(300, 20.0, "literal closed form"), (400, 1.5, "d <= 343")],
    )
    def test_beyond_double_precision_is_a_domain_error(self, d, p, match):
        # The literal form is e^(a/2) times the bound, so it leaves double
        # range first.
        with pytest.raises(DomainError, match=match):
            gaussian_lower_bound_optimized(RestrictionParams(d, p, 2.0))

    def test_fixed_sigma_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="sigma = 141.0"):
            gaussian_lower_bound(RestrictionParams(200, 50.0, 2.0), 141.0)


class TestSharpConstant:
    def test_d3_p12_exact_closed_form(self):
        # Kernel integral 1/pi^2 makes the constant exactly (2 pi)^(5/6).
        res = sharp_radial_constant(RestrictionParams(3, 1.2, 2.0), 1e-10)
        assert res.kernel_integral.converged
        assert res.kernel_integral.value == pytest.approx(1.0 / math.pi**2, rel=1e-11)
        assert res.k_rad_first_principles == pytest.approx(
            (2.0 * math.pi) ** (5.0 / 6.0), rel=1e-10
        )

    def test_d2_p12_beta_and_value(self):
        params = RestrictionParams(2, 1.2, 2.0)
        assert params.beta == pytest.approx(1.0, abs=1e-13)
        res = sharp_radial_constant(params, 1e-10)
        expected_i, unc = KERNEL_INTEGRALS[(2, 1.2)]
        assert abs(res.kernel_integral.value - expected_i) <= max(
            2.0 * res.kernel_integral.error_estimate + unc, 1e-9
        )
        expected_k = (
            (2.0 * math.pi) ** 1.0
            * RadialKernel(2).sphere_area ** (0.5 - 1.0 / 1.2)
            * expected_i ** (1.0 / 6.0)
        )
        assert res.k_rad_first_principles == pytest.approx(expected_k, rel=1e-9)

    def test_divergent_point_rejected(self):
        with pytest.raises(DivergenceError, match="1 < p < 2d"):
            sharp_radial_constant(RestrictionParams(2, 1.4, 2.0))

    def test_dimension_beyond_sphere_area_rejected(self):
        # Gamma(d/2) overflows before any kernel work starts.
        with pytest.raises(DomainError, match="d <= 343"):
            sharp_radial_constant(RestrictionParams(400, 1.5, 2.0))

    def test_p_one_rejected(self):
        with pytest.raises(DivergenceError):
            sharp_radial_constant(RestrictionParams(3, 1.0, 2.0))

    @pytest.mark.parametrize("d,p", [(2, 1.2), (3, 1.3)])
    def test_q_monotonicity(self, d, p):
        values = [
            sharp_radial_constant(RestrictionParams(d, p, q)).k_rad_first_principles
            for q in (1.0, 1.5, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_paper_closed_form_relation(self):
        # k_paper / k_fp = P / (A^(1/q - 1/p) (2 pi)^(d/2)) with
        # P = 2^(-1/p) Gamma^(1/p)(d/2) A^(1/q) (2 pi)^(-d/(2 p')).
        params = RestrictionParams(3, 1.2, 2.0)
        res = sharp_radial_constant(params)
        area = RadialKernel(3).sphere_area
        coeff_p = (
            2.0 ** (-1.0 / params.p)
            * math.gamma(1.5) ** (1.0 / params.p)
            * area ** (1.0 / params.q)
            * (2.0 * math.pi) ** (-0.5 * 3 / params.p_prime)
        )
        ratio = coeff_p / (
            area ** (1.0 / params.q - 1.0 / params.p) * (2.0 * math.pi) ** 1.5
        )
        assert res.k_rad_paper_closed_form / res.k_rad_first_principles == pytest.approx(
            ratio, rel=1e-12
        )


class TestExtremal:
    def test_vanishes_at_kernel_zeros(self):
        ext = extremal_profile(RestrictionParams(3, 1.2, 2.0))
        for k in (1, 2, 5):
            root = bessel_j_zero(0.5, k)
            assert ext.f(root) == pytest.approx(0.0, abs=1e-9)

    def test_sign_tracks_kernel(self):
        ext = extremal_profile(RestrictionParams(2, 1.25, 2.0))
        r = 0.3
        while r < 40.0:
            j = bessel_j(0.0, r)
            if abs(j) > 1e-3:
                assert ext.f(r) * j >= 0.0, r
            r += 0.61

    @pytest.mark.parametrize("d,p", [(2, 1.25), (3, 1.2), (8, 1.5)])
    def test_values_are_pointwise(self, d, p):
        # f is the family's values at one point, and each node's value is
        # the one it gets alone, bit for bit: below r = 1e-3 (log space),
        # next to the kernel's zeros and on the arches.
        ext = extremal_profile(RestrictionParams(d, p, 2.0), 1e-10)
        values, index = ext.family
        nu = 0.5 * (d - 2)
        rng = np.random.default_rng(d)
        r = np.concatenate([
            [1e-300, 1e-8, 1e-3, np.nextafter(1e-3, 0.0)],
            [bessel_j_zero(nu, k) for k in (1, 2, 7)],
            np.geomspace(1e-6, 1e-2, 50), rng.uniform(0.0, 80.0, 500),
        ])
        batch = values(r, np.full(r.size, index)).tolist()
        assert [ext.f(x) for x in r.tolist()] == batch
        assert [values(np.array([x]), np.array([index]))[0] for x in r.tolist()] == batch
        assert max(map(abs, batch[4:7])) < 1e-12 and all(map(math.isfinite, batch))
        assert ext.f(0.0) == 0.0

    @pytest.mark.parametrize("d,p", [(2, 1.25), (3, 1.2), (4, 1.3)])
    def test_unit_norm(self, d, p):
        params = RestrictionParams(d, p, 2.0)
        ext = extremal_profile(params, 1e-10)
        norm = radial_lp_norm(RadialKernel(d), ext, p, 1e-9)
        assert norm == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "d, p, ratio",
        [
            (2, 1.1, 2.5268085118333645),
            (2, 1.25, 3.1485901472830187),
            (3, 1.2, 4.625406328923357),
            (3, 1.4, 7.766210400457864),
            (4, 1.3, 9.520321051595475),
        ],
    )
    def test_ratio_frozen(self, d, p, ratio):
        # Frozen from the profile's scalar form, before it was valued on
        # arrays of nodes, and re-frozen when the tail fit took its leading
        # coefficient in closed form and when pow, exp and log moved to
        # numpy's ufuncs; the sharpness grid of the acceptance gate.
        params = RestrictionParams(d, p, 2.0)
        assert ratio_z(params, extremal_profile(params, 1e-10), 1e-9) == ratio

    @pytest.mark.parametrize("d,p", [(3, 1.2), (2, 1.25)])
    def test_sharpness(self, d, p):
        params = RestrictionParams(d, p, 2.0)
        k_rad = sharp_radial_constant(params, 1e-10).k_rad_first_principles
        achieved = ratio_z(params, extremal_profile(params, 1e-10), 1e-9)
        assert achieved / k_rad == pytest.approx(1.0, abs=1e-6)


class TestRatioZ:
    def test_gaussian_matches_bound(self):
        params = RestrictionParams(3, 1.2, 2.0)
        for sigma in (0.5, 1.0, 2.0):
            got = ratio_z(params, gaussian_profile(sigma, 3), 1e-10)
            assert got == pytest.approx(
                gaussian_lower_bound(params, sigma), rel=1e-8
            )

    def test_scaling_invariance(self):
        params = RestrictionParams(3, 1.2, 2.0)
        h = gaussian_profile(1.0, 3)
        base = ratio_z(params, h, 1e-10)
        for c in (0.1, 3.0, -2.0):
            scaled = RadialProfile(
                f=lambda r, c=c: c * h.f(r), decay=h.decay, label=f"scale {c}"
            )
            assert ratio_z(params, scaled, 1e-10) == pytest.approx(base, rel=1e-10)

    def test_nan_profile_is_a_domain_error(self):
        nan = RadialProfile(f=lambda r: math.nan, decay=GaussianDecay(1.0), label="nan")
        with pytest.raises(DomainError, match=r"NaN at r = 1000\.0") as info:
            ratio_z(RestrictionParams(3, 1.2, 2.0), nan)
        assert not isinstance(info.value, DivergenceError)

    def test_zero_profile_rejected(self):
        from sphrestrict.radial_fourier import CompactSupport

        zero = RadialProfile(lambda r: 0.0, CompactSupport(1.0), "zero")
        with pytest.raises(DomainError):
            ratio_z(RestrictionParams(3, 1.2, 2.0), zero)


class TestConsistencyReport:
    def test_rows_and_discrepancy_factor(self):
        grid = [
            RestrictionParams(3, 1.1, 2.0),
            RestrictionParams(3, 1.2, 2.0),
            RestrictionParams(2, 1.25, 2.0),
        ]
        points = evaluate_grid(grid, 1e-9)
        assert [(pt.params.d, pt.params.p) for pt in points] == [(3, 1.1), (3, 1.2), (2, 1.25)]
        for point in points:
            assert point.errors == []
            a = point.params.d * (1.0 - 1.0 / point.params.p)
            # documented discrepancy: literal / numeric optimum = e^(a/2)
            assert point.gauss.gauss_ratio == pytest.approx(math.exp(0.5 * a), rel=1e-6)
            assert point.gauss_ratio_predicted == pytest.approx(
                math.exp(0.5 * a), rel=1e-12
            )
            assert point.sharp.k_rad_ratio == (
                point.sharp.k_rad_paper_closed_form / point.sharp.k_rad_first_principles
            )
            # the Gaussian ratio is attained inside the radial class
            assert point.gauss.bound <= point.sharp.k_rad_first_principles * (1 + 1e-6)

    def test_p1_row_keeps_gaussian_columns(self):
        (point,) = evaluate_grid([RestrictionParams(3, 1.0, 2.0)], 1e-9)
        assert isinstance(point.sharp, DivergenceError)
        assert point.errors == [str(point.sharp)]
        assert point.gauss.bound == pytest.approx(math.sqrt(4.0 * math.pi), rel=1e-9)
        assert point.gauss.gauss_ratio == pytest.approx(1.0, rel=1e-9)

    def test_too_large_dimension_is_a_failed_row(self):
        (point,) = evaluate_grid([RestrictionParams(400, 1.5, 2.0)], 1e-9)
        assert isinstance(point.sharp, DomainError) and isinstance(point.gauss, DomainError)
        assert len(point.errors) == 2
        assert all("d <= 343" in error for error in point.errors)
        assert point.gauss_ratio_predicted == pytest.approx(math.exp(0.5 * 400 / 3))

    def test_rows_come_back_in_grid_order(self):
        grid = [RestrictionParams(3, p, 2.0) for p in (1.25, 1.1, 1.2, 1.15)]
        points = evaluate_grid(grid, 1e-9)
        assert [pt.params for pt in points] == grid
        for params, point in zip(grid, points):
            assert point.sharp.k_rad_first_principles == sharp_radial_constant(
                params, 1e-9
            ).k_rad_first_principles

    def test_gaussian_block_runs_before_the_sharp_block(self, monkeypatch):
        from sphrestrict import restriction

        order = []
        for name in ("gaussian_lower_bound_optimized", "sharp_radial_constant"):
            def record(*args, _name=name, _fn=getattr(restriction, name)):
                order.append(_name)
                return _fn(*args)

            monkeypatch.setattr(restriction, name, record)
        evaluate_grid([RestrictionParams(3, 1.2, 2.0), RestrictionParams(2, 1.4, 2.0)], 1e-9)
        assert order == ["gaussian_lower_bound_optimized", "sharp_radial_constant"] * 2
