"""Grand Lebesgue norms, the cut set, the transfer weight, and the
constant-one transfer inequality."""

import math

import pytest

from sphrestrict import radial_fourier
from sphrestrict.errors import ConvergenceError, DomainError
from sphrestrict.gls import (
    PsiWeight,
    cut_set,
    gls_norm,
    verify_transfer,
    zeta_from_psi,
)
from sphrestrict.quadrature import QuadResult
from sphrestrict.radial_fourier import (
    CompactSupport,
    RadialProfile,
    gaussian_profile,
    radial_lp_norm,
)
from sphrestrict.restriction import RestrictionParams, sharp_radial_constant
from sphrestrict.special_fns import RadialKernel

from oracles import gaussian_lp_norm_closed_form

P_GRID_D3 = (1.05, 1.10, 1.15, 1.20, 1.25, 1.30)


def psi_one() -> PsiWeight:
    return PsiWeight.from_function(lambda p: 1.0, [1.5, 2.0, 2.5], a=1.0, b=3.0)


class TestPsiWeight:
    def test_validation(self):
        with pytest.raises(DomainError):
            PsiWeight(a=2.0, b=1.0, samples=((1.5, 1.0),))
        with pytest.raises(DomainError):
            PsiWeight(a=1.0, b=3.0, samples=((1.5, 1.0), (1.4, 1.0)))
        with pytest.raises(DomainError):
            PsiWeight(a=1.0, b=3.0, samples=((1.5, 0.0),))
        with pytest.raises(DomainError):
            PsiWeight(a=1.0, b=3.0, samples=((3.5, 1.0),))

    def test_piecewise_linear_interpolation(self):
        psi = PsiWeight(a=1.0, b=3.0, samples=((1.5, 1.0), (2.5, 3.0)))
        assert psi(1.5) == 1.0
        assert psi(2.0) == pytest.approx(2.0)
        assert psi(2.5) == 3.0

    def test_extrapolation_forbidden(self):
        psi = PsiWeight(a=1.0, b=3.0, samples=((1.5, 1.0), (2.5, 3.0)))
        with pytest.raises(DomainError, match="extrapolation"):
            psi(1.2)
        with pytest.raises(DomainError, match="extrapolation"):
            psi(2.9)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "psi.csv"
        path.write_text("p,psi\n1.05,3.5\n1.15,5.5\n1.25,12.0\n")
        psi = PsiWeight.from_csv(path)
        assert psi.grid == (1.05, 1.15, 1.25)
        assert psi(1.10) == pytest.approx(4.5)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("exponent,weight\n1.05,3.5\n")
        with pytest.raises(DomainError, match="header"):
            PsiWeight.from_csv(path)


class TestGlsNorm:
    def test_constant_ratio(self):
        samples = [(1.5, 1.0), (2.0, 1.0), (2.5, 1.0)]
        assert gls_norm(samples, psi_one()) == pytest.approx(1.0)

    def test_own_norms_as_weight(self):
        # psi(p) = ||h_1||_p makes the Gaussian's own norm exactly 1.
        grid = [1.1, 1.5, 2.0, 3.0]
        psi = PsiWeight.from_function(
            lambda p: gaussian_lp_norm_closed_form(3, 1.0, p), grid, a=1.0, b=4.0
        )
        k = RadialKernel(3)
        h = gaussian_profile(1.0, 3)
        samples = [(p, radial_lp_norm(k, h, p, 1e-10)) for p in grid]
        assert gls_norm(samples, psi) == pytest.approx(1.0, rel=1e-8)

    def test_homogeneity(self):
        samples = [(1.5, 0.3), (2.0, 0.7), (2.5, 0.2)]
        doubled = [(p, 2.0 * v) for p, v in samples]
        assert gls_norm(doubled, psi_one()) == pytest.approx(
            2.0 * gls_norm(samples, psi_one())
        )

    def test_weight_monotonicity(self):
        grid = [1.5, 2.0, 2.5]
        psi_small = PsiWeight.from_function(lambda p: 1.0, grid, a=1.0, b=3.0)
        psi_large = PsiWeight.from_function(lambda p: 1.0 + p, grid, a=1.0, b=3.0)
        samples = [(1.5, 0.4), (2.0, 1.1), (2.5, 0.9)]
        assert gls_norm(samples, psi_small) >= gls_norm(samples, psi_large)

    def test_empty_intersection(self):
        samples = [(0.5, 1.0)]
        with pytest.raises(DomainError):
            gls_norm(samples, psi_one())


class TestCutSet:
    def test_d3_all_retained(self):
        assert cut_set(3, [1.1, 1.2, 1.3]) == [1.1, 1.2, 1.3]

    def test_d3_tomas_stein_rejects(self):
        # 1.4 > (2d+2)/(d+3) = 4/3 even though the integral converges.
        assert cut_set(3, [1.4]) == []

    def test_d2_combined_filter(self):
        # 1.25 < 4/3 converges but fails Tomas-Stein (> 6/5).
        assert cut_set(2, [1.25]) == []
        assert cut_set(2, [1.25], constant_source="gaussian_lower") == []
        assert cut_set(2, [1.15]) == [1.15]

    def test_gaussian_source_skips_convergence(self):
        # p = 1 fails the convergence window but not Tomas-Stein.
        assert cut_set(3, [1.0], constant_source="gaussian_lower") == [1.0]
        assert cut_set(3, [1.0], constant_source="radial_sharp") == []

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            cut_set(3, [])


class TestZeta:
    def make_psi(self, fn=lambda p: 1.0):
        return PsiWeight.from_function(fn, P_GRID_D3, a=1.0, b=4.0 / 3.0)

    def test_unit_weight_gives_min_constant(self):
        psi = self.make_psi()
        q_grid = [1.0, 2.0]
        zeta = zeta_from_psi(psi, q_grid, 3)
        for q, z in zeta.samples:
            expected = min(
                sharp_radial_constant(
                    RestrictionParams(3, p, q)
                ).k_rad_first_principles
                for p in P_GRID_D3
            )
            assert z == pytest.approx(expected, rel=1e-9)

    def test_positive_homogeneity(self):
        base = zeta_from_psi(self.make_psi(), [1.5, 2.0], 3)
        scaled = zeta_from_psi(self.make_psi(lambda p: 3.0), [1.5, 2.0], 3)
        for (q1, z1), (q2, z2) in zip(base.samples, scaled.samples):
            assert q1 == q2
            assert z2 == pytest.approx(3.0 * z1, rel=1e-12)

    def test_reciprocal_gap_weight_finite(self):
        psi = self.make_psi(lambda p: 1.0 / (4.0 / 3.0 - p))
        zeta = zeta_from_psi(psi, [2.0], 3)
        q, z = zeta.samples[0]
        assert z > 0.0 and math.isfinite(z)
        # grid minimisation oracle
        expected = min(
            psi(p)
            * sharp_radial_constant(RestrictionParams(3, p, 2.0)).k_rad_first_principles
            for p in P_GRID_D3
        )
        assert z == pytest.approx(expected, rel=1e-9)

    def test_infimum_domination_exhaustive(self):
        psi = self.make_psi(lambda p: 2.0 + math.sin(10.0 * p))
        q_grid = [1.0, 1.5, 2.0, 3.0]
        zeta = zeta_from_psi(psi, q_grid, 3)
        for q, z in zeta.samples:
            for p in P_GRID_D3:
                k = sharp_radial_constant(
                    RestrictionParams(3, p, q)
                ).k_rad_first_principles
                assert z <= psi(p) * k * (1.0 + 1e-12)

    def test_empty_cut_set_names_filter(self):
        psi = PsiWeight.from_function(lambda p: 1.0, [1.25], a=1.0, b=1.3)
        with pytest.raises(DomainError, match="Tomas-Stein"):
            zeta_from_psi(psi, [2.0], 2)

    def test_grid_refinement_monotonicity(self):
        coarse_grid = [1.05, 1.15, 1.25]
        fine_grid = sorted(set(coarse_grid) | {1.10, 1.20, 1.30})
        coarse = zeta_from_psi(
            PsiWeight.from_function(lambda p: 1.0, coarse_grid, a=1.0, b=4.0 / 3.0),
            [1.0, 2.0],
            3,
        )
        fine = zeta_from_psi(
            PsiWeight.from_function(lambda p: 1.0, fine_grid, a=1.0, b=4.0 / 3.0),
            [1.0, 2.0],
            3,
        )
        for (q1, zc), (q2, zf) in zip(coarse.samples, fine.samples):
            assert q1 == q2
            assert zf <= zc * (1.0 + 1e-12)


class TestTransfer:
    def make_psi(self):
        return PsiWeight.from_function(
            lambda p: 1.0 / (4.0 / 3.0 - p), P_GRID_D3, a=1.0, b=4.0 / 3.0
        )

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_gaussian_family(self, sigma):
        report = verify_transfer(
            self.make_psi(), gaussian_profile(sigma, 3), 3, [1.0, 1.5, 2.0, 3.0], 1e-8
        )
        assert report.ok
        assert report.left <= report.right * (1.0 + 1e-8)

    def test_zero_profile(self):
        # A right side of 0 leaves the ratio undefined: a typed error naming
        # the profile, not "ok" with 0 <= 0.
        zero = RadialProfile(lambda r: 0.0, CompactSupport(1.0), "zero")
        with pytest.raises(DomainError, match="profile 'zero' has zero Grand Lebesgue norm"):
            verify_transfer(self.make_psi(), zero, 3, [1.0, 2.0], 1e-8)

    def test_unconverged_transform_raises(self, monkeypatch):
        # The sphere side reads G(1) through the same checked path as
        # sphere_norms_of_radial_hat, so an unconverged transform is an error.
        monkeypatch.setattr(
            radial_fourier, "_radial_hats",
            lambda kernel, profiles, s, tol: [QuadResult(1.0, 5.0, 15, False)] * len(profiles),
        )
        h = gaussian_profile(1.0, 3)
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            verify_transfer(self.make_psi(), h, 3, [1.0, 2.0], 1e-8)
        assert f"transform of {h.label!r} at s = 1" in str(info.value)

    def test_scaling_leaves_ratio_unchanged(self):
        h = gaussian_profile(1.0, 3)
        psi = self.make_psi()
        base = verify_transfer(psi, h, 3, [1.0, 2.0], 1e-8)
        for c in (3.0, -2.0):
            scaled = RadialProfile(
                f=lambda r, c=c: c * h.f(r), decay=h.decay, label=f"scale {c}"
            )
            rep = verify_transfer(psi, scaled, 3, [1.0, 2.0], 1e-8)
            assert rep.left == pytest.approx(abs(c) * base.left, rel=1e-9)
            assert rep.right == pytest.approx(abs(c) * base.right, rel=1e-9)
            assert rep.ratio == pytest.approx(base.ratio, rel=1e-9)

    def test_gls_norm_refinement_monotonicity(self):
        k = RadialKernel(3)
        h = gaussian_profile(1.0, 3)
        coarse_grid = [1.05, 1.15, 1.25]
        fine_grid = sorted(set(coarse_grid) | {1.10, 1.20, 1.30})
        psi_c = PsiWeight.from_function(lambda p: 1.0, coarse_grid, a=1.0, b=4.0 / 3.0)
        psi_f = PsiWeight.from_function(lambda p: 1.0, fine_grid, a=1.0, b=4.0 / 3.0)
        coarse = gls_norm([(p, radial_lp_norm(k, h, p)) for p in coarse_grid], psi_c)
        fine = gls_norm([(p, radial_lp_norm(k, h, p)) for p in fine_grid], psi_f)
        assert fine >= coarse * (1.0 - 1e-12)
