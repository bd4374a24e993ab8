"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints exactly one PASS/FAIL line (run with ``pytest -s`` to see
them live).  Criteria with runtime budgets assert those budgets.
"""

import csv
import math
import time
from contextlib import contextmanager

from sphrestrict.cli import main as cli_main
from sphrestrict.gls import PsiWeight, gls_norm, verify_transfer, zeta_from_psi
from sphrestrict.quadrature import OscillatoryIntegrand, integrate_oscillatory_bessel
from sphrestrict.radial_fourier import (
    gaussian_profile,
    radial_hat,
    radial_lp_norm,
)
from sphrestrict.restriction import (
    RestrictionParams,
    evaluate_grid,
    extremal_profile,
    gaussian_lower_bound_optimized,
    radial_convergence_admissible,
    ratio_z,
    sharp_radial_constant,
    tomas_stein_admissible,
)
from sphrestrict.special_fns import (
    BesselOrder,
    RadialKernel,
    bessel_j,
    gamma,
)
from sphrestrict.verify import RandomRadialSpec, generate_profiles

from general_path import bessel_j_general_path
from oracles import bessel_half_oracle, gaussian_lp_norm_closed_form

SHARPNESS_GRID = ((2, 1.1), (2, 1.25), (3, 1.2), (3, 1.4), (4, 1.3))


@contextmanager
def criterion(number: int, name: str, limit: float = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"acceptance {number:02d} {name}: FAIL (runtime {elapsed:.1f}s >= {limit:.0f}s)")
        raise AssertionError(f"criterion {number} exceeded its {limit:.0f}s budget")
    print(f"acceptance {number:02d} {name}: PASS ({elapsed:.1f}s)")


def test_c01_gaussian_self_reciprocity():
    with criterion(1, "gaussian self-reciprocity", limit=10.0):
        for d in (2, 3, 4, 5):
            kernel = RadialKernel(d)
            for sigma in (0.5, 1.0, 2.0):
                profile = gaussian_profile(sigma, d)
                for s in (0.5, 1.0, 2.0):
                    got = radial_hat(kernel, profile, s).value
                    expected = math.exp(-0.5 * sigma * sigma * s * s)
                    assert abs(got - expected) <= 1e-8, (d, sigma, s)


def test_c02_radial_lp_norm_closed_form():
    with criterion(2, "radial L_p norm closed form"):
        for d in (2, 3, 4, 5):
            kernel = RadialKernel(d)
            for sigma in (0.5, 1.0, 2.0):
                profile = gaussian_profile(sigma, d)
                for p in (1.0, 1.2, 2.0):
                    got = radial_lp_norm(kernel, profile, p)
                    expected = gaussian_lp_norm_closed_form(d, sigma, p)
                    assert abs(got - expected) <= 1e-8 * expected, (d, sigma, p)


def test_c03_hoelder_sharpness():
    with criterion(3, "extremal profile attains the sharp constant", limit=60.0):
        for d, p in SHARPNESS_GRID:
            params = RestrictionParams(d, p, 2.0)
            k_rad = sharp_radial_constant(params, 1e-10).k_rad_first_principles
            achieved = ratio_z(params, extremal_profile(params, 1e-10), 1e-9)
            assert k_rad * (1.0 - 1e-6) <= achieved <= k_rad * (1.0 + 1e-6), (d, p)


def _two_hundred_profiles(seed: int):
    profiles = list(
        generate_profiles(RandomRadialSpec(seed, "gaussian_mixture", 80))
    )
    profiles += generate_profiles(
        RandomRadialSpec(seed + 1, "polynomial_times_gaussian", 60)
    )
    profiles += generate_profiles(RandomRadialSpec(seed + 2, "compact_bump", 60))
    return profiles


def test_c04_dominance_over_random_profiles():
    with criterion(4, "200 random radial profiles dominated per grid point",
                   limit=120.0):
        profiles = _two_hundred_profiles(20240601)
        assert len(profiles) == 200
        for d, p in SHARPNESS_GRID:
            params = RestrictionParams(d, p, 2.0)
            k_rad = sharp_radial_constant(params).k_rad_first_principles
            bound = k_rad * (1.0 + 1e-6)
            for profile in profiles:
                assert ratio_z(params, profile) <= bound, (d, p, profile.label)


REPORT_GRID = [
    RestrictionParams(2, 1.1, 2.0),
    RestrictionParams(2, 1.25, 2.0),
    RestrictionParams(3, 1.2, 2.0),
    RestrictionParams(3, 1.4, 2.0),
    RestrictionParams(4, 1.3, 2.0),
]


def test_c05_gaussian_maximization_and_reported_discrepancy():
    with criterion(5, "Gaussian maximisation and closed-form discrepancy"):
        for params in REPORT_GRID:
            opt = gaussian_lower_bound_optimized(params)
            a = params.d * (1.0 - 1.0 / params.p)
            assert abs(opt.sigma_star**2 - a) <= 1e-6
            base = (
                params.kernel.sphere_area ** (1.0 / params.q)
                * (2.0 * math.pi) ** (0.5 * a)
                * params.p ** (params.d / (2.0 * params.p))
            )
            expected_max = base * math.exp(-0.5 * a) * a ** (0.5 * a)
            assert abs(opt.bound - expected_max) <= 1e-8 * expected_max
        for point in evaluate_grid(REPORT_GRID, 1e-9):
            assert point.errors == []
            a = point.params.d * (1.0 - 1.0 / point.params.p)
            assert abs(point.gauss.gauss_ratio - math.exp(0.5 * a)) <= 1e-6 * math.exp(0.5 * a)


def test_c06_cross_bound_ordering():
    with criterion(6, "optimised Gaussian bound below the sharp constant"):
        for params in REPORT_GRID:
            assert radial_convergence_admissible(params.d, params.p)
            gauss = gaussian_lower_bound_optimized(params).bound
            k_rad = sharp_radial_constant(params).k_rad_first_principles
            assert gauss <= k_rad * (1.0 + 1e-6), (params.d, params.p)


def test_c07_special_functions():
    with criterion(7, "special function contracts"):
        # three-term recurrence, residual bound 1e-10, orders spanning 0..6
        for nu in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0):
            x = 0.25
            while x <= 100.0:
                jm = bessel_j(nu - 1.0, x)
                jc = bessel_j(nu, x)
                jp = bessel_j(nu + 1.0, x)
                assert abs(jm + jp - (2.0 * nu / x) * jc) <= 1e-10 * max(1.0, abs(jc))
                x += 1.75
        # half-integer closed forms vs the general evaluation path
        for m in (0, 1, 2):
            nu = m + 0.5
            for x in (0.4, 1.1, 2.7, 5.3, 9.1, 14.0, 23.0, 47.0, 130.0):
                closed = bessel_half_oracle(m, x)
                if abs(closed) < 0.15 * math.sqrt(2.0 / (math.pi * x)):
                    continue
                assert abs(bessel_j_general_path(nu, x) / closed - 1.0) <= 1e-13
        # Gamma recurrence
        x = 0.5
        while x <= 50.0:
            assert abs(gamma(x + 1.0) - x * gamma(x)) <= 1e-12 * gamma(x + 1.0)
            x += 0.5
        # unit Bessel integrals
        for nu in (0.0, 0.5, 1.0, 1.5, 2.0):
            spec = OscillatoryIntegrand(BesselOrder(nu), 0.0, 1.0, signed=True)
            res = integrate_oscillatory_bessel(spec, 1e-10)
            assert abs(res.value - 1.0) <= 1e-8, nu


def test_c08_transform_limit_consistency():
    # The Gaussian density's transform is exp(-sigma^2 s^2 / 2) in closed
    # form; its value at s = 0 is the density's full integral, 1.
    with criterion(8, "G(s->0) matches the Gaussian's closed form"):
        s = 1e-4
        for d in (2, 3):
            kernel = RadialKernel(d)
            for sigma in (0.5, 1.0, 2.0):
                near = radial_hat(kernel, gaussian_profile(sigma, d), s).value
                exact = math.exp(-0.5 * sigma * sigma * s * s)
                assert abs(near - exact) <= 1e-6, (d, sigma)


def test_c09_q_monotonicity():
    with criterion(9, "sharp constant strictly decreasing in q"):
        for d, p in SHARPNESS_GRID:
            values = [
                sharp_radial_constant(
                    RestrictionParams(d, p, q)
                ).k_rad_first_principles
                for q in (1.0, 1.5, 2.0, 4.0)
            ]
            assert all(a > b for a, b in zip(values, values[1:])), (d, p)


def _transfer_profiles(seed: int):
    profiles = list(
        generate_profiles(RandomRadialSpec(seed, "gaussian_mixture", 30))
    )
    profiles += generate_profiles(
        RandomRadialSpec(seed + 1, "polynomial_times_gaussian", 20)
    )
    return profiles


def test_c10_gls_transfer():
    with criterion(10, "Grand Lebesgue transfer with constant one"):
        p_grid = (1.05, 1.10, 1.15, 1.20, 1.25, 1.30)
        psi = PsiWeight.from_function(
            lambda p: 1.0 / (4.0 / 3.0 - p), p_grid, a=1.0, b=4.0 / 3.0
        )
        q_grid = [1.0, 1.5, 2.0, 3.0]
        for sigma in (0.5, 1.0, 2.0):
            report = verify_transfer(psi, gaussian_profile(sigma, 3), 3, q_grid, 1e-8)
            assert report.left <= report.right * (1.0 + 1e-8), f"gaussian {sigma}"
        profiles = _transfer_profiles(907)
        assert len(profiles) == 50
        for profile in profiles:
            report = verify_transfer(psi, profile, 3, q_grid, 1e-8)
            assert report.left <= report.right * (1.0 + 1e-8), profile.label

        # grid refinement monotonicity on nested grids
        kernel = RadialKernel(3)
        h = gaussian_profile(1.0, 3)
        coarse = [1.05, 1.15, 1.25]
        fine = sorted(set(coarse) | {1.10, 1.20, 1.30})
        psi_c = PsiWeight.from_function(lambda p: 1.0, coarse, a=1.0, b=4.0 / 3.0)
        psi_f = PsiWeight.from_function(lambda p: 1.0, fine, a=1.0, b=4.0 / 3.0)
        zeta_c = zeta_from_psi(psi_c, q_grid, 3)
        zeta_f = zeta_from_psi(psi_f, q_grid, 3)
        for (q1, zc), (q2, zf) in zip(zeta_c.samples, zeta_f.samples):
            assert q1 == q2 and zf <= zc * (1.0 + 1e-12)
        norm_c = gls_norm([(p, radial_lp_norm(kernel, h, p)) for p in coarse], psi_c)
        norm_f = gls_norm([(p, radial_lp_norm(kernel, h, p)) for p in fine], psi_f)
        assert norm_f >= norm_c * (1.0 - 1e-12)


def test_c11_admissibility_gates_bit_exact():
    with criterion(11, "admissibility boundary cases"):
        assert tomas_stein_admissible(RestrictionParams(3, 4.0 / 3.0, 2.0)) is True
        assert radial_convergence_admissible(2, 4.0 / 3.0) is False
        assert radial_convergence_admissible(2, 1.2) is True


def test_c12_end_to_end_cli(tmp_path):
    with criterion(12, "sweep and verify round-trips", limit=60.0):
        sweep_a = tmp_path / "sweep_a.csv"
        sweep_b = tmp_path / "sweep_b.csv"
        sweep_args = [
            "sweep", "--d", "3", "--p", "1.05:1.45:10", "--q", "1:2.5:5",
            "--output",
        ]
        t0 = time.perf_counter()
        assert cli_main(sweep_args + [str(sweep_a)]) == 0
        sweep_time = time.perf_counter() - t0
        assert sweep_time < 60.0
        assert cli_main(sweep_args + [str(sweep_b)]) == 0
        assert sweep_a.read_bytes() == sweep_b.read_bytes()
        with open(sweep_a, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 50

        verify_a = tmp_path / "verify_a.json"
        verify_b = tmp_path / "verify_b.json"
        verify_args = [
            "verify", "--d", "3", "--p", "1.2", "--q", "2", "--seed", "42",
            "--trials", "50", "--output",
        ]
        assert cli_main(verify_args + [str(verify_a)]) == 0
        assert cli_main(verify_args + [str(verify_b)]) == 0
        assert verify_a.read_bytes() == verify_b.read_bytes()
