"""Random-profile harnesses and the independent oracle integrator."""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from sphrestrict import quadrature, radial_fourier, verify
from sphrestrict.cli import main
from sphrestrict.errors import ConvergenceError, DivergenceError, DomainError
from sphrestrict.quadrature import (
    OscillatoryIntegrand,
    integrate_finite,
    integrate_oscillatory_bessel,
)
from sphrestrict.restriction import (
    RestrictionParams,
    extremal_profile,
    gaussian_lower_bound,
    ratio_z,
    ratios_z,
    sharp_radial_constant,
)
from sphrestrict.radial_fourier import GaussianDecay, RadialProfile
from sphrestrict.special_fns import BesselOrder
from sphrestrict.verify import (
    FAMILIES,
    DominancePoint,
    DominanceReport,
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
        spec = OscillatoryIntegrand(BesselOrder(0.0), 0.0, 1.0, signed=True)
        oracle = oracle_integrate(spec, (0.0, math.inf), 1e-8)
        assert abs(oracle.value - 1.0) <= 1e-10

    def test_kernel_integral_via_independent_partition(self):
        spec = OscillatoryIntegrand(BesselOrder(0.5), -1.0, 6.0)
        oracle = oracle_integrate(spec, (0.0, math.inf), 1e-7)
        production = integrate_oscillatory_bessel(spec, 1e-10)
        assert abs(oracle.value - production.value) <= 1e-9
        assert oracle.value == pytest.approx(1.0 / math.pi**2, rel=1e-9)

    def test_kernel_integral_near_p_one(self):
        # (d, p) = (3, 1.001): beta = -498.5, so r**beta overflows below
        # r ~ 0.24; the oracle must take the integrand's log-space branch.
        params = RestrictionParams(3, 1.001, 2.0)
        spec = OscillatoryIntegrand(BesselOrder(0.5), params.beta, params.p_prime)
        oracle = oracle_integrate(spec, (0.0, math.inf), 1e-9)
        assert math.isfinite(oracle.value) and oracle.value > 0.0

    def test_kernel_integral_near_p_one_matches_production(self):
        params = RestrictionParams(2, 1.0005, 2.0)
        spec = OscillatoryIntegrand(BesselOrder(0.0), params.beta, params.p_prime)
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


class TestDominanceFailures:
    def test_non_converging_point_reported_failed(self, monkeypatch):
        # The kernel integral at (5, 1.05) does not converge; (4, 1.05) does.
        grid = [RestrictionParams(4, 1.05, 2.0), RestrictionParams(5, 1.05, 2.0)]
        spec = RandomRadialSpec(seed=0, family="gaussian_mixture", count=3)
        with pytest.raises(ConvergenceError):
            sharp_radial_constant(grid[1])
        visited = []

        def recording_ratios_z(params, profiles, tol):
            visited.append((params.d, len(profiles)))
            return ratios_z(params, profiles, tol)

        monkeypatch.setattr(verify, "ratios_z", recording_ratios_z)
        report = run_dominance_suite(grid, spec)
        assert visited == [(4, 3)]
        alone = run_dominance_suite(grid[:1], spec)
        assert report.points[0] == alone.points[0]

        failed = json.loads(report.to_json())["points"][1]
        assert failed["failed"] is True
        assert "(d=5, p=1.05)" in failed["error"]
        assert failed["k_rad"] is None
        assert failed["max_ratio"] is None
        assert failed["margin"] is None
        assert failed["failures"] == []
        assert "failed" not in json.loads(report.to_json())["points"][0]

    def test_domain_error_point_reported_failed(self):
        # No sphere area fits a double at d = 400; (3, 1.2) is unaffected.
        grid = [RestrictionParams(3, 1.2, 2.0), RestrictionParams(400, 1.2, 2.0)]
        spec = RandomRadialSpec(seed=0, family="gaussian_mixture", count=2)
        report = run_dominance_suite(grid, spec)
        assert report.points[0] == run_dominance_suite(grid[:1], spec).points[0]
        failed = report.points[1]
        assert "d <= 343" in failed.error
        assert (failed.k_rad, failed.max_ratio, failed.margin) == (None, None, None)
        assert failed.failures == [] and failed.trials == 2

    def test_cli_prints_converged_and_failed_points(self, capsys):
        code = main(["verify", "--d", "4:5:2", "--p", "1.05", "--q", "2", "--trials", "3"])
        points = json.loads(capsys.readouterr().out)["points"]
        assert code == 0
        assert [pt["grid_point"]["d"] for pt in points] == [4, 5]
        assert "failed" not in points[0] and points[0]["k_rad"] > 0.0
        assert points[1]["failed"] is True and points[1]["k_rad"] is None

    def test_failing_profile_recorded_and_skipped(self):
        grid = [RestrictionParams(3, 1.2, 2.0), RestrictionParams(4, 1.3, 2.0)]
        spec = RandomRadialSpec(seed=2, family="gaussian_mixture", count=3)

        def no_convergence(r):
            raise ConvergenceError("profile stalled")

        bad = [
            RadialProfile(f=lambda r: 0.0, decay=GaussianDecay(1.0), label="zero"),
            RadialProfile(f=no_convergence, decay=GaussianDecay(1.0), label="stalled"),
        ]
        report = run_dominance_suite(grid, spec, extra_profiles=bad)
        clean = run_dominance_suite(grid, spec)
        for point, ref in zip(report.points, clean.points):
            assert point.trials == 5
            assert (point.max_ratio, point.argmax_label, point.margin) == (
                ref.max_ratio, ref.argmax_label, ref.margin
            )
            assert [f["label"] for f in point.failures] == ["zero", "stalled"]
            assert "zero L_" in point.failures[0]["error"]
            assert point.failures[1]["error"] == "profile stalled"
            assert point.error is None


    def test_unconverged_norm_is_a_profile_failure(self):
        # 1% noise that refinement never resolves: the profile's L_p norm
        # stops unconverged, so its ratio is an error, not a number.
        noisy = RadialProfile(
            f=lambda r: math.exp(-r * r) * (1.0 + 0.01 * math.sin(1e6 * r)),
            decay=GaussianDecay(1.0),
            label="noisy",
        )
        params = RestrictionParams(3, 1.2, 2.0)
        with pytest.raises(ConvergenceError, match="L_1.2 norm of 'noisy'"):
            ratio_z(params, noisy)
        spec = RandomRadialSpec(seed=1, family="gaussian_mixture", count=2)
        (point,) = run_dominance_suite([params], spec, extra_profiles=[noisy]).points
        (ref,) = run_dominance_suite([params], spec).points
        assert (point.max_ratio, point.argmax_label) == (ref.max_ratio, ref.argmax_label)
        assert [f["label"] for f in point.failures] == ["noisy"]
        assert "did not converge" in point.failures[0]["error"]


def reference_dominance_json(grid, spec, tol, quad_tol, extra_profiles):
    """The suite as a grid-outer loop of one-profile ``ratio_z`` calls, each
    profile valued by its scalar ``f``, without its family's array form."""
    k_rads = [sharp_radial_constant(pt, quad_tol).k_rad_first_principles for pt in grid]
    profiles = [
        profile._replace(family=None)
        for profile in generate_profiles(spec) + list(extra_profiles)
    ]
    points = []
    for params, k_rad in zip(grid, k_rads):
        ratios = [ratio_z(params, profile, quad_tol) for profile in profiles]
        max_ratio, argmax_label, failures = 0.0, "", []
        for profile, ratio in zip(profiles, ratios):
            if ratio > max_ratio:
                max_ratio, argmax_label = ratio, profile.label
            if ratio > k_rad * (1.0 + tol):
                failures.append({"label": profile.label, "ratio": ratio})
        points.append(DominancePoint(
            d=params.d, p=params.p, q=params.q, trials=len(profiles),
            max_ratio=max_ratio, k_rad=k_rad,
            margin=k_rad * (1.0 + tol) - max_ratio,
            argmax_label=argmax_label, failures=failures,
        ))
    return DominanceReport(spec=spec, tol=tol, points=points).to_json()


class TestDominanceReuse:
    GRID = [RestrictionParams(2, 1.2, 2.0), RestrictionParams(3, 1.2, 2.0),
            RestrictionParams(4, 1.3, 1.5)]

    @pytest.mark.parametrize(
        "family, seed, tol",
        [("gaussian_mixture", 5, -0.8), ("polynomial_times_gaussian", 5, -0.75),
         ("compact_bump", 6, -0.3)],
    )
    def test_report_equals_grid_outer_reference(self, family, seed, tol):
        spec = RandomRadialSpec(seed=seed, family=family, count=4)
        # Twins tie every ratio of the generated profiles, so each point's
        # maximum is tied; the first (generated) profile must win it.  They
        # have no family array form, so each runs alone beside the block.
        twins = [
            RadialProfile(f=p.f, decay=p.decay, label=f"twin {p.label}")
            for p in generate_profiles(spec)
        ]
        # A negative tolerance lists the larger ratios as failures, which
        # must come in profile order, not ratio order; each family's sits
        # between its smaller and its larger ratios at every grid point.
        got = run_dominance_suite(self.GRID, spec, tol=tol, extra_profiles=twins)
        expected = reference_dominance_json(self.GRID, spec, tol, 1e-9, twins)
        assert got.to_json() == expected
        for point in got.points:
            assert 4 <= len(point.failures) < point.trials
            assert not point.argmax_label.startswith("twin")
            labels = [f["label"] for f in point.failures]
            assert any(label.startswith("twin") for label in labels)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # At NaN no ratio is ever a violation; negative values stay allowed.
        spec = RandomRadialSpec(seed=0, family="gaussian_mixture", count=1)
        with pytest.raises(DomainError, match="finite"):
            run_dominance_suite(self.GRID, spec, tol=tol)

    def test_batched_ratios_equal_one_profile_calls(self):
        # A 200-profile block of each family, one ratio per profile.
        params = RestrictionParams(3, 1.2, 2.0)
        for family in FAMILIES:
            profiles = generate_profiles(RandomRadialSpec(seed=9, family=family, count=200))
            expected = [ratio_z(params, p._replace(family=None)) for p in profiles[::25]]
            assert ratios_z(params, profiles)[::25] == expected

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_runs_as_two_blocks(self, family, monkeypatch):
        # The 40 norms are one block and the 40 transforms a second: the
        # blocks' rounds set the array calls, where one integral at a time
        # would make at least one call per integral, 80 in all.
        calls = []
        batch = quadrature._gk15_batch

        def counting_batch(f, a, b, which):
            calls.append(len(a))
            return batch(f, a, b, which)

        monkeypatch.setattr(quadrature, "_gk15_batch", counting_batch)
        profiles = generate_profiles(RandomRadialSpec(seed=2, family=family, count=40))
        ratios_z(RestrictionParams(3, 1.2, 2.0), profiles)
        assert len(calls) < 80 and max(calls) == 2 * 40

    def test_failure_order(self, monkeypatch):
        # Per profile: the error of its norm, else a zero norm, else the
        # error of its transform; only profiles with a nonzero norm reach
        # the transform block.
        norm_error = ConvergenceError("norm stalled")
        hat_error = ConvergenceError("transform stalled")
        profiles = [
            RadialProfile(f=math.exp, decay=GaussianDecay(1.0), label=label)
            for label in ("both", "zero", "transform", "ok")
        ]
        monkeypatch.setattr(
            radial_fourier, "radial_lp_norms",
            lambda kernel, block, p, tol: [norm_error, 0.0, 2.0, 4.0],
        )
        asked = []

        def sphere_norms(kernel, block, q, tol):
            asked.append([profile.label for profile in block])
            return [hat_error if p.label in ("both", "transform") else 3.0 for p in block]

        monkeypatch.setattr(radial_fourier, "sphere_norms_of_radial_hat", sphere_norms)
        ratios = ratios_z(RestrictionParams(3, 1.2, 2.0), profiles)
        assert asked == [["transform", "ok"]]
        assert ratios[0] is norm_error and ratios[2] is hat_error and ratios[3] == 0.75
        assert isinstance(ratios[1], DomainError)
        assert str(ratios[1]) == "profile 'zero' has zero L_1.2 norm"


def family_nodes(seed, count):
    """Nodes inside and past every bump's support, and far into the
    Gaussian tails, where exp underflows and the value is 0, with the
    profile index of each."""
    rng = np.random.default_rng(seed)
    r = np.concatenate(
        [[0.0, 5.0, 50.0], rng.uniform(0.0, 6.0, 4000), np.geomspace(1e-8, 1e9, 300)]
    )
    return r, rng.integers(0, count, r.size)


def family_reference(form, i, r):
    """(value, scale) of profile i of a family's array form at r: each exp's
    argument formed in doubles as ``values`` forms it, the exp and all that
    follows in mpmath at 100 digits.  ``scale`` is the sum of the
    magnitudes of the terms the double value is rounded from."""
    with mp.workdps(100):
        if isinstance(form, verify._Mixtures):
            terms = [
                mp.mpf(w) * mp.exp(-(r * r) * c)
                for w, c in zip(form.w[:, i].tolist(), form.c[:, i].tolist())
            ]
            return mp.fsum(terms), mp.fsum(abs(t) for t in terms)
        if isinstance(form, verify._PolyGaussians):
            poly = 0.0
            for a in form.horner[:, i].tolist():
                poly = poly * r + a
            value = poly * mp.exp(-r * r * form.c[i])
        else:
            u = r * form.inv_radius[i]
            value = form.amplitude[i] * mp.exp(-1.0 / (1.0 - u * u)) if u < 1.0 else mp.mpf(0)
        return value, abs(value)


def previous_values(form, r, which):
    """Each family form's ``values`` as it was first written: 2-D fancy
    gathers of a (profiles x width) table, the mixture's terms summed by
    ``sum(axis=1)``, and every bump's amplitude gathered before its
    ``inside`` nodes were picked."""
    if isinstance(form, verify._Mixtures):
        terms = form.w.T[which] * np.exp(-(r * r)[:, None] * form.c.T[which])
        return terms.sum(axis=1)
    if isinstance(form, verify._PolyGaussians):
        rows = form.horner.T[which]
        poly = np.zeros(r.size)
        for k in range(rows.shape[1]):
            poly = poly * r + rows[:, k]
        return poly * np.exp(-r * r * form.c[which])
    u = r * form.inv_radius[which]
    out = np.zeros(r.size)
    inside = u < 1.0
    u = u[inside]
    out[inside] = form.amplitude[which][inside] * np.exp(-1.0 / (1.0 - u * u))
    return out


class TestFamilyArrayForms:
    @pytest.mark.parametrize("seed", range(7))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_values_equal_previous_formula(self, family, seed):
        # Bit for bit, so the sign of every zero counts: a negative bump or
        # polynomial keeps its -0.0 past its underflow.
        profiles = generate_profiles(RandomRadialSpec(seed=seed, family=family, count=40))
        values = profiles[0].family[0]
        r, which = family_nodes(seed, len(profiles))
        got = values(r, which)
        expected = previous_values(values.__self__, r, which)
        assert got.tobytes() == expected.tobytes()
        assert (expected == 0.0).any()

    def test_mixture_of_negative_zeros_is_positive_zero(self):
        # Every term is -1 or -2 times an exp that underflows: -0.0.
        form = verify._Mixtures([([-1.0, -2.0], [0.5, 1.0])])
        r = np.array([1e3, 1e9])
        which = np.zeros(2, dtype=int)
        got = form.values(r, which).tobytes()
        assert got == previous_values(form, r, which).tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_values_equal_scalar_f(self, family, seed):
        # A profile's f is its family's values at one point, and a node's
        # value is the one it gets alone, in any batch: bit for bit.
        profiles = generate_profiles(RandomRadialSpec(seed=seed, family=family, count=40))
        assert [p.family[1] for p in profiles] == list(range(40))
        (values,) = {p.family[0] for p in profiles}
        r, which = family_nodes(seed, len(profiles))
        batch = values(r, which).tolist()
        alone = [
            values(np.array([x]), np.array([i]))[0] for x, i in zip(r.tolist(), which.tolist())
        ]
        assert alone == batch
        assert [profiles[i].f(x) for x, i in zip(r[1:].tolist(), which[1:].tolist())] == batch[1:]
        assert profiles[which[0]].f(0.0) == 0.0
        assert 0.0 in batch and any(v != 0.0 for v in batch)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_values_match_mpmath(self, family):
        # numpy's exp is within a few ulps: each value within 4 ulps of the
        # magnitudes it sums, and 0 where the reference rounds to 0.
        profiles = generate_profiles(RandomRadialSpec(seed=3, family=family, count=40))
        values = profiles[0].family[0]
        r, which = family_nodes(3, len(profiles))
        tiny = mp.mpf(2) ** -1074
        underflows = 0
        for x, i, got in zip(r.tolist(), which.tolist(), values(r, which).tolist()):
            value, scale = family_reference(values.__self__, i, x)
            assert abs(got - value) <= 4 * 2.0**-52 * scale + tiny, (x, i, got)
            if scale < tiny / 2:
                assert got == 0.0
                underflows += scale > 0
        assert underflows > 0 or family == "compact_bump"

    def test_empty_family(self):
        assert generate_profiles(RandomRadialSpec(seed=0, family="compact_bump", count=0)) == []
