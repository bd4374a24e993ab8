"""The kernel integrals of one dimension run as one block.

``integrate_oscillatory_bessel_block`` sums the integrals of one Bessel
order in lockstep: every checkpoint's cells of every integral still
running are one ``_integrate_block`` call, and each round values J_nu once
per distinct node.  Each integral must still end exactly as it does
alone, its error included, and the block must make fewer, smaller
``bessel_j_array`` calls than the integrals one at a time.  The transforms
of a block of profiles value each distinct radius of a round once too.
"""

import pytest

from sphrestrict import quadrature, radial_fourier, restriction, special_fns
from sphrestrict.cli import _grid, build_parser, main
from sphrestrict.errors import ConvergenceError, DomainError
from sphrestrict.quadrature import (
    OscillatoryIntegrand,
    integrate_oscillatory_bessel,
    integrate_oscillatory_bessel_block,
)
from sphrestrict.restriction import RestrictionParams, evaluate_grid
from sphrestrict.special_fns import BesselOrder
from sphrestrict.verify import RandomRadialSpec, generate_profiles

# The grids of the benchmark's sweep and highdim jobs.
SWEEP = ["sweep", "--d", "2:4:3", "--p", "1.1:1.6:12", "--q", "1:3:5"]
HIGHDIM = ["report", "--d", "4:16:4", "--p", "1.05:1.55:6", "--q", "2"]
TIGHT = ["sweep", "--d", "2:4:3", "--p", "1.2", "--q", "2"]


def grid(argv):
    return _grid(build_parser()[0].parse_args(argv))


def kernel_specs(d, ps):
    """The kernel integrands of the in-window exponents ``ps`` of ``d``."""
    specs = []
    for p in dict.fromkeys(ps):
        params = RestrictionParams(d, p, 1.0)
        if restriction.radial_convergence_admissible(d, p):
            specs.append(OscillatoryIntegrand(params.kernel.order, params.beta, params.p_prime))
    return specs


def lone(spec, tol):
    """``integrate_oscillatory_bessel`` of one integrand, or its error."""
    try:
        return integrate_oscillatory_bessel(spec, tol)
    except (DomainError, ConvergenceError) as exc:
        return exc


def same_outcome(got, expected):
    if isinstance(expected, Exception):
        return type(got) is type(expected) and str(got) == str(expected)
    return got == expected


def by_dimension(argv):
    dims = {}
    for params in grid(argv):
        dims.setdefault(params.d, []).append(params.p)
    return dims


@pytest.mark.parametrize("argv", [SWEEP, HIGHDIM], ids=["sweep", "highdim"])
def test_every_grid_point_equals_its_lone_run(argv):
    # QuadResult equality covers value, error_estimate, evaluations and
    # converged; highdim holds 10 points that fail alone.
    outcomes = []
    for d, ps in by_dimension(argv).items():
        specs = kernel_specs(d, ps)
        block = integrate_oscillatory_bessel_block(specs, 1e-9)
        for spec, got in zip(specs, block):
            expected = lone(spec, 1e-9)
            assert same_outcome(got, expected), (d, spec.power)
            outcomes.append(got)
    unconverged = [o for o in outcomes if isinstance(o, Exception) or not o.converged]
    assert len(outcomes) == {"sweep": 26, "report": 24}[argv[0]]
    assert len(unconverged) == {"sweep": 0, "report": 10}[argv[0]]


def test_mixed_orders_and_regimes_in_one_block():
    # Each order is its own partition; a signed integrand alternates on its
    # own schedule; a divergent one fails alone.
    specs = [
        OscillatoryIntegrand(BesselOrder(0.5), 0.0, 1.0, signed=True),
        OscillatoryIntegrand(BesselOrder(0.0), 2.0, 5.0),
        *kernel_specs(3, [1.2, 1.4]),
        *kernel_specs(2, [1.2]),
    ]
    block = integrate_oscillatory_bessel_block(specs, 1e-10)
    for spec, got in zip(specs, block):
        assert same_outcome(got, lone(spec, 1e-10))
    assert "tail exponent" in str(block[1])


def test_lost_zero_fails_only_the_exponents_still_running(monkeypatch):
    # Alone at d = 3, p = 1.2 and 1.3 stop at the checkpoint of 24 arches,
    # 1.4 at 32 and 1.45 at 40.  With every zero past 30 lost, the
    # checkpoint of 32 fails, and with it exactly the two exponents that
    # reach it.
    real = quadrature.bessel_j_zero

    def zero(nu, k):
        if k > 30:
            raise ConvergenceError(f"zero {k} of J_{nu} withheld")
        return real(nu, k)

    monkeypatch.setattr(quadrature, "bessel_j_zero", zero)
    specs = kernel_specs(3, [1.2, 1.3, 1.4, 1.45])
    block = integrate_oscillatory_bessel_block(specs, 1e-9)
    for spec, got in zip(specs, block):
        assert same_outcome(got, lone(spec, 1e-9))
    assert [type(o) for o in block] == [quadrature.QuadResult] * 2 + [ConvergenceError] * 2
    assert str(block[2]) == "zero 31 of J_0.5 withheld"


def test_zero_integral_fails_inside_a_batch():
    # At d = 60 every arch of p = 1.05 underflows to 0 (beta = -550), while
    # p = 1.9 in the same block converges.
    specs = kernel_specs(60, [1.05, 1.9])
    underflow, converged = integrate_oscillatory_bessel_block(specs, 1e-9)
    assert isinstance(underflow, ConvergenceError)
    assert "not positive" in str(underflow) and "underflow" in str(underflow)
    assert converged.converged and converged.value > 0.0
    with pytest.raises(ConvergenceError, match="underflow"):
        integrate_oscillatory_bessel(specs[0], 1e-9)


REGIMES = ("_series_array", "_miller_array", "_half_integer_array", "_hankel_array")


def valued_points(monkeypatch, module):
    """Per call that ``module`` makes of ``bessel_j_array``, the number of
    points it values: those its regime functions receive.  Each distinct
    point is valued once, and a point at 0 is not valued."""
    calls, active = [], []

    def regime(real):
        def counted(nu, x):
            if active:
                calls[-1] += x.size
            return real(nu, x)

        return counted

    for name in REGIMES:
        monkeypatch.setattr(special_fns, name, regime(getattr(special_fns, name)))
    real = module.bessel_j_array

    def counted(order, x):
        calls.append(0)
        active.append(True)
        try:
            return real(order, x)
        finally:
            active.pop()

    monkeypatch.setattr(module, "bessel_j_array", counted)
    return calls


def test_sweep_grid_values_each_node_once_per_round(monkeypatch):
    # One at a time, the sweep grid's 26 kernel integrals valued J at
    # 239,460 nodes in 795 calls.  Valued once per distinct node in each
    # round of a dimension's block they took 99,390 nodes in 364 calls, and
    # with the cell tolerance clamped at 100 eps 33,510 nodes (of 120,540
    # passed) in 78 calls.  Arches refined from both ends in each round take
    # 34,170 nodes in 30 calls: the bounds leave under 5% headroom over that.
    calls = valued_points(monkeypatch, quadrature)
    monkeypatch.setattr(restriction, "_KERNEL_INTEGRALS", {})
    points = evaluate_grid(grid(SWEEP), 1e-9)
    assert sum(isinstance(pt.sharp, restriction.SharpConstantResult) for pt in points) == 130
    assert sum(calls) <= 35_000 and len(calls) <= 32


def test_mixture_transforms_value_each_radius_once_per_round(monkeypatch):
    # The transforms of 200 mixture profiles share most of their nodes:
    # valued once per distinct radius of a round they take 1,804 points in
    # 14 calls; the bounds leave 5% headroom over that.
    calls = valued_points(monkeypatch, radial_fourier)
    profiles = generate_profiles(RandomRadialSpec(5, "gaussian_mixture", 200))
    ratios = restriction.ratios_z(RestrictionParams(3, 1.2, 2.0), profiles)
    assert not any(isinstance(ratio, Exception) for ratio in ratios)
    assert sum(calls) <= 1_894 and len(calls) <= 14


def test_tight_grid_refines_no_arch_to_its_limit(monkeypatch):
    # At tol = 1e-12 the arches' tol / 100 used to lie under GK15's 50 eps
    # round-off floor: four arches refined to their 4,000-panel limit
    # unconverged, 31,996 of the grid's 33,370 panels.  Clamped at 100 eps
    # every arch converges, in 878 panels.
    cells = []
    real = quadrature._integrate_cells

    def record(f, edges, tol):
        results = real(f, edges, tol)
        cells.extend(results)
        return results

    monkeypatch.setattr(quadrature, "_integrate_cells", record)
    monkeypatch.setattr(restriction, "_KERNEL_INTEGRALS", {})
    points = evaluate_grid(grid(TIGHT), 1e-12)
    assert all(isinstance(pt.sharp, restriction.SharpConstantResult) for pt in points)
    assert all(cell.converged for cell in cells)
    assert sum(cell.evaluations for cell in cells) // 15 <= 2_000


# The highdim points whose kernel integral does not converge at 1e-9.
HIGHDIM_FAILED = {
    (8, 1.05), (8, 1.15), (12, 1.05), (12, 1.15), (12, 1.25),
    (16, 1.05), (16, 1.15), (16, 1.25), (16, 1.35), (16, 1.45),
}


def test_highdim_grid_ends_hopeless_sums_at_their_first_checkpoint(monkeypatch):
    # Its 10 failing sums fail the tolerance by their arches' own error
    # from the first checkpoint on.  Run to the last checkpoint they took
    # 8,000 of the grid's 8,344 arches; stopped there, the grid takes 584.
    arches = []
    real = quadrature._integrate_cells

    def record(f, edges, tol):
        arches.append(len(edges))
        return real(f, edges, tol)

    monkeypatch.setattr(quadrature, "_integrate_cells", record)
    monkeypatch.setattr(restriction, "_KERNEL_INTEGRALS", {})
    points = evaluate_grid(grid(HIGHDIM), 1e-9)
    failed = {
        (pt.params.d, round(pt.params.p, 2)) for pt in points
        if isinstance(pt.sharp, ConvergenceError)
    }
    assert failed == HIGHDIM_FAILED
    assert sum(arches) <= 600


def test_memo_holds_errors(monkeypatch):
    # A lost zero is computed once, not once per q.
    blocks = []
    real = restriction.integrate_oscillatory_bessel_block

    def record(specs, tol):
        blocks.append(len(specs))
        return real(specs, tol)

    monkeypatch.setattr(restriction, "integrate_oscillatory_bessel_block", record)
    monkeypatch.setattr(restriction, "_KERNEL_INTEGRALS", {})
    points = evaluate_grid([RestrictionParams(96, 1.02, q) for q in (1.0, 2.0, 3.0)], 1e-9)
    assert blocks == [1]
    assert all("a zero was lost" in str(pt.sharp) for pt in points)


@pytest.mark.parametrize(
    "argv, tol, bound",
    [(SWEEP, 1e-9, 9), (TIGHT, 1e-12, 9), (HIGHDIM, 1e-9, 5)],
    ids=["sweep", "tight", "highdim"],
)
def test_first_zeros_of_a_grid_take_one_newton_run(monkeypatch, argv, tol, bound):
    # The zero finder made one J_nu and one J_{nu+1} call per Newton step
    # of each order: 25 calls on sweep and tight, 34 on highdim.  The first
    # zeros of every order in one run, J_nu and J_{nu+1} in one call per
    # step, take 9, 9 and 5.  The zero table is emptied, so that every
    # zero comes from a Newton run.
    calls = valued_points(monkeypatch, special_fns)
    monkeypatch.setattr(special_fns, "_zero_table", dict)
    monkeypatch.setattr(special_fns, "_ZEROS", {})
    monkeypatch.setattr(restriction, "_KERNEL_INTEGRALS", {})
    evaluate_grid(grid(argv), tol)
    assert len(calls) <= bound


def test_tight_grid_sums_its_slow_arches_by_zero_chunk(monkeypatch):
    # At 1e-12 the d = 2 sum fails 8 checkpoints (24 -> 88 arches).  One
    # block per checkpoint took 11 ``_integrate_cells`` calls and 24 GK15
    # rounds; past its third failed checkpoint a sum integrates ahead to
    # the end of its zero chunk, and the grid takes 7 and 16.
    blocks = []
    real = quadrature._integrate_cells

    def record(f, edges, tol):
        blocks.append(len(edges))
        return real(f, edges, tol)

    monkeypatch.setattr(quadrature, "_integrate_cells", record)
    rounds = valued_points(monkeypatch, quadrature)
    monkeypatch.setattr(restriction, "_KERNEL_INTEGRALS", {})
    evaluate_grid(grid(TIGHT), 1e-12)
    assert len(blocks) <= 7 and len(rounds) <= 16


DOMINANCE = [
    "verify", "--d", "2:4:3", "--p", "1.2", "--q", "2", "--seed", "0",
    "--trials", "200", "--family", "gaussian_mixture",
]


def zero_finder_work(monkeypatch, capsys, argv, tol):
    """The ``_newton_zeros`` requests and the zero finder's ``bessel_j_array``
    calls of one grid (or ``verify`` job, ``tol`` None) with cold caches."""
    calls = []
    real = special_fns._newton_zeros

    def record(requests):
        calls.append(requests)
        return real(requests)

    monkeypatch.setattr(special_fns, "_newton_zeros", record)
    finder_j = valued_points(monkeypatch, special_fns)
    monkeypatch.setattr(special_fns, "_ZEROS", {})
    monkeypatch.setattr(restriction, "_KERNEL_INTEGRALS", {})
    if tol is None:
        assert main([*argv, "--workers", "1"]) == 0
        capsys.readouterr()
    else:
        evaluate_grid(grid(argv), tol)
    return calls, finder_j


@pytest.mark.parametrize(
    "argv, tol, runs",
    [(TIGHT, 1e-12, 3), (SWEEP, 1e-9, 3), (HIGHDIM, 1e-9, 1), (DOMINANCE, None, 1)],
    ids=["tight", "sweep", "highdim", "dominance"],
)
def test_newton_runs_of_a_grid(monkeypatch, capsys, argv, tol, runs):
    # The first 32 zeros of every order come from one Newton run, and each
    # later chunk of 32 from one more; integrating ahead stops at the end
    # of the chunk a checkpoint needs, so it starts no run of its own.  The
    # zero table is emptied, so that every zero comes from a Newton run.
    monkeypatch.setattr(special_fns, "_zero_table", dict)
    calls, _ = zero_finder_work(monkeypatch, capsys, argv, tol)
    assert len(calls) == runs


@pytest.mark.parametrize(
    "argv, tol", [(TIGHT, 1e-12), (SWEEP, 1e-9), (HIGHDIM, 1e-9), (DOMINANCE, None)],
    ids=["tight", "sweep", "highdim", "dominance"],
)
def test_tabled_zeros_serve_every_grid_without_a_newton_run(monkeypatch, capsys, argv, tol):
    # Every sum of these grids stops within zero 96, and every order has
    # d <= 33, so all their zeros come from the table: the 3/3/1/1 Newton
    # runs and the zero finder's 9/9/5/5 J calls are gone.
    calls, finder_j = zero_finder_work(monkeypatch, capsys, argv, tol)
    assert calls == [] and finder_j == []


def test_a_failing_order_is_split_by_the_zero_finder_alone(monkeypatch):
    # The zeros of J_169 (d = 340) overflow in Miller's normalisation, so
    # the grid's first Newton run raises.  When J replayed each order of a
    # call that raised, on top of the zero finder splitting the run, the
    # zero finder made 132 calls; split by the zero finder alone, 66.  The
    # zero table, which holds d = 3, is emptied.
    calls = valued_points(monkeypatch, special_fns)
    monkeypatch.setattr(special_fns, "_zero_table", dict)
    monkeypatch.setattr(special_fns, "_ZEROS", {})
    monkeypatch.setattr(restriction, "_KERNEL_INTEGRALS", {})
    small, large = evaluate_grid(
        [RestrictionParams(3, 1.2, 2.0), RestrictionParams(340, 1.002, 2.0)], 1e-9
    )
    assert isinstance(small.sharp, restriction.SharpConstantResult)
    assert isinstance(large.sharp, DomainError)
    assert len(calls) <= 66
    # Past d = 343 there is no sphere area, so no zeros are sought there.
    calls.clear()
    monkeypatch.setattr(special_fns, "_ZEROS", {})
    evaluate_grid([RestrictionParams(344, 1.2, 2.0)], 1e-9)
    assert calls == [] and special_fns._ZEROS == {}


@pytest.mark.parametrize("big", [340, 342, 344])
def test_an_order_that_fails_leaves_the_others_their_lone_run(monkeypatch, big):
    # J_169 and J_170 overflow in Miller's normalisation and J_171 in
    # Gamma(172), so the first zeros of d = 3 and d = big cannot come from
    # one Newton run: each dimension gets what it gets alone, its error
    # included (past d = 343 there is no sphere area, and no zeros are sought).
    # The zero table, which holds d = 3, is emptied.
    grid_points = [RestrictionParams(3, 1.2, 2.0), RestrictionParams(big, 1.2, 2.0)]
    monkeypatch.setattr(special_fns, "_zero_table", dict)

    def run(points):
        monkeypatch.setattr(special_fns, "_ZEROS", {})
        monkeypatch.setattr(restriction, "_KERNEL_INTEGRALS", {})
        return evaluate_grid(points, 1e-9)

    small, large = run(grid_points)
    assert small == run(grid_points[:1])[0]
    assert isinstance(large.sharp, DomainError)
    assert large.errors == run(grid_points[1:])[0].errors
    if big == 340:
        assert "nu = 169.0" in str(large.sharp) and "overflows double range" in str(large.sharp)
