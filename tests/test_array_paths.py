"""The array paths equal their references exactly, not to a tolerance.

``bessel_j_array`` is the one implementation of J_nu.  Its values on fixed
grids, and the zeros found with it, are pinned by SHA-256 digests; the
pins also catch a numpy whose elementwise ufuncs stop matching the ones
they were made with.  Kernel integrals integrate a block of arches at once
with ``_integrate_block``, and ``integrate_finite`` is the same engine on
one interval with a scalar callable.  ``sum_over_partition`` integrates
blocks of cells with a scalar callable, through the kernel integrals'
summation driver.  The references here are a node-by-node integrand (J
from the pinned ``bessel_j_array``, the rest formed one node at a time
with numpy's ufuncs at that node alone), a one-node-at-a-time adaptive
GK15 and one ``integrate_finite`` per cell; the integrand itself is
checked against mpmath.  The tail fit of a tight kernel integral
turns 1e-16 differences in the partial sums into ~1e-13 in the result, so
these tests compare with ``==``.
"""

import hashlib
import heapq
import json
import math
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from sphrestrict import quadrature, special_fns
from sphrestrict.cli import _grid, build_parser
from sphrestrict.errors import ConvergenceError, DomainError
from sphrestrict.quadrature import (
    ABS_FLOOR,
    OscillatoryIntegrand,
    QuadResult,
    _WG,
    _WGK,
    _XGK,
    _CellSum,
    _gk15_batch,
    _heap_result,
    _integrand_values,
    _integrate_block,
    _integrate_cells,
    _mapped,
    _power_law,
    _sum_cells,
    integrate_finite,
    integrate_finite_block,
    integrate_oscillatory_bessel,
    integrate_oscillatory_bessel_block,
    integrate_semi_infinite_block,
    integrate_semi_infinite_decaying,
    sum_over_partition,
)
from sphrestrict.radial_fourier import _merged_breakpoints, radial_hat
from sphrestrict.restriction import (
    RestrictionParams,
    extremal_profile,
    radial_convergence_admissible,
)
from sphrestrict.special_fns import (
    BesselOrder,
    _miller_array,
    bessel_j,
    bessel_j_array,
    bessel_j_zero,
)

from oracles import at_point

ORDERS = [0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0]
HALF_INTEGER_ORDERS = [nu for nu in ORDERS if nu % 1.0 == 0.5]
GENERAL_ORDERS = [nu for nu in ORDERS if nu not in HALF_INTEGER_ORDERS]

# SHA-256 of the bytes of J_nu on each grid below, and of zeros 1..800,
# frozen while a scalar copy of every regime still checked the array path
# with ``==``, and re-frozen once when (x/2)^nu moved from libm's pow to
# numpy's: 3,888 of the 201,769 values on these grids moved by 1 to 4
# ulps, the zeros not at all.
PINS = json.loads((Path(__file__).resolve().parent / "frozen" / "bessel_sha256.json").read_text())


def hankel_threshold(nu):
    return max(30.0, nu * (nu + 1.0))


def sha(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def series_grid(nu):
    return np.concatenate([np.linspace(0.0, 2.0, 4001), np.geomspace(1e-12, 1.0, 500)])


def half_integer_grid(nu):
    lo = max(2.0, nu)
    return np.concatenate([[lo, np.nextafter(lo, 3.0)], np.linspace(lo, 200.0, 4000)])


def below_order_grid(nu):
    # Half-integer orders fall to Miller's recurrence below x = nu.
    return np.concatenate(
        [[np.nextafter(2.0, 3.0), np.nextafter(nu, 0.0)], np.linspace(2.0, nu, 2001)[1:-1]]
    )


def miller_grid(nu):
    top = hankel_threshold(nu)
    return np.concatenate(
        [[np.nextafter(2.0, 3.0), np.nextafter(top, 0.0)], np.linspace(2.0, top, 4001)[1:-1]]
    )


def hankel_grid(nu):
    top = hankel_threshold(nu)
    return np.concatenate([[top], np.linspace(top, 2000.0, 4000), np.geomspace(top, 1e6, 300)])


def mixed_grid(nu):
    # Every regime, unsorted, with repeated zeros.
    rng = np.random.default_rng(int(10 * nu))
    xs = np.concatenate([[0.0, 0.0, 2.0, hankel_threshold(nu)], rng.uniform(0.0, 400.0, 3000)])
    rng.shuffle(xs)
    return xs


def repeated_points(nu):
    """Every point of a grid spanning the regimes twice, shuffled, with
    the regime edges 0, 2, nu and 30 among them."""
    edges = [0.0, 2.0, nu, 30.0]
    xs = np.concatenate([edges, np.linspace(0.1, 40.0, 100), mixed_grid(nu)[:100]])
    return np.random.default_rng(7).permutation(np.concatenate([xs, xs]))


GRIDS = [
    ("series", series_grid, ORDERS),
    ("half_integer", half_integer_grid, HALF_INTEGER_ORDERS),
    ("below_order", below_order_grid, [nu for nu in HALF_INTEGER_ORDERS if nu > 2.0]),
    ("miller", miller_grid, GENERAL_ORDERS),
    ("hankel", hankel_grid, GENERAL_ORDERS),
    ("mixed", mixed_grid, [0.0, 0.5, 2.5, 7.0]),
]


class TestBesselArray:
    @pytest.mark.parametrize(
        "name, grid, nu",
        [(name, grid, nu) for name, grid, orders in GRIDS for nu in orders],
        ids=[f"{name}-{nu}" for name, _, orders in GRIDS for nu in orders],
    )
    def test_pinned(self, name, grid, nu):
        assert sha(bessel_j_array(nu, grid(nu))) == PINS[name][repr(nu)]

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 3.0, 7.0])
    def test_miller_rescale(self, nu):
        # At these arguments the downward recurrence grows by more than
        # 1e530 from its 1e-280 seed, so it must pass the 1e250 rescale.
        # bessel_j_array sends x <= 2 to the series, so the regime is
        # called directly.
        xs = np.geomspace(1e-15, 1e-12, 1000)
        m_start = int(xs[-1] + max(nu, 1.0) + 40.0)
        growth = sum(math.log10((nu + m) * 2.0 / xs[-1]) for m in range(1, m_start + 1))
        assert growth > 530.0
        assert sha(_miller_array(nu, xs)) == PINS["miller_rescale"][repr(nu)]

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.5, 7.0])
    def test_each_value_its_own(self, nu):
        # A value depends on its own point alone: one-point calls give the
        # same doubles as one call over an unsorted grid.
        xs = mixed_grid(nu)[:400]
        assert [bessel_j(nu, x) for x in xs.tolist()] == bessel_j_array(nu, xs).tolist()
        assert bessel_j_array(nu, np.zeros(3)).tolist() == [1.0 if nu == 0.0 else 0.0] * 3
        # Every point twice, shuffled, with the regime edges 0, 2, nu and
        # 30: each distinct point is valued once and scattered back.
        twice = repeated_points(nu)
        assert [bessel_j(nu, x) for x in twice.tolist()] == bessel_j_array(nu, twice).tolist()

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 7.0])
    def test_small_batches(self, nu):
        # Calls of a few points, each regime slice tiny or empty.
        calls = [bessel_j_array(nu, np.linspace(0.1, 80.0, n)) for n in (1, 5, 20, 40)]
        got = np.concatenate(calls)
        assert sha(got) == PINS["small"][repr(nu)]

    @pytest.mark.parametrize("nu", ORDERS)
    def test_zeros_pinned(self, nu):
        zeros = [bessel_j_zero(nu, k) for k in range(1, 801)]
        assert sha(zeros) == PINS["zeros"][repr(nu)]

    def test_shape_kept(self):
        xs = np.linspace(0.5, 50.0, 60).reshape(3, 4, 5)
        got = bessel_j_array(1.0, xs)
        assert got.shape == xs.shape
        assert got.ravel().tolist() == bessel_j_array(1.0, xs.ravel()).tolist()
        twice = repeated_points(2.5)[:120].reshape(2, 3, 20)
        got = bessel_j_array(2.5, twice)
        assert got.shape == twice.shape
        assert got.ravel().tolist() == [bessel_j(2.5, x) for x in twice.ravel().tolist()]

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_bad_points(self, bad):
        with pytest.raises(DomainError):
            bessel_j_array(0.0, np.array([1.0, bad]))
        with pytest.raises(DomainError):
            bessel_j_array([0.0, 1.0], np.array([1.0, bad]))
        with pytest.raises(DomainError, match="Bessel order"):
            bessel_j_array([0.0, bad], np.array([1.0, 2.0]))

    def test_order_per_point(self, monkeypatch):
        # One call of several orders gives each point the double that its
        # order's own call gives, in every regime and at each order's
        # regime edges x = 0, 2, nu, 30 and nu(nu + 1); each regime values
        # the points of all its orders in one pass.
        orders = [0.0, 0.5, 1.0, 2.0, 3.0, 7.0, 20.5]
        grids = {}
        for nu in orders:
            edges = [0.0, 2.0, nu, 30.0, nu * (nu + 1.0)]
            grids[nu] = np.concatenate([
                edges, np.nextafter(edges, 0.0), np.nextafter(edges, math.inf),
                np.linspace(0.05, 2.0, 40), np.linspace(2.0, 600.0, 400),
            ])
        nus = np.concatenate([np.full(xs.size, nu) for nu, xs in grids.items()])
        xs = np.concatenate(list(grids.values()))
        # Shuffled, each (order, point) twice.
        shuffle = np.random.default_rng(5).permutation(2 * xs.size)
        nus, xs = np.tile(nus, 2)[shuffle], np.tile(xs, 2)[shuffle]
        passes = []

        def counted(name):
            real = getattr(special_fns, name)

            def regime(nu, x):
                passes.append(name)
                return real(nu, x)

            return regime

        for name in ("_series_array", "_miller_array", "_half_integer_array", "_hankel_array"):
            monkeypatch.setattr(special_fns, name, counted(name))
        got = bessel_j_array(nus, xs)
        assert sorted(passes) == [
            "_half_integer_array", "_hankel_array", "_miller_array", "_series_array"
        ]
        monkeypatch.undo()
        for nu in orders:
            mine = nus == nu
            assert got[mine].tolist() == bessel_j_array(nu, xs[mine]).tolist(), nu
        # The orders broadcast against the points.
        square = np.linspace(0.5, 60.0, 12).reshape(3, 4)
        column = np.array([[0.0], [2.5], [7.0]])
        got = bessel_j_array(column, square)
        assert got.shape == (3, 4)
        for row, nu in enumerate(column.ravel().tolist()):
            assert got[row].tolist() == bessel_j_array(nu, square[row]).tolist()

    def test_overflowing_normalisation_terms_stay_masked(self):
        # At nu = 140 the factors (nu + 2k) Gamma(nu + k) / k! of Miller's
        # normalisation sum leave double range; an element's zero column
        # above its own m_start must not turn inf * 0 into NaN.
        xs = np.linspace(2.5, 60.0, 200)
        assert not np.isnan(bessel_j_array(140.0, xs)).any()
        assert not np.isnan(bessel_j_array(np.repeat([7.0, 140.0], 200), np.tile(xs, 2))).any()

    def test_orders_fail_as_they_do_alone(self, monkeypatch):
        # J_170 overflows in Miller's normalisation and J_171 already in
        # Gamma(172), each a DomainError.  A call of several orders raises
        # the DomainError of one of its failing orders, in its one pass:
        # it calls no order alone again.  Miller's recurrence takes Gamma
        # and (x/2)^nu order by order, so there the lowest failing order
        # raises what it raises alone.
        xs = np.array([5.0, 190.0, 197.0])
        with pytest.raises(DomainError) as alone:
            bessel_j_array(170.0, xs)
        assert "nu = 170.0" in str(alone.value) and "(x/2)^nu overflows" in str(alone.value)
        gamma_overflow = r"nu = 171\.0: Gamma\(nu \+ 1\) overflows double range"
        with pytest.raises(DomainError, match=gamma_overflow) as gamma_171:
            bessel_j_array(171.0, xs)
        calls = []
        real = special_fns.bessel_j_array

        def counted(order, x):
            calls.append(order)
            return real(order, x)

        monkeypatch.setattr(special_fns, "bessel_j_array", counted)
        with pytest.raises(DomainError) as mixed:
            special_fns.bessel_j_array(np.repeat([1.0, 170.0, 171.0], 3), np.tile(xs, 3))
        assert str(mixed.value) == str(alone.value)
        with pytest.raises(DomainError) as mixed:
            special_fns.bessel_j_array(np.repeat([1.0, 171.0], 3), np.tile(xs, 2))
        assert str(mixed.value) == str(gamma_171.value)
        assert len(calls) == 2

    def test_batched_zeros_equal_each_order_alone(self, monkeypatch):
        # Zeros 1..32 of J_nu, nu = (d - 2)/2 for d = 2..60, and of the
        # orders 149-171 that fail on the way (zeros not bracketed or lost,
        # (x/2)^nu or Gamma(nu + 1) overflowing), found in one Newton run,
        # equal those each order finds alone, errors included.
        orders = [(d - 2) / 2.0 for d in range(2, 61)] + [149.0, 159.0, 169.0, 170.5, 171.0]

        def outcomes(zeros):
            return [
                (type(z).__name__, str(z)) if isinstance(z, Exception) else z for z in zeros
            ]

        monkeypatch.setattr(special_fns, "_ZEROS", {})
        special_fns.find_first_zeros(orders)
        batched = dict(special_fns._ZEROS)
        assert sorted(batched) == orders
        for nu in orders:
            monkeypatch.setattr(special_fns, "_ZEROS", {})
            alone = []
            for k in range(1, 33):
                try:
                    alone.append(bessel_j_zero(nu, k))
                except (ConvergenceError, DomainError) as exc:
                    alone.append(exc)
            assert outcomes(batched[nu]) == outcomes(alone), nu
            assert all(isinstance(z, float) for z in alone) == (nu < 149.0), nu


def scalar_integrand(spec, bessel=bessel_j):
    """The integrand one node at a time, with J_nu(r) = ``bessel(nu, r)``
    and numpy's pow, exp and log at that node alone (``at_point``); kept
    here as the reference of the array path."""
    nu = spec.order.nu
    power = spec.power
    beta = spec.beta

    def integrand(r):
        if r <= 0.0:
            return 0.0
        j = bessel(nu, r)
        r_beta = at_point(np.power, r, beta)
        if spec.signed:
            return r_beta * at_point(np.power, j, power)
        aj = abs(j)
        if aj == 0.0:
            return 0.0
        direct = r_beta * at_point(np.power, aj, power)
        if r < 1e-3 or math.isinf(r_beta) or (direct == 0.0 and r_beta > 1.0):
            return at_point(np.exp, beta * at_point(np.log, r) + power * at_point(np.log, aj))
        return direct

    return integrand


def assert_power_law_near_mpmath(a, b, r, y, got):
    """Each ``got`` within the error bound of its branch (see
    ``test_integrand_values_match_mpmath``) of the exact r^a |y|^b,
    computed by mpmath at 200 bits from the doubles r and y; values the
    exact one rounds to 0 must be 0.  The log-space branch is the one
    ``_power_law`` takes: below r = 1e-3, where r^a overflows, and where
    |y|^b underflows to 0 while r^a > 1."""
    eps = mp.mpf(2) ** -52
    tiny = mp.mpf(2) ** -1074
    with mp.workprec(200), np.errstate(over="ignore"):
        for x, yx, g in zip(r, y, got):
            exact = mp.mpf(x) ** mp.mpf(a) * abs(mp.mpf(yx)) ** mp.mpf(b)
            r_a = at_point(np.power, x, a)
            underflows = yx != 0.0 and r_a > 1.0 and r_a * at_point(np.power, abs(yx), b) == 0.0
            if x < 1e-3 or math.isinf(r_a) or underflows:
                logs = abs(a * math.log(x))
                logs += abs(b * math.log(abs(yx))) if yx != 0.0 else 0.0
                ulps = 2 * (1 + logs)
            else:
                ulps = 3
            assert abs(mp.mpf(g) - exact) <= ulps * eps * exact + tiny, (x, yx, g)
            if exact < tiny / 2:
                assert g == 0.0, (x, yx, g)


def recording_values(nodes):
    """``_integrand_values`` that also appends each array of nodes it is
    asked for to the list ``nodes``."""

    def values(spec, r):
        nodes.append(np.array(r, dtype=float))
        return _integrand_values(spec, r)

    return values


def recording_power(nodes):
    """``_power_law`` that also appends each array of nodes it is given to
    the list ``nodes``: the nodes of every round of a kernel integral."""

    def values(r, a, y, b, signed=False):
        nodes.append(np.array(r, dtype=float))
        return _power_law(r, a, y, b, signed)

    return values


def reference_sum(block, boundary, tail_exponent, tol, c0=None):
    """One ``_CellSum`` driven checkpoint by checkpoint, its cells from
    ``block(k0, k1)``: what ``_sum_cells`` does for a sum run alone."""
    total = _CellSum(tail_exponent, tol, c0)
    while total.outcome is None:
        k0 = len(total.partial)
        xs = [boundary(k) for k in range(k0 + 1, total.checkpoint + 1)]
        total.add(block(k0, total.checkpoint), xs)
    return total.outcome


def previous_sum_cells(f, boundary, sums, tol):
    """``quadrature._sum_cells`` as it was when every block ended at the
    next checkpoint of each sum: a sum that stops never has a cell past
    its checkpoint computed."""
    while True:
        spans = {}
        running = []
        edges = []
        owner = []
        for i, cell_sum in enumerate(sums):
            if cell_sum.outcome is not None:
                continue
            span = (len(cell_sum.partial), cell_sum.checkpoint)
            if span not in spans:
                try:
                    spans[span] = quadrature._cell_edges(boundary, *span)
                except (DomainError, ConvergenceError) as exc:
                    spans[span] = exc
            cells = spans[span]
            if isinstance(cells, Exception):
                cell_sum.outcome = cells
                continue
            running.append((cell_sum, len(edges), cells))
            edges += cells
            owner += [i] * len(cells)
        if not running:
            return
        owners = np.array(owner)
        results = quadrature._integrate_cells(lambda x, which: f(x, owners[which]), edges, tol)
        for cell_sum, start, cells in running:
            cell_sum.add(results[start:start + len(cells)], [b for _, b in cells])


def previous_outcome(boundary, tail_exponent, tol=1e-9):
    """The outcome of one sum over ``boundary`` under ``previous_sum_cells``."""
    total = _CellSum(tail_exponent, tol)
    previous_sum_cells(None, boundary, [total], tol)
    return total.outcome


def fake_cells(requested, value, error=0.0):
    """An ``_integrate_cells`` stand-in that records each block's first and
    last edge and gives every cell [a, b] the converged result
    ``value(b)`` with ``error`` and 15 evaluations."""
    def integrate_cells(f, edges, tol):
        requested.append((int(edges[0][0]), int(edges[-1][1])))
        return [QuadResult(value(b), error, 15, True) for _, b in edges]

    return integrate_cells


def node_by_node(spec, nodes):
    """``scalar_integrand(spec)`` with J_nu at the recorded ``nodes`` valued
    by one ``bessel_j_array`` call, made when the reference first asks for
    a node not yet valued (TestBesselArray pins those values, and a value
    depends on its own point alone); any other node takes ``bessel_j``.
    Everything else in the integrand, r^beta, the log-space branch and the
    sign, is formed node by node apart from ``_integrand_values``."""
    j = {}

    def bessel(nu, x):
        if x not in j and nodes:
            xs = np.concatenate(nodes)
            nodes.clear()
            j.update(zip(xs.tolist(), bessel_j_array(nu, xs).tolist()))
        return j[x] if x in j else bessel_j(nu, x)

    return scalar_integrand(spec, bessel)


def loop_gk15_rule(fs, h):
    """QUADPACK's (G7, K15) rule (``dqk15``) on one panel of half-width h
    from its 15 values (the centre, then the left nodes c - h x_j, then the
    right nodes c + h x_j), as its loop over j = 0..6 in scalar floats;
    (200 err / resasc)^1.5 is numpy's pow at that point alone."""
    fc = fs[0]
    resg = fc * _WG[3]
    resk = fc * _WGK[7]
    resabs = abs(fc) * _WGK[7]
    for j in range(7):
        f1 = fs[1 + j]
        f2 = fs[8 + j]
        fsum = f1 + f2
        if j % 2 == 1:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    mean = 0.5 * resk
    resasc = _WGK[7] * abs(fc - mean)
    for j in range(7):
        resasc += _WGK[j] * (abs(fs[1 + j] - mean) + abs(fs[8 + j] - mean))
    resk *= h
    resg *= h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, at_point(np.power, 200.0 * err / resasc, 1.5))
    if resabs > 1e-290:
        err = max(err, quadrature._EPS50 * resabs)
    return resk, err


def reference_gk15(f, a, b):
    """One GK15 panel with the nodes formed and evaluated one at a time."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    left = [f(c - h * x) for x in _XGK[:7]]
    right = [f(c + h * x) for x in _XGK[:7]]
    return loop_gk15_rule([f(c)] + left + right, h)


def gk15_of_values(values, h):
    """(value, error) of ``_gk15_batch`` on each panel (-h_i, h_i), whose
    integrand gives the 15 values ``values[i]`` at panel i's nodes."""
    values = np.array(values, dtype=float)

    def f(x, which):
        assert x.size == values.size
        return values.ravel()

    return list(zip(*_gk15_batch(f, [-w for w in h], list(h), list(range(len(h))))))


def reference_finite(f, a, b, tol, abs_tol, max_intervals=4000, panels=None):
    """Worst-panel-first adaptive GK15 on one interval, one panel at a time;
    each panel evaluated is appended to ``panels`` when given."""
    if panels is None:
        panels = []
    panels.append((a, b))
    v, e = reference_gk15(f, a, b)
    evals = 15
    heap = [(-e, a, b, v, e)]
    total_v, total_e = v, e
    while total_e > max(tol * abs(total_v), abs_tol) and len(heap) < max_intervals:
        neg_e, aa, bb, vv, ee = heapq.heappop(heap)
        mid = 0.5 * (aa + bb)
        if mid <= aa or mid >= bb:
            heapq.heappush(heap, (neg_e, aa, bb, vv, ee))
            break
        panels += [(aa, mid), (mid, bb)]
        v1, e1 = reference_gk15(f, aa, mid)
        v2, e2 = reference_gk15(f, mid, bb)
        evals += 30
        total_v += v1 + v2 - vv
        total_e += e1 + e2 - ee
        heapq.heappush(heap, (-e1, aa, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, bb, v2, e2))
    return _heap_result(heap, evals, tol, abs_tol)


def kernel_spec(d, p):
    p_prime = p / (p - 1.0)
    beta = (2.0 + d * (p - 2.0)) / (2.0 * (p - 1.0))
    return OscillatoryIntegrand(BesselOrder((d - 2) / 2.0), beta, p_prime)


def arch_edges(nu, k0, k1):
    return [
        (0.0 if k == 0 else bessel_j_zero(nu, k), bessel_j_zero(nu, k + 1))
        for k in range(k0, k1)
    ]


def assert_block_matches_finite(spec, edges, tol, abs_tol=1e-16):
    nodes = []
    values = recording_values(nodes)
    block = _integrate_block(lambda r, _: values(spec, r), edges, tol, abs_tol, 4000)
    f = node_by_node(spec, nodes)
    scalar = [reference_finite(f, a, b, tol, abs_tol) for a, b in edges]
    assert block == scalar
    assert [integrate_finite(f, a, b, tol, abs_tol) for a, b in edges] == scalar
    return block


class TestBlockEngine:
    def test_gk15_rule_equals_loop(self):
        # Signed values and half-widths over 1e-30..1e30, a tenth of the
        # values exactly 0, panels that are all zeros, and constant panels,
        # where resasc is often 0 while err is round-off: the column rule
        # equals the loop bit for bit, on one batch of every panel and on
        # one panel per call.
        rng = np.random.default_rng(15)
        values = []
        h = []
        for _ in range(20000):
            fs = rng.choice([-1.0, 1.0], 15) * 10.0 ** rng.uniform(-30.0, 30.0, 15)
            fs[rng.random(15) < 0.1] = 0.0
            values.append(fs)
            h.append(float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-30.0, 30.0)))
        values += [np.zeros(15)] * 2
        h += [0.5, -3.0]
        constants = rng.uniform(0.1, 10.0, 200).tolist() + [1e-300]
        values += [np.full(15, c) for c in constants]
        h += [0.5] * len(constants)
        expected = [loop_gk15_rule(fs.tolist(), w) for fs, w in zip(values, h)]
        assert expected[20000:20002] == [(0.0, 0.0), (0.0, 0.0)]
        assert gk15_of_values(values, h) == expected
        assert [gk15_of_values([fs], [w])[0] for fs, w in zip(values, h)] == expected

    def test_nan_and_inf_stay_in_their_panel(self):
        # A round holding panels with NaN or +-inf values leaves every other
        # panel's (value, error) bit-identical to a round without them, each
        # bad panel is the loop's, and no floating-point warning escapes.
        rng = np.random.default_rng(7)
        values = rng.standard_normal((40, 15)) * 10.0 ** rng.uniform(-5.0, 5.0, (40, 1))
        h = rng.uniform(1e-3, 2.0, 40).tolist()
        clean = gk15_of_values(values, h)
        bad = values.copy()
        bad[3, 0] = math.nan
        bad[7, 5] = math.inf
        bad[11, 2], bad[11, 9] = math.inf, -math.inf
        bad[20] = math.nan
        bad[25, 0] = -math.inf
        bad[31, 1:] = math.inf
        hit = {3, 7, 11, 20, 25, 31}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gk15_of_values(bad, h)
        for i, (rule, alone) in enumerate(zip(got, clean)):
            if i in hit:
                assert repr(rule) == repr(loop_gk15_rule(bad[i].tolist(), h[i]))
                assert not all(map(math.isfinite, rule))
            else:
                assert rule == alone

    def test_integrands_of_one_block(self):
        # Each interval has its own integrand, chosen by the interval index
        # of every node; each result is that interval's alone, field for
        # field, refinement depths and lookahead included.
        scalars = [
            math.sqrt,
            lambda x: math.exp(-x * x),
            lambda x: x**-0.5 if x > 0.0 else 0.0,
            lambda x: math.sin(40.0 * x),
            lambda x: 1.0 if x > 1.0 / 3.0 else -1.0,
        ]
        edges = [(0.0, 1.0), (-2.0, 3.0), (0.0, 1.0), (0.0, 2.0), (0.0, 1.0)]
        seen = []

        def f(x, which):
            seen.append(sorted(set(which.tolist())))
            return np.array([scalars[i](v) for v, i in zip(x.tolist(), which.tolist())])

        block = _integrate_block(f, edges, 1e-12, 0.0, 4000)
        alone = [integrate_finite(g, a, b, 1e-12, 0.0) for g, (a, b) in zip(scalars, edges)]
        assert block == alone
        assert block == [reference_finite(g, a, b, 1e-12, 0.0) for g, (a, b) in zip(scalars, edges)]
        assert seen[0] == [0, 1, 2, 3, 4]
        assert len({res.evaluations for res in block}) == len(block)
        assert integrate_finite_block(f, edges, 1e-12) == [
            integrate_finite(g, a, b, 1e-12) for g, (a, b) in zip(scalars, edges)
        ]

    def test_semi_infinite_block(self):
        # One block of integrands that converge, diverge, overflow at a
        # decay probe, are NaN at one or are not finite at a node: each
        # outcome is the integrand's alone, error type and message included.
        scalars = [
            lambda r: math.exp(-0.5 * r * r),
            lambda r: 1.0 / (1.0 + r),
            lambda r: r**40.0 * math.exp(-r),
            lambda r: math.nan if r > 100.0 else math.exp(-r),
            lambda r: r**3 * math.exp(-r),
            lambda r: (1.0 + r) ** -1.25 if r < 1e12 else math.inf,
        ]

        def f(r, which):
            return np.array([scalars[i](x) for x, i in zip(r.tolist(), which.tolist())])

        got = integrate_semi_infinite_block(f, len(scalars), 1e-9)
        for g, outcome in zip(scalars, got):
            try:
                alone = integrate_semi_infinite_decaying(g, 1e-9)
            except (DomainError, ConvergenceError) as exc:
                assert (type(outcome), str(outcome)) == (type(exc), str(exc))
            else:
                assert outcome == alone
        assert [type(o).__name__ for o in got] == [
            "QuadResult", "DivergenceError", "DivergenceError", "DomainError",
            "QuadResult", "ConvergenceError",
        ]
        assert integrate_semi_infinite_block(f, 0, 1e-9) == []

    @pytest.mark.parametrize("d, p", [(2, 1.2), (3, 1.4), (4, 1.3), (8, 1.5)])
    def test_integrand_values(self, d, p):
        # A node's value is the one it gets alone: one-point calls equal one
        # call over every node, bit for bit, both sides of r = 1e-3 and at 0.
        spec = kernel_spec(d, p)
        rng = np.random.default_rng(d)
        edge = [0.0, 1e-6, 1e-3, np.nextafter(1e-3, 0.0)]
        r = np.concatenate([edge, rng.uniform(0.0, 120.0, 3000)])
        batch = _integrand_values(spec, r).tolist()
        assert [_integrand_values(spec, np.array([x]))[0] for x in r.tolist()] == batch
        assert spec(r).tolist() == batch

    @pytest.mark.parametrize("d, p", [(2, 1.2), (3, 1.05), (8, 1.5), (16, 1.3)])
    def test_integrand_values_match_mpmath(self, d, p):
        # r^beta |j|^p' against mpmath at the doubles r and j = J_nu(r).
        # Formed directly (r >= 1e-3) a value is within 3 ulps; in log
        # space it is exp(beta log r + p' log |j|), which carries the
        # rounding of both logs into the value, so within 2 ulps of
        # 1 + |beta log r| + |p' log |j||.  Near 0 the integrand goes like
        # r^(d-1), which underflows to 0 for d >= 3 at the smallest nodes.
        spec = kernel_spec(d, p)
        rng = np.random.default_rng(d)
        r = np.concatenate([
            [1e-300, 1e-100, 1e-30, 1e-6, np.nextafter(1e-3, 0.0), 1e-3],
            np.geomspace(1e-8, 1e-3, 100), rng.uniform(0.0, 120.0, 1000),
        ])
        j = bessel_j_array(spec.order, r)
        got = _integrand_values(spec, r).tolist()
        assert_power_law_near_mpmath(spec.beta, spec.power, r.tolist(), j.tolist(), got)
        assert (got[0] == 0.0) == (d >= 3)

    @pytest.mark.parametrize("p", [1.2, 2.0])
    def test_lp_weight_matches_mpmath(self, p):
        # The L_p norm's weight r^(d-1) |F|^p (``radial_lp_norms``) in
        # d = 36 is the same power law, with the same bounds: in log space
        # below r = 1e-3, at the decay probe r = 1e9, where r^35
        # overflows and |F|^p of F = (1 + r^2)^-15 underflows, and at
        # r = 1e6, where r^35 = 1e210 is finite but |F|^2 = 1e-360
        # underflows while the weight, 1e-150, does not.
        r = np.concatenate([
            [1e-300, 1e-30, 1e-6, np.nextafter(1e-3, 0.0)],
            np.geomspace(1e-8, 1e-3, 100), [1e-3, 1.0, 1e6, 1e9],
        ])
        fr = np.power(1.0 + r * r, -15.0)
        got = _power_law(r, 35, fr, p).tolist()
        assert_power_law_near_mpmath(35, p, r.tolist(), fr.tolist(), got)
        assert 35 * math.log(1e9) > math.log(sys.float_info.max) and got[-1] > 0.0
        assert got[-2] > 0.0

    def test_overflowing_r_beta_takes_log_space(self):
        # r^3 overflows at r = 1e200 and 1e300, the value does not.
        spec = OscillatoryIntegrand(BesselOrder(0.0), 3.0, 2.0)
        r = np.array([1e100, 1e200, 1e200, 1e300, 1e300])
        j = np.array([1e-100, 1e-250, -1e-310, 1e-300, 0.0])
        got = _power_law(r, 3.0, j, 2.0).tolist()
        assert got[-1] == 0.0 and all(math.isfinite(v) and v > 0.0 for v in got[:-1])
        assert [_power_law(r[i:i + 1], 3.0, j[i:i + 1], 2.0)[0] for i in range(r.size)] == got
        assert_power_law_near_mpmath(3.0, 2.0, r.tolist(), j.tolist(), got)

    @pytest.mark.parametrize("n", [1, 5, 400])
    def test_gk15_batch(self, n):
        # A polynomial integrand pins the error at the round-off floor, the
        # Bessel one exercises QUADPACK's (200 err / resasc)^1.5 scaling.
        rng = np.random.default_rng(n)
        a = rng.uniform(0.0, 50.0, n).tolist()
        b = [lo + w for lo, w in zip(a, rng.uniform(1e-6, 5.0, n).tolist())]
        spec = kernel_spec(3, 1.3)
        nodes = []
        values = recording_values(nodes)
        for batch_f, scalar_f in [
            (lambda r, _: r * r * r, lambda r: r * r * r),
            (lambda r, _: values(spec, r), node_by_node(spec, nodes)),
        ]:
            got = list(zip(*_gk15_batch(batch_f, a, b, list(range(n)))))
            assert got == [reference_gk15(scalar_f, lo, hi) for lo, hi in zip(a, b)]

    def test_arch_stopped_at_max_intervals(self):
        # Arch 0 of (d, p) = (2, 1.2) at tol 1e-12: its arch tolerance 1e-14
        # sits below GK15's round-off floor, so it refines to the limit.
        spec = kernel_spec(2, 1.2)
        (res,) = assert_block_matches_finite(spec, arch_edges(0.0, 0, 1), 1e-14)
        assert not res.converged
        assert res.evaluations == 15 + 30 * (4000 - 1)

    @pytest.mark.parametrize("d, p", [(2, 1.2), (3, 1.4), (4, 1.1), (16, 1.3)])
    def test_block_of_arches(self, d, p):
        spec = kernel_spec(d, p)
        results = assert_block_matches_finite(spec, arch_edges(spec.order.nu, 0, 24), 1e-11)
        assert len({res.evaluations for res in results}) > 1

    def test_machine_resolution_stop(self):
        # A jump inside a few-ulp interval: bisection reaches adjacent
        # doubles and stops there, unconverged, long before the budget.
        a = 1.0 / 3.0
        b = a
        for _ in range(16):
            b = math.nextafter(b, 1.0)
        jump = 0.5 * (a + b)

        def step(x):
            return 1.0 if x > jump else -1.0

        block = _integrate_block(
            lambda r, _: np.where(r > jump, 1.0, -1.0), [(a, b), (0.0, 1.0)], 1e-15, 0.0, 4000
        )
        scalar = [reference_finite(step, lo, hi, 1e-15, 0.0) for lo, hi in [(a, b), (0.0, 1.0)]]
        assert block == scalar
        assert not block[0].converged
        assert block[0].evaluations < 30 * 100

    def test_signed_alternating(self):
        spec = OscillatoryIntegrand(BesselOrder(1.0), 0.0, 1.0, signed=True)
        results = assert_block_matches_finite(spec, arch_edges(1.0, 0, 16), 1e-12)
        signs = [math.copysign(1.0, res.value) for res in results]
        assert all(s != t for s, t in zip(signs, signs[1:]))

    def test_bad_interval_rejected(self):
        with pytest.raises(DomainError):
            _integrate_block(lambda r: r, [(0.0, 1.0), (2.0, 2.0)], 1e-9, 1e-16, 4000)


# From this many splits on, an interval evaluates the children of
# min(splits // 16, 32) >= 2 worst panels per round; below it, one.
AHEAD_SPLITS = 32


class TestLookahead:
    """An interval with ``AHEAD_SPLITS`` splits evaluates the children of
    its worst panels ahead and commits them in heap order; the result must
    stay that of one panel per round."""

    def test_mixed_block(self):
        # Arches 0 and 1 of (2, 1.2) at 1e-14 refine to the panel limit,
        # arches 2..5 converge within a few splits, and a +-1e12 step at the
        # centre of 256 ulps bisects 255 times to machine resolution.
        spec = kernel_spec(2, 1.2)
        nodes = []
        values = recording_values(nodes)
        kernel = node_by_node(spec, nodes)
        a = 1000.0 + 1.0 / 3.0
        b = a
        for _ in range(256):
            b = math.nextafter(b, 2000.0)
        jump = 0.5 * (a + b)

        def f(x):
            return kernel(x) if x < 500.0 else (1e12 if x > jump else -1e12)

        def f_array(r, which):
            near = r < 500.0
            out = np.where(r > jump, 1e12, -1e12)
            if near.any():
                out[near] = values(spec, r[near])
            return out

        edges = arch_edges(0.0, 0, 6) + [(a, b)]
        block = _integrate_block(f_array, edges, 1e-14, 1e-16, 600)
        assert block == [reference_finite(f, lo, hi, 1e-14, 1e-16, 600) for lo, hi in edges]
        splits = [(res.evaluations - 15) // 30 for res in block]
        assert splits[:2] == [599, 599] and max(splits[2:6]) < AHEAD_SPLITS
        assert AHEAD_SPLITS < splits[6] < 599 and not block[6].converged

    @pytest.mark.parametrize("c, tol", [(-0.5, 1e-10), (-0.5, 1e-12), (-0.9, 1e-10)])
    def test_singular_endpoint(self, c, tol):
        # The halves of the panel at 0 stay worse than the other panels
        # whose children were evaluated with it, so the commits must follow
        # the heap, not the order the children were asked for.
        def f(x):
            return x**c if x > 0.0 else 0.0

        res = integrate_finite(f, 0.0, 1.0, tol, 0.0)
        assert res == reference_finite(f, 0.0, 1.0, tol, 0.0)
        assert res.converged and res.evaluations > 15 + 30 * AHEAD_SPLITS

    def test_deep_arch_calls_and_evaluations(self):
        # Arch 0 of (2, 1.2) at 1e-14 takes 4000 array calls at one panel
        # per round: the first panel and 3,999 splits.
        spec = kernel_spec(2, 1.2)
        sizes = []

        def f(r, which):
            sizes.append(r.size)
            return _integrand_values(spec, r)

        (res,) = _integrate_block(f, arch_edges(0.0, 0, 1), 1e-14, 1e-16, 4000)
        assert len(sizes) <= 400
        # Children evaluated ahead and never committed are not counted.
        assert res.evaluations == 15 + 30 * 3999 < sum(sizes) <= 1.02 * res.evaluations

    def test_node_on_t_one_evaluated_ahead(self, monkeypatch):
        # r^-0.85 (1+r)^-0.3 maps to (1-t)^-0.85 and t^-0.85 at the ends of
        # [0, 1], so the two end panels stay worst together.  At 4.5e-3 the
        # children of the panel at t = 1, one of whose nodes rounds onto 1,
        # are evaluated ahead, and the interval converges before it commits
        # them; the result is that of one panel per round, which never
        # evaluates that node (the reference divides by zero there).
        def f(r):
            return r**-0.85 * (1.0 + r) ** -0.3 if r > 0.0 else 0.0

        def mapped(t):
            u = 1.0 - t
            fr = f(t / u)
            return 0.0 if fr == 0.0 else fr / (u * u)

        at_one = []
        batch = quadrature._gk15_batch

        def spy(g, a, b, which):
            return batch(
                lambda x, w: at_one.append(bool((x == 1.0).any())) or g(x, w), a, b, which
            )

        monkeypatch.setattr(quadrature, "_gk15_batch", spy)
        res = integrate_semi_infinite_decaying(f, 4.5e-3)
        assert any(at_one) and res.converged
        assert res == reference_finite(mapped, 0.0, 1.0, 4.5e-3, ABS_FLOOR, 6000)

    def test_shallow_block_keeps_its_node_arrays(self):
        # Every interval stops within AHEAD_SPLITS splits (26 where sqrt's
        # derivative blows up at 0, 0 or 1 elsewhere), so round n evaluates
        # the n-th split of each interval that makes one, in interval
        # order, exactly as one panel per round always did.
        edges = [(0.0, 1.0), (1.0, 2.0), (0.0, 0.25), (2.0, 5.0), (0.0, 3.0)]
        got = []

        def f(r, which):
            got.append(r.tolist())
            return np.sqrt(r)

        _integrate_block(f, edges, 1e-13, 0.0, 4000)
        logs = []
        for lo, hi in edges:
            logs.append([])
            reference_finite(math.sqrt, lo, hi, 1e-13, 0.0, panels=logs[-1])
        rounds = max(len(log) for log in logs) // 2 + 1
        expected = []

        def record(r, which):
            expected.append(r.tolist())
            return np.zeros(r.size)

        for n in range(rounds):
            panels = [p for log in logs for p in log[max(0, 2 * n - 1):2 * n + 1]]
            lo, hi = [lo for lo, _ in panels], [hi for _, hi in panels]
            _gk15_batch(record, lo, hi, [0] * len(panels))
        assert got == expected
        assert rounds - 1 == 26 < AHEAD_SPLITS


def cell_tolerance(tol):
    """The per-cell tolerance of a sum to relative ``tol``: tol / 100, at
    most 1e-12 and at least 100 eps, twice GK15's round-off floor."""
    return max(min(1e-12, tol * 1e-2), 100.0 * 2.220446049250313e-16)


class TestCellsFromBothEnds:
    """``_integrate_cells`` asks each round for the children of at least
    its 2 worst panels per cell, and one level deeper at the cell's ends,
    where an arch's integrand vanishes; every cell must still be the one of
    one panel per round, in fewer rounds than the rule of other blocks."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-11, 1e-14])
    @pytest.mark.parametrize("d, p", [(2, 1.2), (3, 1.05), (8, 1.5)])
    def test_arches_equal_one_panel_per_round(self, d, p, tol):
        spec = kernel_spec(d, p)
        edges = arch_edges(spec.order.nu, 0, 24)
        nodes = []
        values = recording_values(nodes)
        rounds = []

        def f(r, which):
            rounds.append(r.size)
            return values(spec, r)

        got = _integrate_cells(f, edges, tol)
        kernel = node_by_node(spec, nodes)
        assert got == [reference_finite(kernel, a, b, cell_tolerance(tol), 1e-16) for a, b in edges]
        alone = []
        _integrate_block(
            lambda r, _: alone.append(r.size) or _integrand_values(spec, r),
            edges, cell_tolerance(tol), 1e-16, 4000,
        )
        assert len(rounds) < len(alone)

    def test_cells_at_their_limits(self):
        # A sawtooth of 1e8 teeth per unit never resolves: its cell refines
        # to the 4,000-panel limit unconverged, which one panel per round
        # takes 4,000 array calls to reach.  1 / (r - a) on a cell of 8 ulps
        # from a bisects to machine resolution at its singular end, where a
        # split one level deeper would have no room.  Arch 0 of (2, 1.2)
        # beside them converges.
        spec = kernel_spec(2, 1.2)
        a = 1.0 / 3.0
        b = a
        for _ in range(8):
            b = math.nextafter(b, 1.0)
        edges = arch_edges(0.0, 0, 1) + [(0.0, 1.0), (a, b)]
        nodes = []
        values = recording_values(nodes)
        rounds = []

        def f(r, which):
            rounds.append(r.size)
            out = np.mod(1e8 * r, 1.0)
            out[which == 2] = 1.0 / np.maximum(r[which == 2] - a, 1e-300)
            arch = which == 0
            out[arch] = values(spec, r[arch])
            return out

        got = _integrate_cells(f, edges, 1e-11)
        scalars = [
            node_by_node(spec, nodes),
            lambda x: (1e8 * x) % 1.0,
            lambda x: 1.0 / max(x - a, 1e-300),
        ]
        expected = [
            reference_finite(g, lo, hi, cell_tolerance(1e-11), 1e-16)
            for g, (lo, hi) in zip(scalars, edges)
        ]
        assert got == expected
        assert [res.converged for res in got] == [True, False, False]
        assert got[1].evaluations == 15 + 30 * 3999 and got[2].evaluations < 30 * 8
        assert len(rounds) <= 300


def remainder_coefficient(spec):
    """c0 = (2/pi)^(a/2) M(a) / (gamma - 1), a = p', of the remainder
    c0 X^(1-gamma) of a kernel sum: |J_nu(r)|^a ~ (2/(pi r))^(a/2)
    |cos(r - phi)|^a, and M(a) = Gamma((a+1)/2) / (sqrt(pi) Gamma(a/2+1))
    is the mean of |cos|^a.  The same operations as production, so the
    sums can be compared with ``==``; ``test_quadrature`` checks
    ``OscillatoryIntegrand.tail_coefficient`` against mpmath."""
    a = spec.power
    mean = math.exp(math.lgamma(0.5 * (a + 1.0)) - math.lgamma(0.5 * a + 1.0))
    return (2.0 / math.pi) ** (0.5 * a) * mean / (
        math.sqrt(math.pi) * math.fsum((0.5 * a, -spec.beta, -1.0))
    )


def scalar_oscillatory(spec, tol, nodes):
    """integrate_oscillatory_bessel with one scalar adaptive GK15 per arch,
    valuing J at the recorded ``nodes`` in one call (see ``node_by_node``)."""
    nu = spec.order.nu
    f = node_by_node(spec, nodes)
    arch_tol = cell_tolerance(tol)

    def arch_block(k0, k1):
        return [reference_finite(f, a, b, arch_tol, 1e-16) for a, b in arch_edges(nu, k0, k1)]

    if spec.alternates:
        gamma, c0 = None, None
    else:
        gamma, c0 = spec.tail_exponent, remainder_coefficient(spec)
    return reference_sum(arch_block, lambda k: bessel_j_zero(nu, k), gamma, tol, c0)


class TestKernelIntegral:
    @pytest.mark.parametrize(
        "d, p, tol", [(2, 1.2, 1e-9), (3, 1.4, 1e-9), (4, 1.3, 1e-10), (8, 1.5, 1e-9)]
    )
    def test_same_result_as_per_arch_engine(self, monkeypatch, d, p, tol):
        spec = kernel_spec(d, p)
        nodes = []
        monkeypatch.setattr(quadrature, "_power_law", recording_power(nodes))
        assert integrate_oscillatory_bessel(spec, tol) == scalar_oscillatory(spec, tol, nodes)

    @pytest.mark.parametrize(
        "schedule", [quadrature._POSITIVE, quadrature._ALTERNATING],
        ids=["positive", "alternating"],
    )
    def test_schedule_checkpoints_are_multiples_of_the_spacing(self, schedule):
        # A _CellSum is tested at checkpoints first, first + every, ...,
        # count: the last checkpoint must be on that grid.
        first, every, count = schedule
        assert first % every == 0 and count % every == 0 and first <= count

    @pytest.mark.parametrize(
        "tail_exponent, schedule",
        [(2.0, quadrature._POSITIVE), (None, quadrature._ALTERNATING)],
        ids=["positive", "alternating"],
    )
    @pytest.mark.parametrize(
        "right_edge_value, error, converged, to_count",
        [(False, 0.0, True, False), (False, 1.0, False, False), (True, 0.0, False, True)],
        ids=["converges", "hopeless", "runs_out"],
    )
    def test_blocks_end_at_checkpoints(
        self, monkeypatch, tail_exponent, schedule, right_edge_value, error, converged,
        to_count,
    ):
        # A sum's blocks end at its next checkpoint until it has failed
        # three, and then at the end of the zero chunk (32 zeros) that its
        # next checkpoint needs; evaluation counts cannot show the cells
        # integrated ahead, they count only the arches summed.  Zero cells
        # converge at the first checkpoint.  Cells with an error estimate
        # of 1 fail the tolerance by their own error there, which no later
        # checkpoint can undo, and stop unconverged.  Error-free cells
        # valued at their right edge never settle and run to the count:
        # the one-checkpoint blocks took 98 and 47 steps.
        first = schedule[0]
        requested = []
        monkeypatch.setattr(quadrature, "_integrate_cells", fake_cells(
            requested, lambda b: b if right_edge_value else 0.0, error
        ))
        total = _CellSum(tail_exponent, 1e-9)
        _sum_cells(None, float, [total], 1e-9)
        res = total.outcome
        blocks = [(0, first)]
        if to_count and tail_exponent is None:
            blocks += [(16, 20), (20, 24), (24, 32)]
            blocks += [(k, min(k + 32, 200)) for k in range(32, 200, 32)]
            assert len(blocks) == 10
        elif to_count:
            blocks += [(24, 32), (32, 40), (40, 64)]
            blocks += [(k, k + 32) for k in range(64, 800, 32)]
            assert len(blocks) == 27
        assert requested == blocks
        assert (res.converged, res.evaluations) == (converged, 15 * blocks[-1][1])

    def test_sum_stopping_inside_a_block_drops_the_cells_past_it(self, monkeypatch):
        # Cells 0..23 are valued at their right edge and the rest are 0, so
        # the tail fit's trailing windows are flat from checkpoint 48 on and
        # the sum converges at 56, inside the block of cells 40..63: the
        # outcome, evaluations included, is the one-checkpoint loop's.
        requested = []
        monkeypatch.setattr(quadrature, "_integrate_cells", fake_cells(
            requested, lambda b: b if b <= 24 else 0.0
        ))
        total = _CellSum(2.0, 1e-9)
        _sum_cells(None, float, [total], 1e-9)
        assert requested == [(0, 24), (24, 32), (32, 40), (40, 64)]
        assert len(total.partial) == 56 and total.outcome.converged
        assert total.outcome.evaluations == 15 * 56
        assert total.outcome == previous_outcome(float, 2.0)

    @pytest.mark.parametrize("tail_exponent", [2.0, None], ids=["positive", "alternating"])
    def test_unconverged_cell_leaves_the_sum_unconverged(self, monkeypatch, tail_exponent):
        # Cells of value 0 and error 0 meet the tolerance at the first
        # checkpoint; one cell that did not converge must not hide there.
        def integrate_cells(f, edges, tol):
            return [QuadResult(0.0, 0.0, 15, i != 3) for i in range(len(edges))]

        monkeypatch.setattr(quadrature, "_integrate_cells", integrate_cells)
        total = _CellSum(tail_exponent, 1e-9)
        _sum_cells(None, float, [total], 1e-9)
        first = (quadrature._POSITIVE if tail_exponent else quadrature._ALTERNATING)[0]
        assert total.outcome == QuadResult(0.0, 0.0, 15 * first, False)

    def test_same_result_signed(self, monkeypatch):
        spec = OscillatoryIntegrand(BesselOrder(0.5), 0.0, 1.0, signed=True)
        nodes = []
        monkeypatch.setattr(quadrature, "_power_law", recording_power(nodes))
        assert integrate_oscillatory_bessel(spec, 1e-10) == scalar_oscillatory(spec, 1e-10, nodes)


def withheld(limit):
    """A partition at the integers whose points past ``limit`` raise."""
    def boundary(k):
        if k > limit:
            raise ConvergenceError(f"point {k} withheld")
        return float(k)

    return boundary


def blocks_and_outcomes(monkeypatch, run):
    """``run()`` and its ``_integrate_cells`` call count, first under
    ``_sum_cells``, then under ``previous_sum_cells``."""
    calls = []
    real = quadrature._integrate_cells

    def integrate_cells(f, edges, tol):
        calls[-1] += 1
        return real(f, edges, tol)

    monkeypatch.setattr(quadrature, "_integrate_cells", integrate_cells)
    runs = []
    for loop in (quadrature._sum_cells, previous_sum_cells):
        monkeypatch.setattr(quadrature, "_sum_cells", loop)
        calls.append(0)
        runs.append(run())
    return calls, runs


class TestZeroChunkLookahead:
    """A sum that has failed three checkpoints integrates ahead to the end
    of the zero chunk its next checkpoint needs; every outcome, each
    ``QuadResult`` field included, must be the one of the loop that
    integrates one checkpoint a step (``previous_sum_cells``)."""

    def test_tight_grid(self, monkeypatch):
        specs = [kernel_spec(d, 1.2) for d in (2, 3, 4)]
        calls, (got, expected) = blocks_and_outcomes(
            monkeypatch, lambda: integrate_oscillatory_bessel_block(specs, 1e-12)
        )
        assert got == expected
        assert calls == [7, 11]

    def test_sweep_dimension_block_at_1e_12(self, monkeypatch):
        # The 6 in-window exponents of d = 2 on the sweep grid, one block.
        grid = _grid(build_parser()[0].parse_args(
            ["sweep", "--d", "2", "--p", "1.1:1.6:12", "--q", "2", "--tol", "1e-12"]
        ))
        specs = [
            kernel_spec(2, params.p) for params in grid
            if radial_convergence_admissible(2, params.p)
        ]
        assert len(specs) == 6
        calls, (got, expected) = blocks_and_outcomes(
            monkeypatch, lambda: integrate_oscillatory_bessel_block(specs, 1e-12)
        )
        assert got == expected
        assert calls[0] < calls[1]

    @pytest.mark.parametrize("d, p", [(3, 1.2), (4, 1.3)])
    def test_alternating_extremal_transform(self, monkeypatch, d, p):
        # At s = 1.7 the transform's cells alternate; both sums fail more
        # than three checkpoints (they stop at 52 and 92 cells).
        params = RestrictionParams(d, p, 2.0)
        profile = extremal_profile(params, 1e-12)
        sums = []
        real = quadrature._CellSum

        def recorded(*args):
            sums.append(real(*args))
            return sums[-1]

        monkeypatch.setattr(quadrature, "_CellSum", recorded)
        calls, (got, expected) = blocks_and_outcomes(
            monkeypatch, lambda: radial_hat(params.kernel, profile, 1.7, 1e-12)
        )
        assert got == expected
        assert calls[0] < calls[1]
        assert all(s.tail_exponent is None and s.failed > 3 for s in sums)

    def test_boundary_raising_inside_the_ahead_span(self, monkeypatch):
        # Points past 60 raise: the blocks read up to the checkpoint only,
        # and the sum converges at 56 as before.
        requested = []
        monkeypatch.setattr(quadrature, "_integrate_cells", fake_cells(
            requested, lambda b: b if b <= 24 else 0.0
        ))
        total = _CellSum(2.0, 1e-9)
        _sum_cells(None, withheld(60), [total], 1e-9)
        assert requested == [(0, 24), (24, 32), (32, 40), (40, 48), (48, 56)]
        assert total.outcome.converged
        assert total.outcome == previous_outcome(withheld(60), 2.0)

    def test_boundary_raising_before_the_checkpoint(self, monkeypatch):
        # Points past 44 raise, and the checkpoint of 48 needs them: the
        # sum ends with that error, as before.
        requested = []
        monkeypatch.setattr(quadrature, "_integrate_cells", fake_cells(requested, float))
        total = _CellSum(2.0, 1e-9)
        _sum_cells(None, withheld(44), [total], 1e-9)
        expected = previous_outcome(withheld(44), 2.0)
        assert isinstance(total.outcome, ConvergenceError)
        assert str(total.outcome) == str(expected) == "point 45 withheld"
        assert requested == [(0, 24), (24, 32), (32, 40)] * 2


def per_cell_partition_sum(f, boundary, tol, tail_exponent):
    """sum_over_partition with one lone ``integrate_finite`` per cell: the
    signs of cells 2..9 of a 10-cell probe choose the regime, and the sum
    takes those cells from the probe."""
    cell_tol = cell_tolerance(tol)

    def cell(k):
        return integrate_finite(
            f, 0.0 if k == 0 else boundary(k), boundary(k + 1), cell_tol, 1e-16
        )

    probe = [cell(k) for k in range(10)]
    signs = [math.copysign(1.0, c.value) for c in probe[2:] if c.value != 0.0]
    alternating = len(signs) >= 4 and all(a != b for a, b in zip(signs, signs[1:]))

    def block(k0, k1):
        return [probe[k] if k < 10 else cell(k) for k in range(k0, k1)]

    return reference_sum(block, boundary, None if alternating else tail_exponent, tol)


def counted(f):
    calls = []

    def g(r):
        calls.append(r)
        return f(r)

    return g, calls


class TestPartitionSum:
    @pytest.mark.parametrize("s", [1.0, 1.7])
    def test_extremal_transform(self, monkeypatch, s):
        # The algebraic-decay transform that the sharpness check reaches.
        params = RestrictionParams(3, 1.2, 2.0)
        kernel = params.kernel
        profile = extremal_profile(params, 1e-10)
        cells = []
        real = quadrature._integrate_cells

        def record(f, edges, tol):
            cells.extend(edges)
            return real(f, edges, tol)

        monkeypatch.setattr(quadrature, "_integrate_cells", record)
        got = radial_hat(kernel, profile, s)
        # No probe cell is integrated twice: the cells asked for run from 0
        # without a repeat or a gap, past the 10-cell probe.  (Splits
        # evaluated ahead value more nodes than ``evaluations`` counts, so
        # counting nodes cannot show it.)
        assert [a for a, _ in cells] == [0.0] + [b for _, b in cells[:-1]]
        assert len(cells) > 10

        nu = kernel.order.nu
        front = (2.0 * math.pi) ** (0.5 * kernel.d) * s ** (0.5 * (2 - kernel.d))

        def integrand(r):
            fr = profile.f(r)
            return 0.0 if fr == 0.0 else (
                front * bessel_j(nu, s * r) * at_point(np.power, r, 0.5 * kernel.d) * fr
            )

        boundary = _merged_breakpoints(
            lambda k: bessel_j_zero(nu, k) / s, profile.breakpoints
        )
        gamma = profile.decay.exponent - 0.5 * (kernel.d - 1)
        assert got == per_cell_partition_sum(integrand, boundary, 1e-9, gamma)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_alternating_cells(self, tol):
        def sinc(r):
            return math.sin(r) / r

        def boundary(k):
            return k * math.pi

        f, calls = counted(sinc)
        got = sum_over_partition(_mapped(f), boundary, tol, tail_exponent=1.0)
        assert len(calls) == got.evaluations
        assert got == per_cell_partition_sum(sinc, boundary, tol, 1.0)
        assert got.converged and got.value == pytest.approx(math.pi / 2.0, abs=10 * tol)

    def test_probe_reads_cells_two_to_nine(self):
        # Cells 0..4 are positive and alternation starts at cell 4: a probe
        # of cells 2..9 sees no alternation and takes the positive regime.
        def f(r):
            return (abs(math.sin(r)) if r < 4.0 * math.pi else math.sin(r)) / r

        def boundary(k):
            return k * math.pi

        got = sum_over_partition(_mapped(f), boundary, 1e-8, tail_exponent=2.0)
        assert got == per_cell_partition_sum(f, boundary, 1e-8, 2.0)
        alternating = _CellSum(None, 1e-8)
        _sum_cells(_mapped(f), boundary, [alternating], 1e-8)
        assert got != alternating.outcome


class TestEnvelopeOverflow:
    def test_power_envelope_goes_through_log_space(self):
        # (d, p) = (3, 1.001): beta = -498.5, so r**beta overflows below
        # r ~ 0.24 while |J_1/2|^1001 vanishes faster.
        spec = kernel_spec(3, 1.001)
        r = np.array([1e-4, 0.01, 0.2, 1.0])
        values = _integrand_values(spec, r)
        assert np.all(np.isfinite(values)) and np.all(values > 0.0)
        assert [spec(np.array([x]))[0] for x in r.tolist()] == values.tolist()
        res = integrate_oscillatory_bessel(spec)
        assert isinstance(res, QuadResult)
