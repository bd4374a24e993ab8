"""Quadrature engine: adaptive Gauss-Kronrod on finite intervals, a
semi-infinite rule for decaying integrands, and improper integrals over
[0, inf) summed cell by cell.

The finite rule is the embedded (G7, K15) pair with QUADPACK's error
estimate and worst-interval-first bisection.  Endpoints are never
evaluated, so integrable endpoint singularities of type r^c, c > -1 are
handled by refinement alone.

Improper integrals are split into cells: the arches between consecutive
zeros of the Bessel factor (``integrate_oscillatory_bessel``) or a
caller-supplied partition (``sum_over_partition``).  The oscillatory
integrand is always the power law r^beta |J_nu(r)|^power, described by the
record ``OscillatoryIntegrand(order, beta, power, signed)``; its tail and
zero exponents follow from beta and power, and where r^beta overflows, or
|J|^power underflows while r^beta > 1, a node is valued as
exp(beta log r + power log |J|).  Each sum's partial
sums live in a resumable ``_CellSum``, tested at the checkpoints of one of
two regimes:

* signed cells that alternate: Wynn's epsilon algorithm on the partial
  sums (rapid for alternating sequences);
* nonnegative cells with an algebraic envelope ~ r^(-gamma): the
  partial sums converge like X^(1-gamma), far too slowly to sum near the
  admissibility boundary (gamma can sit just above 1), and epsilon-type
  acceleration provably stalls on such logarithmic sequences.  Instead the
  known envelope exponent is exploited directly: the remainder past X has
  an expansion X^(1-gamma) (c0 + c1/X + c2/X^2 + ...), and a small least
  squares fit over trailing partial sums extrapolates to the limit with
  residual O(X^(1-gamma-m)).  For a kernel integral c0 is known in closed
  form (``OscillatoryIntegrand.tail_coefficient``, from DLMF 10.17.3), so
  the fit takes only the corrections; a caller's partition sum fits c0 too.

Each cell is integrated to tol/100, at most 1e-12 and at least 100 eps:
below GK15's 50 eps round-off floor the largest cells would refine to their
panel limit and never converge.  A sum holding a cell that did not converge
is not converged.

A sum ends unconverged at the first checkpoint where the cells' own summed
error already exceeds tol * |estimate|, as QUADPACK's cycle-by-cycle
Fourier rule (``dqawfe``, ier = 2) stops once round-off puts the tolerance
out of reach.  Both regimes add that error to their error bound, and it
never decreases, so a later checkpoint could pass only if the estimate
itself grew past error / tol.

One engine, ``_integrate_block``, runs the adaptive rule over several
intervals at once, each with its own heap, and evaluates every round's new
panels with one call of an array integrand ``f(x, which)``: ``which`` gives
the index of the interval each node belongs to, so one block can hold a
different integrand per interval.  ``integrate_finite`` is that engine on
one interval with an opaque scalar callable mapped over the nodes, and
``integrate_finite_block`` the engine itself; ``integrate_semi_infinite_block``
maps a block of decaying integrands onto (0, 1), one interval each, and
``integrate_semi_infinite_decaying`` is its one-integrand case.  The radial
profile integrals run a family of profiles as one such block.

One summation loop, ``_sum_cells``, runs several sums over one partition in
lockstep: at each step the cells up to the next checkpoint of every sum
still running are one block of the engine, ``which`` naming the sum, and
each sum then makes its own stopping decision.  A sum that has failed
three checkpoints asks instead for every cell up to the end of the chunk
of 32 zeros (``special_fns._ZERO_CHUNK``) its next checkpoint needs, and
tests the checkpoints inside in turn: the slow sums take one step per
chunk, not per checkpoint, and start no extra Newton run.  The cells past
the checkpoint where a sum stops are dropped; ``evaluations`` counts only
the cells summed.  Every nonnegative sum
follows the same schedule, so the kernel integrals of one Bessel order,
all exponents of one dimension (``integrate_oscillatory_bessel_block``),
need the same arches at the same checkpoint: the arch edges are read
once per step, and each round values J_nu once per distinct node with
one ``special_fns.bessel_j_array`` call before each exponent applies its
own power law, ``_power_law``, which the radial L_p weight shares.
``integrate_oscillatory_bessel`` is the one-integrand block, and
``sum_over_partition`` is one sum through the same loop.
Every interval's result is the one it gets alone, evaluation counts
included, and equals QUADPACK's loop run one panel at a time, with numpy's
pow for its 1.5 power, bit for bit: the tail fit at tight tolerances
amplifies last-digit differences ~1000-fold.  The rule itself runs once per
round, as elementwise ops over the columns of the round's values.
So each sum's outcome is the one it gets alone.

The engine looks ahead: when an interval's worst panel has no children
yet, it asks in the same call for the children of its
``max(1, min(splits // 16, _AHEAD_PANELS))`` worst panels, and later
rounds commit them one at a time while the heap's worst panel has its
children ready.  Below 32 splits that is the worst panel alone, one split
per round.  The cells of a sum (``_integrate_cells``) ask for at least
their 2 worst panels, and for each of them that touches an end of the
cell also for the children of its child at that end: an arch's integrand
vanishes like |r - z|^power at both zeros, so its bisection runs as two
chains toward the ends, and both advance two levels a round instead of
taking turns one level a round.  A dimension's block of the ``sweep`` grid
then takes 30 rounds, not 78.  A GK15 panel's result depends only on its
endpoints, so the heap, the running totals, the stopping decision and the
result are those of one split per round; an arch refining to
``max_intervals`` then takes ~20 times fewer array calls.  Children never
committed are dropped, and only committed splits count as evaluations.
The commits of a round are a Python loop over heaps, so it keeps each
interval's running value and error in plain floats, written back once
per interval and round.
Children are evaluated ahead of need, so the integrand must not raise
anywhere in an interval; a value it cannot give is NaN, which ends the
interval only if committed.
"""

from __future__ import annotations

import math
from functools import partial
from heapq import heappop, heappush, heapreplace
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError
from .special_fns import (
    _ZERO_CHUNK, BesselOrder, _replace_validated, bessel_j_array, bessel_j_zero,
)

__all__ = [
    "QuadResult",
    "OscillatoryIntegrand",
    "integrate_finite",
    "integrate_finite_block",
    "integrate_semi_infinite_decaying",
    "integrate_semi_infinite_block",
    "integrate_oscillatory_bessel",
    "integrate_oscillatory_bessel_block",
    "wynn_epsilon",
    "check_tolerance",
    "DEFAULT_REL_TOL",
    "ABS_FLOOR",
]

DEFAULT_REL_TOL = 1e-9
ABS_FLOOR = 1e-14

# An array integrand f(x, which): at each node x[i], the integrand of the
# interval or integrand ``which[i]`` of its block.
ArrayIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

# (G7, K15) nodes and weights, QUADPACK dqk15.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# Offsets of the 15 nodes from a panel's centre, in units of its half-width.
_NODE_OFFSETS = np.array((0.0,) + tuple(-x for x in _XGK[:7]) + _XGK[:7])
# Kronrod weights of the node pairs j = 0..6 and Gauss weights of the odd
# pairs, as columns over a (pair, ..., panel) array.
_WGK_PAIRS = np.array(_WGK[:7]).reshape(7, 1, 1)
_WG_PAIRS = np.array(_WG[:3]).reshape(3, 1)
_EPS50 = 50.0 * 2.220446049250313e-16
_MAX_INTERVALS = 4000
_SEMI_INFINITE_INTERVALS = 6000
# Lookahead of ``_integrate_block``: an interval evaluates the children of
# at most this many of its worst panels per round.
_AHEAD_PANELS = 32


class QuadResult(NamedTuple):
    """Numeric value with an error estimate and the evaluation count."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool

    def expect_converged(self, context: str) -> "QuadResult":
        if not self.converged:
            raise ConvergenceError(
                f"{context}: quadrature did not converge "
                f"(value={self.value!r}, error_estimate={self.error_estimate!r})"
            )
        return self


def _gk15_batch(
    f: ArrayIntegrand, a: list[float], b: list[float], which: list[int]
) -> tuple[list[float], list[float]]:
    """(G7, K15) values and errors of the panels [a_i, b_i] of intervals
    ``which[i]``, as two lists: one call of the array integrand ``f`` on
    all 15 n nodes, then QUADPACK's rule (``dqk15``) once over the columns
    of the values.

    Column i holds panel i's values at its centre (row 0) and at its nodes
    c - h x_j (row 1 + j) and c + h x_j (row 8 + j), j = 0..6; the node
    c + (-x_j) h is exactly the double c - x_j h.  Each step of QUADPACK's
    loop is one elementwise op over the columns, and each sum adds its
    terms in the loop's order (j = 0..6, the Gauss terms at odd j), so
    every partial sum is the double the loop gives; (200 err / resasc)^1.5
    is numpy's pow and min, max are ``np.fmin``, ``np.maximum``.  A panel's
    result depends on its own column alone: NaN or inf at one panel leaves
    every other panel as it was, and raises no floating-point warning."""
    ab = np.array((a, b))
    c = 0.5 * (ab[0] + ab[1])
    h = 0.5 * (ab[1] - ab[0])
    fv = f((c[:, None] + h[:, None] * _NODE_OFFSETS).ravel(), np.array(which).repeat(15))
    with np.errstate(all="ignore"):
        # fs[:, 0] the values and fs[:, 1] their moduli, (15, 2, n); the
        # pairs l_j + r_j and |l_j| + |r_j|, (7, 2, n).
        fs = np.empty((15, 2, len(a)))
        fs[:, 0] = fv.reshape(-1, 15).T
        np.abs(fs[:, 0], out=fs[:, 1])
        pairs = fs[1:8] + fs[8:]
        g = _WG_PAIRS * pairs[1:6:2, 0]
        resg = fs[0, 0] * _WG[3] + g[0] + g[1] + g[2]
        # resk and resabs, as rows 0 and 1.
        k = _WGK_PAIRS * pairs
        kabs = fs[0] * _WGK[7] + k[0] + k[1] + k[2] + k[3] + k[4] + k[5] + k[6]
        dev = np.abs(fs[:, 0] - 0.5 * kabs[0])
        k = _WGK_PAIRS[:, 0] * (dev[1:8] + dev[8:])
        resasc = dev[0] * _WGK[7] + k[0] + k[1] + k[2] + k[3] + k[4] + k[5] + k[6]
        ah = np.abs(h)
        resk = kabs[0] * h
        resabs = kabs[1] * ah
        resasc *= ah
        err = np.abs(resk - resg * h)
        scaled = resasc * np.fmin(1.0, np.power(200.0 * err / resasc, 1.5))
        # Where resasc != 0 and err != 0, NaN included.
        err = np.where(np.logical_and(resasc, err), scaled, err)
        # Round-off floor, as in QUADPACK.
        err = np.where(resabs > 1e-290, np.maximum(err, _EPS50 * resabs), err)
    return resk.tolist(), err.tolist()


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_REL_TOL,
    abs_tol: float = ABS_FLOOR,
    max_intervals: int = _MAX_INTERVALS,
) -> QuadResult:
    """Adaptive Gauss-Kronrod integral of f over [a, b].

    Converged when the summed error estimate drops below
    ``max(tol * |value|, abs_tol)``.  Non-convergence is reported in the
    result, never raised.  The scalar callable ``f`` is mapped over the
    nodes of each round of ``_integrate_block``.
    """
    return _integrate_block(_mapped(f), [(a, b)], tol, abs_tol, max_intervals)[0]


def integrate_finite_block(
    f: ArrayIntegrand, edges: Sequence[tuple[float, float]], tol: float = DEFAULT_REL_TOL
) -> list[QuadResult]:
    """The adaptive rule over every interval [a_i, b_i] of ``edges`` as one
    block, with the absolute floor ``ABS_FLOOR``: each round is one call
    ``f(x, which)``, ``which`` the index of the interval of each node.  The
    i-th result is the one ``integrate_finite`` gives for interval i with
    the scalar integrand ``x -> f([x], [i])``.
    """
    return _integrate_block(f, edges, tol, ABS_FLOOR, _MAX_INTERVALS)


def check_tolerance(tol: float) -> None:
    """Reject a relative tolerance unless 0 < tol < inf: at NaN no error
    estimate ever meets it, and at inf every one does."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must satisfy 0 < tol < inf, got {tol!r}")


def _mapped(f: Callable[[float], float]) -> ArrayIntegrand:
    """The scalar callable ``f`` as an array integrand, mapped node by node;
    every node's integrand is ``f``.  The one place a callable is mapped
    over nodes: it adapts a caller's scalar integrand or profile."""

    def f_array(x: np.ndarray, which: Optional[np.ndarray] = None) -> np.ndarray:
        return np.fromiter(map(f, x.tolist()), float, count=x.size)

    return f_array


def _integrate_block(
    f: ArrayIntegrand,
    edges: Sequence[tuple[float, float]],
    tol: float,
    abs_tol: float,
    max_intervals: int,
    _from_ends: bool = False,
) -> list[QuadResult]:
    """The adaptive rule over each interval of ``edges`` at once, for an
    array integrand ``f(x, which)``, ``which`` the index in ``edges`` of the
    interval each node belongs to.

    Every interval keeps its own heap and refines worst-panel-first until
    its error estimate drops below ``max(tol * |value|, abs_tol)``, its
    heap holds ``max_intervals`` panels or its worst panel sits at machine
    resolution.  Each round evaluates the new panels of every interval
    still refining with one call of ``f``: an interval whose worst panel
    has no children yet asks for the children of its
    ``max(1, min(splits // 16, _AHEAD_PANELS))`` worst panels, and the
    next round commits splits for as long as its worst panel's children
    are ready.  With ``_from_ends``, which only ``_integrate_cells`` sets,
    an interval asks for at least its 2 worst panels, and for each of them
    that touches an end of the interval also for the children of its child
    at that end, one level deeper: a cell's integrand vanishes at both
    ends, and its bisection runs as two chains toward them.  A panel's
    GK15 result depends only on its endpoints, so every interval pops,
    pushes and sums exactly what it would alone, one panel per round, and
    its result is that one field for field.  ``evaluations`` counts
    committed splits only; children evaluated ahead and never committed
    are dropped with the interval.
    """
    for a, b in edges:
        if not (a < b):
            raise DomainError(f"integrate_finite requires a < b, got [{a!r}, {b!r}]")
    check_tolerance(tol)
    if not edges:
        return []
    lo = [a for a, _ in edges]
    hi = [b for _, b in edges]
    # Each interval's running value and error, from its one panel on.
    value_sums, error_sums = _gk15_batch(f, lo, hi, list(range(len(edges))))
    heaps = [[(-e, a, b, v, e)] for a, b, v, e in zip(lo, hi, value_sums, error_sums)]
    splits = [0] * len(edges)
    # Splits evaluated ahead, by interval and the midpoint of the panel they
    # split, which no other panel of a bisection shares: the changes
    # (dv, de) of the running value and error and the heap entries of the
    # two halves.
    ahead: list[dict] = [{} for _ in edges]
    least = 2 if _from_ends else 1
    results: list = [None] * len(edges)
    live = range(len(edges))
    while True:
        # (i, heap entry, mid) of every panel whose split this round asks for.
        requests = []
        refining = []
        for i in live:
            heap = heaps[i]
            ready = ahead[i]
            value = value_sums[i]
            error = error_sums[i]
            done = splits[i]
            unready = False
            # The test error > max(tol * |value|, abs_tol), NaN and inf
            # included, without the call of max.
            while error > tol * abs(value) and error > abs_tol and len(heap) < max_intervals:
                _, a, b, _, _ = heap[0]
                mid = 0.5 * (a + b)
                if not a < mid < b:
                    break  # The worst panel is at machine resolution.
                split = ready.pop(mid, None)
                if split is None:
                    unready = True
                    break
                heappop(heap)
                dv, de, left, right = split
                value += dv
                error += de
                heappush(heap, left)
                heappush(heap, right)
                done += 1
            value_sums[i] = value
            error_sums[i] = error
            splits[i] = done
            if unready:
                # k = max(least, min(done // 16, _AHEAD_PANELS)) panels; for
                # k = 1 the worst one, as the walk returns it, without its
                # cost on the many one-panel rounds of a shallow integral.
                if done < 32 and least == 1:
                    requests.append((i, heap[0], mid))
                else:
                    k = max(least, min(done // 16, _AHEAD_PANELS))
                    requests += [(i, *panel) for panel in _worst_unready(heap, ready, k)]
                refining.append(i)
            else:
                results[i] = _heap_result(heap, 15 + 30 * done, tol, abs_tol)
                heaps[i] = []
                ahead[i] = {}
        if not refining:
            break
        lo = []
        hi = []
        owner = []
        for i, (_, a, b, _, _), mid in requests:
            lo += (a, mid)
            hi += (mid, b)
            owner += (i, i)
        # (index in the round of a requested child at an end of its
        # interval, i, and that child's a, mid, b) of the splits one level
        # deeper, evaluated after the requested ones.
        deeper = []
        if _from_ends:
            for n, (i, (_, a, b, _, _), mid) in enumerate(requests):
                if a == edges[i][0]:
                    deeper.append((2 * n, i, a, 0.5 * (a + mid), mid))
                if b == edges[i][1]:
                    deeper.append((2 * n + 1, i, mid, 0.5 * (mid + b), b))
            deeper = [(j, i, a, mid, b) for j, i, a, mid, b in deeper if a < mid < b]
            for _, i, a, mid, b in deeper:
                lo += (a, mid)
                hi += (mid, b)
                owner += (i, i)
        values, errors = _gk15_batch(f, lo, hi, owner)
        for (i, (_, a, b, v, e), mid), v1, e1, v2, e2 in zip(
            requests, values[::2], errors[::2], values[1::2], errors[1::2]
        ):
            ahead[i][mid] = (v1 + v2 - v, e1 + e2 - e, (-e1, a, mid, v1, e1), (-e2, mid, b, v2, e2))
        n = 2 * len(requests)
        for (j, i, a, mid, b), v1, e1, v2, e2 in zip(
            deeper, values[n::2], errors[n::2], values[n + 1::2], errors[n + 1::2]
        ):
            v, e = values[j], errors[j]
            ahead[i][mid] = (v1 + v2 - v, e1 + e2 - e, (-e1, a, mid, v1, e1), (-e2, mid, b, v2, e2))
        live = refining
    return results


def _worst_unready(heap: list, ready: dict, k: int) -> list[tuple[tuple, float]]:
    """(heap entry, mid) of each panel among the ``k`` worst of ``heap``
    whose split is not in ``ready`` and which can still be split.

    The k worst are read off the heap tree best-first from its root, in
    O(k log k), without scanning the heap; the frontier is ordered by
    -error alone, which can only change which of two equal panels is
    taken."""
    out = []
    n = len(heap)
    frontier = [(heap[0][0], 0)]
    for _ in range(min(k, n)):
        j = frontier[0][1]
        item = heap[j]
        a, b = item[1], item[2]
        mid = 0.5 * (a + b)
        if mid not in ready and a < mid < b:
            out.append((item, mid))
        child = 2 * j + 1
        if child < n:
            heapreplace(frontier, (heap[child][0], child))
            if child + 1 < n:
                heappush(frontier, (heap[child + 1][0], child + 1))
        else:
            heappop(frontier)
    return out


def _heap_result(heap: list, evals: int, tol: float, abs_tol: float) -> QuadResult:
    total_v = math.fsum([item[3] for item in heap])
    total_e = math.fsum([item[4] for item in heap])
    converged = total_e <= max(tol * abs(total_v), abs_tol)
    return QuadResult(total_v, total_e, evals, converged)


# Radii of the decay check, in increasing order.
_DECAY_PROBES = (1e3, 1e6, 1e9)


def _decay_errors(f: ArrayIntegrand, count: int) -> list[Optional[DomainError]]:
    """The cheap necessary check that r^(1+delta) f(r) -> 0 along a sparse
    grid, for each of ``count`` integrands: None where it passes, else the
    error.  It catches the plainly divergent inputs before any work is done.

    Every probe of every integrand is one call of ``f``.  Only when that
    call overflows are an integrand's probes valued one at a time, up to
    its first overflow, so that an overflow fails the integrand it belongs
    to, as not decaying, and no other.
    """
    which = np.repeat(np.arange(count), len(_DECAY_PROBES))
    try:
        rows = f(np.tile(_DECAY_PROBES, count), which).reshape(count, -1).tolist()
    except OverflowError:
        rows = [_probe_row(f, i) for i in range(count)]
    return list(map(_decay_error, rows))


def _probe_row(f: ArrayIntegrand, i: int) -> list[Optional[float]]:
    """Integrand i at each probe alone, up to the first value that decides
    the check: None where it overflows, or NaN."""
    row: list[Optional[float]] = []
    for r in _DECAY_PROBES:
        try:
            fr = f(np.array([r]), np.array([i])).item()
        except OverflowError:
            fr = None
        row.append(fr)
        if fr is None or math.isnan(fr):
            break
    return row


def _decay_error(row: list[Optional[float]]) -> Optional[DomainError]:
    values = []
    for r, fr in zip(_DECAY_PROBES, row):
        if fr is None:
            return _not_decaying()
        if math.isnan(fr):
            return DomainError(f"integrand is NaN at r = {r!r}")
        values.append(abs(fr) * r**1.001)
    if values[-1] <= 1e-8 or values[-1] < 0.25 * values[0]:
        return None
    return _not_decaying()


def _not_decaying() -> DivergenceError:
    return DivergenceError(
        "integrand does not decay like r^(-1-delta); the integral over "
        "[0, inf) cannot converge absolutely"
    )


def integrate_semi_infinite_decaying(
    f: Callable[[float], float], tol: float = DEFAULT_REL_TOL
) -> QuadResult:
    """Integral of f over [0, inf) for eventually-decaying integrands: the
    one-integrand block of ``integrate_semi_infinite_block``, raising its
    error."""
    (result,) = integrate_semi_infinite_block(_mapped(f), 1, tol)
    if isinstance(result, Exception):
        raise result
    return result


def integrate_semi_infinite_block(
    f: ArrayIntegrand, count: int, tol: float = DEFAULT_REL_TOL
) -> list[Union[QuadResult, DomainError, ConvergenceError]]:
    """Integral over [0, inf) of each of ``count`` eventually-decaying
    integrands, ``f(r, which)`` valuing integrand ``which[i]`` at ``r[i]``.

    Uses the substitution r = t/(1-t), mapping to (0, 1); the adaptive
    finite rule then resolves both the bulk and the compressed tail, with
    the absolute floor ``ABS_FLOOR`` and at most ``_SEMI_INFINITE_INTERVALS``
    panels, every integrand that passes the decay check in one block.  An
    integrand's entry is its result, or ``DivergenceError`` when it
    detectably fails the decay precondition, ``DomainError`` when a decay
    probe is NaN, and ``ConvergenceError`` when the value is not finite:
    refinement committed a node on t = 1, or the integrand is not finite
    at a node.  Each result is the one the integrand gets alone.
    """
    outcomes: list = _decay_errors(f, count) if count else []
    live = [i for i, error in enumerate(outcomes) if error is None]
    owner = np.array(live, dtype=int)

    def mapped(t: np.ndarray, which: np.ndarray) -> np.ndarray:
        # A GK15 node of a panel next to t = 1 rounds onto it once the panel
        # is narrower than ~1.3e-14.  The map cannot see the mass beyond
        # r ~ 1e16 there, so valuing the node as 0 would return a wrong
        # value flagged converged.  NaN, not an exception: the engine may
        # evaluate this panel ahead and never use it.
        out = np.full(t.size, math.nan)
        u = 1.0 - t
        inside = u != 0.0
        u = u[inside]
        fr = f(t[inside] / u, owner[which[inside]])
        with np.errstate(over="ignore"):
            out[inside] = np.where(fr == 0.0, 0.0, fr / (u * u))
        return out

    results = _integrate_block(
        mapped, [(0.0, 1.0)] * len(live), tol, ABS_FLOOR, _SEMI_INFINITE_INTERVALS
    )
    for i, result in zip(live, results):
        outcomes[i] = result if math.isfinite(result.value) else ConvergenceError(
            f"semi-infinite rule: value {result.value!r} is not finite; the "
            "integrand is not finite or decays too slowly for the map "
            "r = t/(1-t), whose refinement reached t = 1"
        )
    return outcomes


def wynn_epsilon(seq: Sequence[float]) -> tuple[float, float]:
    """Wynn's epsilon acceleration of a sequence of partial sums.

    Returns the best even-column estimate together with a stability
    estimate (the spread of the deepest even entries).  Suited to
    alternating/linearly converging sequences; not used for the
    logarithmically converging positive sums (see module docstring).
    """
    n = len(seq)
    if n == 0:
        raise DomainError("wynn_epsilon needs a nonempty sequence")
    if n == 1:
        return seq[0], float("inf")
    eps_prev2 = [0.0] * (n + 1)
    eps_prev = [float(s) for s in seq]
    best = eps_prev[-1]
    best_err = abs(eps_prev[-1] - eps_prev[-2])
    col = 0
    while len(eps_prev) > 1:
        col += 1
        cur = []
        degenerate = False
        for i in range(len(eps_prev) - 1):
            diff = eps_prev[i + 1] - eps_prev[i]
            if diff == 0.0:
                degenerate = True
                break
            cur.append(eps_prev2[i + 1] + 1.0 / diff)
        if degenerate:
            # An exact repeat means the sequence (or a transform of it)
            # already converged at that depth.
            return eps_prev[-1], 0.0
        if col % 2 == 0 and len(cur) >= 2:
            spread = abs(cur[-1] - cur[-2])
            if spread < best_err:
                best_err = spread
                best = cur[-1]
        eps_prev2 = eps_prev
        eps_prev = cur
    return best, best_err


class OscillatoryIntegrand(NamedTuple("OscillatoryIntegrand", [
    ("order", BesselOrder), ("beta", float), ("power", float), ("signed", bool),
])):
    """The integrand r^beta |J_nu(r)|^power on [0, inf), nu = ``order.nu``.

    Every kernel integral is of this one form.  Its tail decays like
    r^(-gamma) with ``tail_exponent`` gamma = power/2 - beta (from
    |J_nu(r)| ~ sqrt(2/(pi r))), which drives both the integrability check
    and the tail extrapolation; ``zero_exponent`` is beta, the growth of
    r^beta as r -> 0, needed for the local-integrability check.  With
    ``signed=True`` the integrand is r^beta J_nu(r)^power (power must then
    be an integer so the sign is well defined) and only conditional
    convergence (gamma > 0) is required.  Calling the record on an array
    of nodes values it there (``_integrand_values``).
    """

    __slots__ = ()
    _replace = _replace_validated

    def __new__(cls, order, beta, power, signed=False) -> "OscillatoryIntegrand":
        if power < 1.0:
            raise DomainError(f"power must be >= 1, got {power!r}")
        if signed and power != round(power):
            raise DomainError("signed integrands need an integer power")
        return super().__new__(cls, order, beta, power, signed)

    @property
    def tail_exponent(self) -> float:
        return 0.5 * self.power - self.beta

    @property
    def tail_coefficient(self) -> float:
        """c0, the leading coefficient of the remainder past X, c0 X^(1-gamma).

        |J_nu(r)|^a ~ (2/(pi r))^(a/2) |cos(r - phi)|^a (DLMF 10.17.3), a =
        power, and |cos|^a has the mean M(a) = Gamma((a+1)/2) / (sqrt(pi)
        Gamma(a/2 + 1)), so c0 = (2/pi)^(a/2) M(a) / (gamma - 1).  gamma - 1
        is summed exactly rounded: next to the window edge gamma - 1 is tiny
        and ``tail_exponent - 1.0`` would lose its digits.
        """
        a = self.power
        mean = math.exp(math.lgamma(0.5 * (a + 1.0)) - math.lgamma(0.5 * a + 1.0))
        return (2.0 / math.pi) ** (0.5 * a) * mean / (
            math.sqrt(math.pi) * math.fsum((0.5 * a, -self.beta, -1.0))
        )

    @property
    def zero_exponent(self) -> float:
        return self.beta

    @property
    def alternates(self) -> bool:
        """Whether the arches alternate in sign: a signed odd power."""
        return self.signed and int(round(self.power)) % 2 == 1

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return _integrand_values(self, np.asarray(r, dtype=float))

    def check_integrable(self) -> None:
        if self.zero_exponent + self.order.nu * self.power <= -1.0:
            raise DivergenceError(
                "integrand is not locally integrable at 0: beta + nu*power = "
                f"{self.zero_exponent + self.order.nu * self.power!r} <= -1"
            )
        required = 0.0 if self.alternates else 1.0
        if not self.tail_exponent > required:
            kind = "conditional" if self.alternates else "absolute"
            raise DivergenceError(
                f"{kind} convergence on [0, inf) requires tail exponent "
                f"> {required}, got {self.tail_exponent!r}"
            )


def _integrand_values(spec: OscillatoryIntegrand, r: np.ndarray) -> np.ndarray:
    """The integrand of ``spec`` at the nodes ``r``: its power law
    (``_power_law``) of one ``bessel_j_array`` call on them."""
    j = bessel_j_array(spec.order, np.maximum(r, 0.0))
    return _power_law(r, spec.beta, j, spec.power, spec.signed)


def _block_values(specs: Sequence[OscillatoryIntegrand]) -> ArrayIntegrand:
    """The array integrand ``f(r, which)`` of a block of integrands of one
    order: J_nu by one ``bessel_j_array`` call on the round's nodes, then
    at each node r[i] the power law of ``specs[which[i]]``.  A J value
    depends on its own node alone, so every value is the one
    ``_integrand_values`` gives."""
    order = specs[0].order

    def f(r: np.ndarray, which: np.ndarray) -> np.ndarray:
        j = bessel_j_array(order, r)
        out = np.empty(r.size)
        for i, spec in enumerate(specs):
            at = which == i
            if at.any():
                out[at] = _power_law(r[at], spec.beta, j[at], spec.power, spec.signed)
        return out

    return f


def _power_law(
    r: np.ndarray, a: float, y: np.ndarray, b: float, signed: bool = False
) -> np.ndarray:
    """r^a y^b (signed) or r^a |y|^b at each node, with 0 at r <= 0.  An
    unsigned value is taken in log space, exp(a log r + b log |y|), below
    r = 1e-3, where a negative a meets a vanishing y, wherever r^a
    overflows, and where |y|^b underflows to 0 while r^a > 1 can keep the
    product in range; it is 0 where y vanishes.
    """
    with np.errstate(all="ignore"):
        r_a = np.power(r, a)
        base = y if signed else np.abs(y)
        out = r_a * np.power(base, b)
        if not signed:
            logs = (r < 1e-3) | np.isinf(r_a) | ((out == 0.0) & (base != 0.0) & (r_a > 1.0))
            if logs.any():
                out[logs] = np.exp(a * np.log(r[logs]) + b * np.log(base[logs]))
    out[r <= 0.0] = 0.0
    return out


def _algebraic_tail_fit(
    xs: Sequence[float],
    sums: Sequence[float],
    gamma_exp: float,
    n_terms: int,
    c0: Optional[float] = None,
) -> tuple[float, float]:
    """Least-squares fit S_n = S_inf - X_n^(1-gamma) * poly(x_ref/X_n).

    The polynomial is c0 + c1 t + c2 t^2 + ...: with ``c0`` unknown, its
    first ``n_terms`` coefficients are fitted; with ``c0`` given,
    c0 X_n^(1-gamma) moves to the left side and the ``n_terms``
    corrections c1.. are fitted.  Returns the extrapolated limit and the
    max fit residual.
    """
    x = np.asarray(xs, dtype=float)
    s = np.asarray(sums, dtype=float)
    t = x[-1] / x
    w = x ** (1.0 - gamma_exp)
    first = 0
    if c0 is not None:
        s = s + c0 * w
        first = 1
    cols = [np.ones_like(x)]
    for j in range(first, first + n_terms):
        cols.append(-w * t**j)
    design = np.column_stack(cols)
    sol, *_ = np.linalg.lstsq(design, s, rcond=None)
    resid = float(np.max(np.abs(s - design @ sol)))
    return float(sol[0]), resid


# Schedules of the two regimes: the first checkpoint, the cells between
# checkpoints and the most cells summed.  Every checkpoint, the last
# included, is a multiple of the spacing.
_POSITIVE = (24, 8, 800)
_ALTERNATING = (16, 4, 200)
_FIT_TERMS = 4
_PROBE_CELLS = 10
# A sum that has failed this many checkpoints integrates its next block to
# the end of the zero chunk its next checkpoint needs.  Over d in
# {2, 3, 4, 5, 6, 8} and p at the midpoints of ten equal parts of the
# window, 57 of 60 sums stop by their third checkpoint (40 cells) at 1e-9
# and 34 of 60 at 1e-12, where the other 26 run to 56..800 cells, 17 past
# 100.  Looking ahead after one failed checkpoint raised the sweep grid's
# distinct J nodes 34,170 -> 47,850; blocks of 32 cells past the
# checkpoint, not to the chunk end, cost tight a fourth Newton run.
_AHEAD_AFTER = 3


class _CellSum:
    """The partial sums of one improper integral over cells, resumable:
    ``add`` takes the next cells with their right edges, and each time the
    sum holds ``checkpoint`` cells it is tested against relative ``tol``.
    ``outcome`` is None while the sum runs, then its result or the error
    that ended it.

    ``tail_exponent=None`` means alternating cells: Wynn's epsilon on the
    last 60 partial sums, on the schedule ``_ALTERNATING``.  A number gamma
    means nonnegative cells whose envelope decays like r^(-gamma), on
    ``_POSITIVE``: the algebraic tail fit over the trailing half (at most
    64) of the partial sums, with ``_FIT_TERMS`` and one fewer correction
    terms, the leading coefficient ``c0`` of the remainder fixed when it is
    known and fitted when it is None; their spread, the fit residual, the
    cells' own error and half the move since the last checkpoint bound the
    error.  A sum stops unconverged at the last checkpoint, or earlier at
    the first where the cells' own error ``quad_err`` alone exceeds
    ``tol * |est|``: every error bound includes ``quad_err``, which only
    grows, so no later checkpoint can pass unless the estimate grows past
    ``quad_err / tol``.  Unconverged, the result is the estimate with the
    least error so far.  A sum holding a cell that did not converge is
    never converged.
    """

    def __init__(
        self, tail_exponent: Optional[float], tol: float, c0: Optional[float] = None
    ) -> None:
        self.tail_exponent = tail_exponent
        self.tol = tol
        self.c0 = c0
        self.cells_converged = True
        self.checkpoint, self.every, self.count = (
            _ALTERNATING if tail_exponent is None else _POSITIVE
        )
        self.partial: list[float] = []
        self.xs: list[float] = []
        self.total = 0.0
        self.quad_err = 0.0
        self.evals = 0
        self.failed = 0
        self.prev_est: Optional[float] = None
        self.best: Optional[tuple[float, float]] = None
        self.outcome: Optional[Union[QuadResult, DomainError, ConvergenceError]] = None

    def add(self, cells: Sequence[QuadResult], xs: Sequence[float]) -> None:
        """Sum ``cells`` in order, testing at every checkpoint reached; the
        cells past the checkpoint where the sum stops are dropped."""
        for cell, x in zip(cells, xs):
            self.evals += cell.evaluations
            self.total += cell.value
            self.quad_err += cell.error_estimate
            self.cells_converged = self.cells_converged and cell.converged
            self.xs.append(x)
            self.partial.append(self.total)
            if len(self.partial) == self.checkpoint:
                self._test()
                if self.outcome is not None:
                    return

    def block_end(self) -> int:
        """The cells the sum's next block runs to: its next checkpoint, or,
        once it has failed ``_AHEAD_AFTER`` checkpoints, the end of the
        ``_ZERO_CHUNK`` of zeros that checkpoint needs, at most ``count``."""
        if self.failed < _AHEAD_AFTER:
            return self.checkpoint
        return min(self.count, -(-self.checkpoint // _ZERO_CHUNK) * _ZERO_CHUNK)

    def _test(self) -> None:
        if self.tail_exponent is None:
            est, spread = wynn_epsilon(self.partial[-60:])
            err = spread + self.quad_err
        else:
            window = min(self.checkpoint // 2, 64)
            trailing = (self.xs[-window:], self.partial[-window:], self.tail_exponent)
            est, resid = _algebraic_tail_fit(*trailing, _FIT_TERMS, self.c0)
            est_lo, _ = _algebraic_tail_fit(*trailing, _FIT_TERMS - 1, self.c0)
            err = abs(est - est_lo) + resid + self.quad_err
            if self.prev_est is not None:
                err = max(err, 0.5 * abs(est - self.prev_est) + self.quad_err)
            self.prev_est = est
        if self.best is None or err < self.best[1]:
            self.best = (est, err)
        bound = self.tol * max(abs(est), 1e-300)
        if err <= bound:
            self.outcome = QuadResult(est, err, self.evals, self.cells_converged)
        elif self.checkpoint == self.count or self.quad_err > bound:
            self.outcome = QuadResult(*self.best, self.evals, False)
        else:
            self.checkpoint += self.every
            self.failed += 1


def _cell_edges(boundary: Callable[[int], float], k0: int, k1: int) -> list[tuple[float, float]]:
    """The cells k0..k1-1, [boundary(k), boundary(k + 1)], cell 0 from 0."""
    points = [boundary(k) for k in range(max(k0, 1), k1 + 1)]
    if k0 == 0:
        points.insert(0, 0.0)
    return list(zip(points, points[1:]))


def _integrate_cells(
    f: ArrayIntegrand, edges: Sequence[tuple[float, float]], tol: float
) -> list[QuadResult]:
    """The cells ``edges`` as one block, at the per-cell tolerance of a sum
    to relative ``tol``: ``min(1e-12, tol * 1e-2)``, but never below twice
    GK15's round-off floor ``_EPS50``, where the largest cells would refine
    to ``max_intervals`` and still not converge.  Each round refines a cell
    from both ends (``_integrate_block``'s ``_from_ends``); the profile
    integrals' blocks keep the rule of one worst panel a round."""
    cell_tol = max(min(1e-12, tol * 1e-2), 2.0 * _EPS50)
    return _integrate_block(f, edges, cell_tol, 1e-16, _MAX_INTERVALS, _from_ends=True)


def _sum_cells(
    f: ArrayIntegrand,
    boundary: Callable[[int], float],
    sums: Sequence[_CellSum],
    tol: float,
) -> None:
    """Run every sum of ``sums`` to its outcome over the cells
    [boundary(k), boundary(k + 1)] of one partition, cell 0 from 0, summed
    to relative ``tol``.

    Each step integrates, for every sum still running, its cells up to
    ``_CellSum.block_end`` (its next checkpoint, or for a slow sum the end
    of the zero chunk that checkpoint needs), all in one
    ``_integrate_block`` call at the per-cell tolerance of
    ``_integrate_cells``: ``f(x, which)`` values the nodes of sum
    ``which``.  Every cell is the one the sum gets alone, a sum adds its
    cells in order, tested at each checkpoint, and only summed cells count
    as evaluations, so each outcome is that of the sum run by itself, one
    checkpoint a step.  The edges of a span of cells are read once.  Where
    a ``boundary`` read ahead of the checkpoint raises ``DomainError`` or
    ``ConvergenceError``, the step reads up to the checkpoint only, and an
    error there ends every sum that needs it.  The caller checks ``tol``.
    """
    spans: dict[tuple[int, int], Union[list, DomainError, ConvergenceError]] = {}

    def read(span: tuple[int, int]) -> Union[list, DomainError, ConvergenceError]:
        if span not in spans:
            try:
                spans[span] = _cell_edges(boundary, *span)
            except (DomainError, ConvergenceError) as exc:
                spans[span] = exc
        return spans[span]

    while True:
        running = []
        edges: list[tuple[float, float]] = []
        owner: list[int] = []
        for i, cell_sum in enumerate(sums):
            if cell_sum.outcome is not None:
                continue
            start = len(cell_sum.partial)
            cells = read((start, cell_sum.block_end()))
            if isinstance(cells, Exception):
                cells = read((start, cell_sum.checkpoint))
            if isinstance(cells, Exception):
                cell_sum.outcome = cells
                continue
            running.append((cell_sum, len(edges), cells))
            edges += cells
            owner += [i] * len(cells)
        if not running:
            return
        owners = np.array(owner)
        results = _integrate_cells(lambda x, which: f(x, owners[which]), edges, tol)
        for cell_sum, start, cells in running:
            cell_sum.add(results[start:start + len(cells)], [b for _, b in cells])


def _only(outcomes: Sequence):
    """The result of a one-item call, raising its error."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def integrate_oscillatory_bessel(
    spec: OscillatoryIntegrand, tol: float = DEFAULT_REL_TOL
) -> QuadResult:
    """Integral of the Bessel-type integrand described by ``spec`` over
    [0, inf): the one-integrand block of
    ``integrate_oscillatory_bessel_block``, raising its error."""
    return _only(integrate_oscillatory_bessel_block([spec], tol))


def integrate_oscillatory_bessel_block(
    specs: Sequence[OscillatoryIntegrand], tol: float = DEFAULT_REL_TOL
) -> list[Union[QuadResult, DomainError, ConvergenceError]]:
    """The integral over [0, inf) of every integrand of ``specs``, or the
    error it raised.

    The axis is partitioned at the zeros of J_nu, and the integrands of one
    order are summed in lockstep by ``_sum_cells``: each round of their
    arches' adaptive rule values J_nu once per distinct node and then each
    integrand's power law on its own nodes (``_block_values``).  An entry
    is ``DivergenceError`` when the integrand fails
    ``check_integrable``, the error of a zero of J_nu its sum needed, or
    ``ConvergenceError`` when a nonnegative integrand's value is not
    positive: its values underflow double range on every arch summed.
    Otherwise it is the result, the one the integrand gets alone.
    """
    check_tolerance(tol)
    outcomes: list = [None] * len(specs)
    by_order: dict[float, list[int]] = {}
    for i, spec in enumerate(specs):
        try:
            spec.check_integrable()
        except DivergenceError as exc:
            outcomes[i] = exc
        else:
            by_order.setdefault(spec.order.nu, []).append(i)
    for nu, members in by_order.items():
        group = [specs[i] for i in members]
        sums = [
            _CellSum(None, tol) if s.alternates
            else _CellSum(s.tail_exponent, tol, s.tail_coefficient)
            for s in group
        ]
        _sum_cells(_block_values(group), partial(bessel_j_zero, nu), sums, tol)
        for i, spec, cell_sum in zip(members, group, sums):
            outcomes[i] = _positive(spec, cell_sum.outcome)
    return outcomes


def _positive(spec: OscillatoryIntegrand, outcome):
    """``outcome``, or a ``ConvergenceError`` where the integral of a
    nonnegative integrand came out not positive."""
    if spec.signed or not isinstance(outcome, QuadResult) or outcome.value > 0.0:
        return outcome
    return ConvergenceError(
        f"the integral of r^{spec.beta!r} |J_{spec.order.nu}(r)|^{spec.power!r} came "
        f"out {outcome.value!r}, not positive: its values underflow double range"
    )


def sum_over_partition(
    f: ArrayIntegrand,
    boundary: Callable[[int], float],
    tol: float = DEFAULT_REL_TOL,
    *,
    tail_exponent: float,
) -> QuadResult:
    """Improper integral of f over [0, inf) split at a caller-supplied partition.

    ``boundary(k)`` must give the k-th partition point for k >= 1, strictly
    increasing and unbounded.  The array integrand ``f(x, which)`` values
    each round's nodes of all cells between two checkpoints in one call, as
    ``_sum_cells`` passes them; it ignores ``which``.
    The cells alternate when the signs of cells 2..9 of the first
    ``_PROBE_CELLS`` do, which the sum then reuses; otherwise
    ``tail_exponent`` is the algebraic decay rate of the cell envelope.
    """
    check_tolerance(tol)
    edges = _cell_edges(boundary, 0, _PROBE_CELLS)
    probe = _integrate_cells(f, edges, tol)
    signs = [math.copysign(1.0, c.value) for c in probe[2:] if c.value != 0.0]
    alternating = len(signs) >= 4 and all(a != b for a, b in zip(signs, signs[1:]))
    cell_sum = _CellSum(None if alternating else tail_exponent, tol)
    # Both schedules' first checkpoint lies past the probe.
    cell_sum.add(probe, [b for _, b in edges])
    _sum_cells(f, boundary, [cell_sum], tol)
    return _only([cell_sum.outcome])
