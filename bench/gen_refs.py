"""Regenerate ``refs.json``: frozen kernel integrals for the benchmark grids.

    python3 bench/gen_refs.py

Computes I(d, p) = int_0^inf r^beta |J_nu(r)|^(p') dr for every in-window
(d, p) the four workloads visit, offline with mpmath and no network, by the
recipe documented in ``tests/oracles.py``: partition at ``besseljzero``,
``mp.quad`` per arch at 34 digits, and a least-squares tail model
S(X) = S_inf - X^(1-gamma) * poly(1/X) over the trailing partial sums.
The quoted ``unc_rel`` is the self-consistency of that extrapolation across
model depths and fit windows.  A point whose ``unc_rel`` stays above
``SETTLED_REL`` after ``MAX_ARCHES`` arches is listed under ``unsettled``.

The points are shared out over one process per core.  The production code
is not imported: the exponents come from the workload definitions and
every number from mpmath.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from pathlib import Path

import mpmath as mp

from workloads import WORKLOADS, kernel_points, ref_key

DPS = 34
MAX_ARCHES = 400
MIN_ARCHES = 40
CHECK_EVERY = 20
TARGET_REL = 1e-22
SETTLED_REL = 1e-15
OUT = Path(__file__).with_name("refs.json")


def _tail_fit(xs, sums, gam, terms: int, window: int):
    """S_inf from S_k = S_inf - X_k^(1-gamma) sum_m c_m (X_N/X_k)^m."""
    xs, sums = xs[-window:], sums[-window:]
    x_last = xs[-1]
    rows = []
    for x in xs:
        u = x / x_last
        w = u ** (1 - gam)
        rows.append([mp.mpf(1)] + [-w * u ** (-m) for m in range(terms)])
    solution, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(sums))
    return solution[0]


def kernel_integral(d: int, p: float) -> dict:
    """One reference value with its self-consistency uncertainty."""
    mp.mp.dps = DPS
    nu = mp.mpf(d - 2) / 2
    p = mp.mpf(p)  # exact binary value of the float the CLI uses
    p_prime = p / (p - 1)
    beta = (2 + d * (p - 2)) / (2 * (p - 1))
    gam = p_prime / 2 - beta

    def f(r):
        return r**beta * abs(mp.besselj(nu, r)) ** p_prime

    xs, sums = [], []
    total = mp.mpf(0)
    left = mp.mpf(0)
    prev = None
    best = None
    for k in range(1, MAX_ARCHES + 1):
        right = mp.besseljzero(nu, k)
        arch = mp.quad(f, [left, right])
        total += arch
        left = right
        xs.append(right)
        sums.append(total)
        # Power-law tail past X: about X * arch / (pi * (gamma - 1)).
        tail = right * arch / (mp.pi * (gam - 1))
        if k >= 8 and tail <= mp.mpf(10) ** (-DPS + 4) * total:
            best = (total, tail, k)
            break
        if k < MIN_ARCHES or k % CHECK_EVERY:
            continue
        window = min(k // 2, 100)
        est = _tail_fit(xs, sums, gam, 10, window)
        spread = max(
            abs(est - _tail_fit(xs, sums, gam, 8, window)),
            abs(est - _tail_fit(xs, sums, gam, 10, window // 2 + 10)),
        )
        if prev is not None:
            spread = max(spread, abs(est - prev))
        prev = est
        if best is None or spread < best[1]:
            best = (est, spread, k)
        if spread <= TARGET_REL * abs(est):
            break
    value, unc, arches = best
    return {
        "d": d,
        "p": float(p),
        "value": mp.nstr(value, 25, min_fixed=0, max_fixed=0),
        "unc_rel": float(unc / abs(value)),
        "arches": arches,
    }


def _job(point):
    t0 = time.perf_counter()
    ref = kernel_integral(*point)
    print(f"{ref_key(*point)}: unc_rel={ref['unc_rel']:.1e} "
          f"arches={ref['arches']} ({time.perf_counter() - t0:.1f} s)",
          file=sys.stderr)
    return ref


def main() -> int:
    points: list[tuple[int, float]] = []
    for workload in WORKLOADS:
        for point in kernel_points(workload):
            if point not in points:
                points.append(point)
    with multiprocessing.get_context("spawn").Pool() as pool:
        refs = pool.map(_job, points, chunksize=1)
    payload = {
        "recipe": (
            f"mpmath {mp.__version__}, {DPS} digits: arches between "
            "besseljzero partition points by mp.quad, least-squares tail "
            "model X^(1-gamma) poly(1/X); unc_rel is the spread across "
            "model depths and fit windows"
        ),
        "points": {ref_key(r["d"], r["p"]): r for r in refs},
        "unsettled": [
            ref_key(r["d"], r["p"]) for r in refs if r["unc_rel"] > SETTLED_REL
        ],
    }
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
