"""The benchmark's four CLI jobs and the grids they cover.

Each workload is one cold ``sphrestrict`` CLI job with ``--workers 1``.
Only ``dominance`` depends on the seed (its random profile streams); the
grids are fixed so that their kernel-integral references stay frozen in
``refs.json``.
"""

from __future__ import annotations

WORKLOADS = ("sweep", "dominance", "tight", "highdim")

# Profile streams per dominance run.  The work of one 200-profile stream
# varies by about a tenth between seeds, so a run cycles through several
# streams derived from its seed and reports the median job.
STREAMS = 5
TRIALS = 200  # profiles per dominance grid point


def cli_args(workload: str, seed: int) -> list[str]:
    """The argument vector passed to ``sphrestrict.cli.main``."""
    if workload == "sweep":
        args = ["sweep", "--d", "2:4:3", "--p", "1.1:1.6:12", "--q", "1:3:5"]
    elif workload == "dominance":
        args = ["verify", "--d", "2:4:3", "--p", "1.2", "--q", "2",
                "--seed", str(seed), "--trials", str(TRIALS),
                "--family", "gaussian_mixture"]
    elif workload == "tight":
        args = ["sweep", "--d", "2:4:3", "--p", "1.2", "--q", "2",
                "--tol", "1e-12"]
    elif workload == "highdim":
        args = ["report", "--d", "4:16:4", "--p", "1.05:1.55:6", "--q", "2"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return args + ["--workers", "1"]


def job_seed(workload: str, seed: int, job: int) -> int:
    """The ``--seed`` of a run's ``job``-th CLI job (used by ``dominance``)."""
    return seed * STREAMS + job % STREAMS if workload == "dominance" else seed


def tolerance(workload: str) -> float:
    """The quadrature tolerance the workload's job requests."""
    return 1e-12 if workload == "tight" else 1e-9


def range_values(text: str) -> list[float]:
    """A scalar or ``min:max:steps`` range, endpoints included.

    Mirrors the CLI's documented range syntax so that the benchmark knows
    the exact exponents each job computes.
    """
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps == 1:
        return [lo]
    width = (hi - lo) / (steps - 1)
    return [lo + i * width for i in range(steps - 1)] + [hi]


def in_window(d: int, p: float) -> bool:
    """Whether the kernel integral converges: 1 < p < 2d/(d+1)."""
    return 1.0 < p < 2.0 * d / (d + 1.0)


def grid(workload: str) -> list[tuple[int, float, float]]:
    """Every (d, p, q) the job visits, in output order."""
    args = cli_args(workload, 0)
    flags = {args[i]: args[i + 1] for i in range(1, len(args) - 1, 2)}
    return [
        (int(d), p, q)
        for d in range_values(flags["--d"])
        for p in range_values(flags["--p"])
        for q in range_values(flags["--q"])
    ]


def kernel_points(workload: str) -> list[tuple[int, float]]:
    """The distinct in-window (d, p) whose kernel integral the job needs."""
    points: list[tuple[int, float]] = []
    for d, p, _ in grid(workload):
        if in_window(d, p) and (d, p) not in points:
            points.append((d, p))
    return points


def ref_key(d: int, p: float) -> str:
    """Reference key: ``p`` as the CLI prints it (15 significant digits)."""
    return f"{d},{float(p):.15g}"
