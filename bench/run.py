"""Benchmark of the sphrestrict CLI as a cold batch job.

    python3 bench/run.py --workload {sweep,dominance,tight,highdim,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
``src/``.  Every job runs in a fresh interpreter (``job.py``) with cold
caches and ``--workers 1``, one job at a time (closed loop, one client).

``--trace 0`` repeats the workload's job for ``--seconds`` seconds, between
two blocks of import-only processes, and reports the end-to-end metrics:
medians of import time (``setup_s``), job time and throughput, all in
reference seconds (see ``YARDSTICK_REF_S``), the fraction of operations that
succeeded, the kernel integrals' error against the frozen references in
``refs.json``, and peak RSS.

``--trace 1`` runs the job once untraced and then traced (at least twice,
for ``--seconds`` seconds), and reports per-layer counts and times from
the traced runs, the tracing overhead, and the fixed-input layer probes.
Every count must repeat exactly between the traced runs.

Every job's output is checked; any failed check makes ``correct`` false.
A child that crashes or runs past ``CHILD_TIMEOUT_S`` is a failed job and a
failed check, and no further job is started.  The last line of stdout is
the JSON result.  Set-up failures (no package under ``src/``, no
references) exit with code 2 and print no result.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import (
    STREAMS, TRIALS, WORKLOADS, cli_args, grid, in_window, job_seed, ref_key,
    tolerance,
)

HERE = Path(__file__).resolve().parent
JOB = HERE / "job.py"
REFS = HERE / "refs.json"

IMPORT_BLOCK = 7  # back-to-back import processes at each end of a run
MIN_JOBS = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 60
# Below the minimum job count, jobs are still only started while the run is
# expected to end within this many seconds, so a slow program ends the run
# early rather than late.
MAX_RUN_S = 120
# A computed kernel integral this many tolerances off its reference is wrong,
# not merely less accurate: the run fails.
GROSS_ERR_OVER_TOL = 100.0

SWEEP_COLUMNS = [
    "d", "p", "q", "p_prime", "beta", "integral", "integral_err",
    "k_rad", "k_rad_paper", "gauss_opt", "gauss_paper", "tomas_stein_ok",
]
SKIPPED_CELLS = ("integral", "integral_err", "k_rad", "k_rad_paper")

# The shared 2-vCPU machine this was built on changes speed by up to a
# third, over seconds to minutes (CPU time moves with wall time, so it is
# not preemption).  Each job process therefore also times a fixed block of
# pure-Python work (job.yardstick_s) right before and after the CLI job, and
# the job's time is reported in reference seconds: wall time *
# YARDSTICK_REF_S / the mean of its two yardstick times, i.e. its wall time
# on a machine whose yardstick takes YARDSTICK_REF_S.  Import-only processes
# time a yardstick after the import, and setup_s is scaled the same way.
# Raw medians go to stderr.
YARDSTICK_REF_S = 0.2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "ref_s",
    "points_per_s": "1/ref_s",
    "ok_frac": "fraction",
    "ref_err_over_tol": "tol",
    "peak_rss_mb": "MiB",
}

KERNEL_PROBES = {"d2_p1.2": (2, 1.2), "d3_p1.4": (3, 1.4), "d8_p1.5": (8, 1.5)}

SECONDS_OF = (
    "special_fns.bessel_j",
    "special_fns.bessel_j_zero",
    "quadrature.integrate_finite",
    "quadrature.integrate_oscillatory_bessel",
    "quadrature.integrate_semi_infinite_decaying",
    "radial_fourier.radial_hat",
    "radial_fourier.radial_lp_norm",
    "restriction.sharp_radial_constant",
    "restriction.ratio_z",
    "verify.generate_profiles",
)
SELF_SECONDS_OF = (
    "quadrature.integrate_oscillatory_bessel",
    "verify.run_dominance_suite",
)
# Layers with a workload; gls has none (see README.md).
BUSY_LAYERS = ("special_fns", "quadrature", "radial_fourier", "restriction",
               "verify", "cli")


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


class ChildFailed(Exception):
    """A child process crashed or timed out: a fault of the program."""


class Checks:
    """Collects failed output checks; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok and message not in self.failures:
            self.failures.append(message)


# --- children ----------------------------------------------------------------


# Children may cache bytecode under src/, as an installed package has it.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def run_child(root: Path, mode: str, *args: str) -> dict:
    """One fresh interpreter running ``job.py``; returns its JSON result.

    Raises ChildFailed if it exits non-zero or runs past CHILD_TIMEOUT_S
    (it is then killed and waited for).
    """
    try:
        proc = subprocess.run(
            [sys.executable, str(JOB), str(root), mode, *args],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=root,
            env=CHILD_ENV,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"job.py {mode} ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise ChildFailed(f"job.py {mode} exited with {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.splitlines()[-1])


def try_child(root: Path, checks: Checks, mode: str, *args: str):
    """run_child, but a failed child fails a check and gives None."""
    try:
        return run_child(root, mode, *args)
    except ChildFailed as exc:
        checks.expect(False, str(exc))
        return None


def reference_s(seconds: float, yardsticks: list[float]) -> float:
    """``seconds`` on a machine whose yardstick takes YARDSTICK_REF_S."""
    return seconds * YARDSTICK_REF_S / statistics.fmean(yardsticks)


def median_or_zero(values: list[float]) -> float:
    """The median; 0 when every child that would have given a sample failed
    (the run is then incorrect anyway)."""
    return statistics.median(values) if values else 0.0


# --- output checks -----------------------------------------------------------


def kernel_from_k_rad(d: int, p: float, q: float, k_rad: float) -> float:
    """Invert K = A^(1/q - 1/p) (2 pi)^(d/2) I^(1/p') for the kernel integral."""
    area = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
    p_prime = p / (p - 1.0)
    log_i = p_prime * (
        math.log(k_rad) - (1.0 / q - 1.0 / p) * math.log(area)
        - 0.5 * d * math.log(2.0 * math.pi)
    )
    return math.exp(log_i)


def _float(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def check_output(workload: str, seed: int, job: dict, refs: dict,
                 checks: Checks) -> tuple[int, int, list[tuple[str, float]]]:
    """Check one job's output.

    Returns (operations attempted, operations succeeded, kernel integrals
    as ``(ref key, value)``).  An operation is one in-window grid point, or
    one profile ratio in ``dominance``; a non-zero exit fails them all.
    """
    points = grid(workload)
    if workload == "dominance":
        attempted = TRIALS * len(points)
    else:
        attempted = sum(in_window(d, p) for d, p, _ in points)
    if job["exit"] != 0:
        return attempted, 0, []
    parse = {"sweep": _check_sweep, "tight": _check_sweep,
             "dominance": _check_verify, "highdim": _check_report}[workload]
    try:
        ok, integrals = parse(points, seed, job["stdout"], checks)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        checks.expect(False, f"unreadable output: {exc!r}")
        return attempted, 0, []
    return attempted, ok, integrals


def _same_point(row_d, row_p, row_q, point) -> bool:
    d, p, q = point
    return (int(row_d) == d and f"{float(row_p):.15g}" == f"{p:.15g}"
            and f"{float(row_q):.15g}" == f"{q:.15g}")


def _check_sweep(points, seed, text, checks):
    rows = list(csv.reader(io.StringIO(text)))
    checks.expect(rows[:1] == [SWEEP_COLUMNS], "sweep header differs from the stable schema")
    rows = [dict(zip(SWEEP_COLUMNS, row)) for row in rows[1:]]
    checks.expect(len(rows) == len(points), "sweep row count differs from the grid")
    ok = 0
    integrals = []
    for row, point in zip(rows, points):
        d, p, _ = point
        checks.expect(_same_point(row["d"], row["p"], row["q"], point),
                      "sweep rows are not in grid order")
        if not in_window(d, p):
            checks.expect(all(row[c] == "skipped" for c in SKIPPED_CELLS),
                          "an out-of-window sweep row lacks the skipped marker")
            continue
        value, k_rad = _float(row["integral"]), _float(row["k_rad"])
        # sweep aborts on a ConvergenceError, so it has no failed rows.
        checks.expect(value is not None and k_rad is not None,
                      "an in-window sweep row lacks a numeric integral or k_rad")
        if value is None or k_rad is None:
            continue
        ok += 1
        checks.expect(k_rad >= float(row["gauss_opt"]),
                      "k_rad < gauss_opt on a converged sweep row")
        integrals.append((ref_key(d, p), value))
    return ok, integrals


def _check_verify(points, seed, text, checks):
    report = json.loads(text)
    checks.expect(report["spec"]["seed"] == seed, "verify report carries another seed")
    checks.expect(len(report["points"]) == len(points),
                  "verify report point count differs from the grid")
    ok = 0
    integrals = []
    for entry, point in zip(report["points"], points):
        d, p, q = point
        gp = entry["grid_point"]
        checks.expect(_same_point(gp["d"], gp["p"], gp["q"], point),
                      "verify points are not in grid order")
        ok += entry["trials"]
        checks.expect(entry["trials"] == TRIALS, "verify ran another number of trials")
        checks.expect(not entry["failures"], "dominance violations reported")
        checks.expect(entry["max_ratio"] <= entry["k_rad"] * (1.0 + report["tol"]),
                      "max_ratio exceeds k_rad")
        integrals.append((ref_key(d, p), kernel_from_k_rad(d, p, q, entry["k_rad"])))
    return ok, integrals


def _check_report(points, seed, text, checks):
    rows = json.loads(text)
    checks.expect(len(rows) == len(points), "report row count differs from the grid")
    ok = 0
    integrals = []
    for row, point in zip(rows, points):
        d, p, q = point
        checks.expect(_same_point(row["d"], row["p"], row["q"], point),
                      "report rows are not in grid order")
        expected = math.exp(0.5 * d * (1.0 - 1.0 / p))
        for key in ("gauss_ratio", "gauss_ratio_predicted"):
            checks.expect(
                row[key] is not None and abs(row[key] - expected) <= 1e-6 * expected,
                f"report {key} differs from e^(a/2) by more than 1e-6",
            )
        if row["status"] != "ok":
            continue
        ok += 1
        checks.expect(row["k_rad"] >= row["gauss_opt"],
                      "k_rad < gauss_opt on a converged report row")
        integrals.append((ref_key(d, p), kernel_from_k_rad(d, p, q, row["k_rad"])))
    return ok, integrals


def ref_err_over_tol(integrals, refs: dict, tol: float, checks: Checks) -> float:
    """max |value - ref| / (tol |ref|) over the settled references.

    An integral more than GROSS_ERR_OVER_TOL tolerances off fails a check.
    """
    worst = 0.0
    for key, value in integrals:
        ref = refs["points"].get(key)
        checks.expect(ref is not None, f"no frozen reference for {key}")
        if ref is None or key in refs["unsettled"]:
            continue
        exact = float(ref["value"])
        err = abs(value - exact) / (tol * abs(exact))
        checks.expect(err <= GROSS_ERR_OVER_TOL,
                      f"kernel integral at {key} is {err:.3g} tolerances off its reference")
        worst = max(worst, err)
    return worst


# --- statistics --------------------------------------------------------------


def tail_percentile(values: list[float]):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    return pct, sorted(values)[max(0, math.ceil(pct / 100.0 * n) - 1)]


def describe(values: list[float]) -> str:
    tail = tail_percentile(values)
    extra = f", p{tail[0]} {tail[1]:.4g}" if tail else ", too few for a tail"
    return f"median of {len(values)}{extra}"


# --- traced metrics ----------------------------------------------------------


def layer_metrics(edges: list) -> tuple[dict, dict]:
    """(counts, times) per layer from one traced job's aggregated spans.

    Every count must repeat exactly between traced jobs.
    """
    calls, secs, self_s, failed = Counter(), Counter(), Counter(), Counter()
    finite_evals = arch_calls = arch_evals = 0
    for caller, callee, n, s, ss, f, evals in edges:
        calls[callee] += n
        self_s[callee] += ss
        failed[callee] += f
        if caller != callee:  # recursion must not count time twice
            secs[callee] += s
        if callee == "quadrature.integrate_finite":
            finite_evals += evals
            if caller == "quadrature.integrate_oscillatory_bessel":
                arch_calls += n
                arch_evals += evals
    constants = calls["restriction.sharp_radial_constant"]
    integrals = calls["quadrature.integrate_oscillatory_bessel"]
    counts = {
        "special_fns.bessel_j.calls": calls["special_fns.bessel_j"],
        "special_fns.bessel_j_zero.calls": calls["special_fns.bessel_j_zero"],
        "special_fns.gamma.calls": calls["special_fns.gamma"],
        "quadrature.integrate_finite.calls": calls["quadrature.integrate_finite"],
        "quadrature.gk15_panels": finite_evals // 15,
        "quadrature.arches": arch_calls,
        "quadrature.panels_per_arch": arch_evals / 15 / arch_calls if arch_calls else 0.0,
        "quadrature.integrate_oscillatory_bessel.calls": integrals,
        "quadrature.integrate_semi_infinite_decaying.calls":
            calls["quadrature.integrate_semi_infinite_decaying"],
        "radial_fourier.radial_hat.calls": calls["radial_fourier.radial_hat"],
        "radial_fourier.radial_lp_norm.calls": calls["radial_fourier.radial_lp_norm"],
        "restriction.sharp_radial_constant.calls": constants,
        "restriction.sharp_radial_constant.failed":
            failed["restriction.sharp_radial_constant"],
        "restriction.kernel_integrals": integrals,
        "restriction.kernel_reuse_ratio": 1.0 - integrals / constants if constants else 0.0,
        "restriction.ratio_z.calls": calls["restriction.ratio_z"],
    }
    times = {f"{name}.s": secs[name] for name in SECONDS_OF}
    times.update({f"{name}.self_s": self_s[name] for name in SELF_SECONDS_OF})
    bessel = calls["special_fns.bessel_j"]
    times["special_fns.bessel_j.us_per_call"] = (
        1e6 * secs["special_fns.bessel_j"] / bessel if bessel else 0.0
    )
    for layer in BUSY_LAYERS:
        times[f"{layer}.self_s"] = sum(
            v for name, v in self_s.items() if name.startswith(layer + ".")
        )
    return counts, times


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    counts, times = layer_metrics([])
    units = {name: "count" for name in counts}
    units["quadrature.panels_per_arch"] = "panels"
    units["restriction.kernel_reuse_ratio"] = "fraction"
    units.update({name: "s" for name in times})
    units["special_fns.bessel_j.us_per_call"] = "us"
    units["trace_overhead_s"] = "ref_s"
    units.update({f"special_fns.bessel_j.us.{regime}": "us" for regime in
                  ("series", "half_integer", "miller", "miller_large_order", "hankel")})
    units["quadrature.gk15_panel_us"] = "us"
    units.update({f"restriction.kernel_ms.{name}": "ms" for name in KERNEL_PROBES})
    units.update({f"restriction.ratio_z_ms.{family}": "ms" for family in
                  ("gaussian_mixture", "polynomial_times_gaussian", "compact_bump")})
    return units


# --- runs --------------------------------------------------------------------


def _job_and_check(root, workload, seed, refs, checks, mode, first_stdout):
    """One CLI job, checked.  A crashed child is a job with ``exit`` None,
    no timings and no succeeded operations."""
    job = try_child(root, checks, mode, *cli_args(workload, seed))
    if job is None:
        job = {"exit": None, "stdout": None}
    else:
        job["ref_s"] = reference_s(job["wall_s"], job["yardstick_s"])
    attempted, ok, integrals = check_output(workload, seed, job, refs, checks)
    job.update(attempted=attempted, ok=ok,
               ref_err=ref_err_over_tol(integrals, refs, tolerance(workload), checks))
    if first_stdout is not None and job["stdout"] is not None:
        checks.expect(job["stdout"] == first_stdout,
                      "stdout differs between two runs of one workload")
    return job


def another_job(jobs: list[dict], start: float, next_s: float, min_jobs: int,
                seconds: float) -> bool:
    """Whether to start another job, expected to take ``next_s`` seconds.

    Never after a crashed child; otherwise while it is expected to end
    inside the window, or below ``min_jobs`` within MAX_RUN_S.
    """
    if any(job["exit"] is None for job in jobs):
        return False
    end = time.perf_counter() - start + next_s
    return end <= seconds or (len(jobs) < min_jobs and end <= MAX_RUN_S)


def import_block(root: Path, checks: Checks) -> list[dict]:
    """Import-only processes run back to back; a failed one fails a check."""
    results = [try_child(root, checks, "import") for _ in range(IMPORT_BLOCK)]
    return [r for r in results if r is not None]


def measure(root: Path, workload: str, seed: int, seconds: float, refs: dict):
    """Untraced runs: returns (metrics, jobs run, jobs failed, checks)."""
    checks = Checks()
    start = time.perf_counter()
    try_child(root, checks, "import")  # warm-up: writes the bytecode cache
    imports = import_block(root, checks)
    block_s = time.perf_counter() - start
    # Dominance repeats its first stream, so every run checks byte identity.
    min_jobs = STREAMS + 1 if workload == "dominance" else MIN_JOBS
    jobs: list[dict] = []
    first_stdout: dict[int, str] = {}
    laps: list[float] = []
    # The closing import block must also end inside the window.
    while another_job(jobs, start, median_or_zero(laps) + block_s, min_jobs, seconds):
        lap = time.perf_counter()
        cli_seed = job_seed(workload, seed, len(jobs))
        job = _job_and_check(root, workload, cli_seed, refs, checks, "run",
                             first_stdout.get(cli_seed))
        if job["stdout"] is not None:
            first_stdout.setdefault(cli_seed, job["stdout"])
        jobs.append(job)
        laps.append(time.perf_counter() - lap)
    imports += import_block(root, checks)
    timed = [job for job in jobs if job["exit"] is not None]
    samples = {
        "setup_s": [reference_s(i["setup_s"], i["yardstick_s"]) for i in imports],
        "wall_s": [job["ref_s"] for job in timed],
        "points_per_s": [job["ok"] / job["ref_s"] for job in timed],
        "peak_rss_mb": [job["peak_rss_mb"] for job in timed],
    }
    metrics = {name: median_or_zero(values) for name, values in samples.items()}
    metrics["ok_frac"] = (sum(job["ok"] for job in jobs)
                          / sum(job["attempted"] for job in jobs))
    metrics["ref_err_over_tol"] = max(job["ref_err"] for job in jobs)
    samples["setup_s as measured"] = [i["setup_s"] for i in imports]
    samples["wall_s as measured"] = [job["wall_s"] for job in timed]
    samples["yardstick_s"] = [y for job in timed for y in job["yardstick_s"]]
    for name, values in samples.items():
        print(f"#   {workload} {name}: {median_or_zero(values):.6g}, "
              f"{describe(values)}", file=sys.stderr)
    failed_jobs = sum(job["exit"] != 0 for job in jobs)
    return ({name: metrics[name] for name in END_TO_END}, len(jobs), failed_jobs,
            checks)


def measure_traced(root: Path, workload: str, seed: int, seconds: float, refs: dict):
    """Traced runs: returns (metrics, jobs run, jobs failed, checks)."""
    checks = Checks()
    start = time.perf_counter()
    cli_seed = job_seed(workload, seed, 0)
    plain = _job_and_check(root, workload, cli_seed, refs, checks, "run", None)
    jobs = [plain]
    laps = [time.perf_counter() - start]
    while another_job(jobs, start, laps[-1], MIN_TRACED + 1, seconds):
        lap = time.perf_counter()
        jobs.append(_job_and_check(root, workload, cli_seed, refs, checks, "trace",
                                   plain["stdout"]))
        laps.append(time.perf_counter() - lap)
    traced = [job for job in jobs[1:] if job["exit"] is not None]
    counts, _ = layer_metrics(traced[0]["edges"] if traced else [])
    all_times = []
    for job in traced:
        job_counts, times = layer_metrics(job["edges"])
        drift = sorted(k for k in counts if job_counts[k] != counts[k])
        checks.expect(not drift, f"nondeterministic counts between traced runs: {drift}")
        all_times.append(times)
    metrics: dict = dict(counts)
    for name in layer_metrics([])[1]:
        metrics[name] = median_or_zero([t[name] for t in all_times])
    metrics["trace_overhead_s"] = (
        median_or_zero([job["ref_s"] for job in traced]) - plain.get("ref_s", 0.0)
    )
    probe = try_child(root, checks, "probe")
    if probe is not None:
        metrics.update(probe["probes"])
    for name, (d, p) in KERNEL_PROBES.items():
        kernel = try_child(root, checks, "kernel", str(d), str(p))
        if kernel is not None:
            metrics[f"restriction.kernel_ms.{name}"] = kernel["kernel_ms"]
    failed_jobs = sum(job["exit"] != 0 for job in jobs)
    return ({name: metrics.get(name, 0.0) for name in per_layer_units()}, len(jobs),
            failed_jobs, checks)


def load_refs() -> dict:
    if not REFS.is_file():
        raise SetupError(f"missing {REFS.name}; run gen_refs.py")
    return json.loads(REFS.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "sphrestrict" / "cli.py").is_file():
            raise SetupError(f"no sphrestrict package under {root / 'src'}")
        refs = load_refs()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        units = per_layer_units() if args.trace else END_TO_END
        run = measure_traced if args.trace else measure
        metrics: dict = {}
        jobs = failed = 0
        failures: list[str] = []
        for workload in workloads:
            values, n, bad, checks = run(root, workload, args.seed, args.seconds, refs)
            jobs += n
            failed += bad
            failures += [f"{workload}: {msg}" for msg in checks.failures]
            for name, value in values.items():
                print(f"{workload:9s} {name:52s} {value:.6g} {units[name]}")
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                metrics[key] = {"value": value, "unit": units[name]}
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for message in failures:
        print(f"bench: check failed: {message}", file=sys.stderr)
    result = {"correct": not failures, "attempted": jobs, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
