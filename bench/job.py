"""One benchmark child process: a cold CLI job, traced or not, or a probe.

    python3 bench/job.py ROOT import
    python3 bench/job.py ROOT run   CLI-ARGS...
    python3 bench/job.py ROOT trace CLI-ARGS...
    python3 bench/job.py ROOT kernel D P
    python3 bench/job.py ROOT probe

``ROOT`` is the checkout whose ``src/sphrestrict`` is measured.  Every mode
times ``import sphrestrict.cli`` in this fresh interpreter (after an untimed
``import numpy``), then does its work and prints one JSON object on stdout.
A CLI job runs between two timings of ``yardstick_s``, and an import-only
process times one after its import; the job's own output is captured in
memory and returned under ``"stdout"``.

The tracer wraps every public function of each package module, at every
module attribute that binds it (``quadrature`` and ``restriction`` import
``bessel_j`` and friends by name), and aggregates spans by (caller, callee):
the leaf calls run to hundreds of thousands per job, too many to keep one
record each.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

LAYERS = ("special_fns", "quadrature", "radial_fourier", "restriction",
          "gls", "verify", "cli")


def _import_package(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    # numpy's own import (0.08 s on a shared 2-vCPU Xeon VM, doubling in the
    # host's slow state while the package's own import did not move) is a
    # dependency's fixed cost, so it happens before the clock starts.
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    import sphrestrict.cli as cli
    setup_s = time.perf_counter() - t0
    where = Path(cli.__file__).resolve()
    if src not in where.parents:
        raise RuntimeError(f"imported {where}, not the checkout under {src}")
    return cli, setup_s


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Aggregated spans of the package's public functions.

    ``edges[(caller, callee)]`` holds ``[calls, seconds, self_seconds,
    failed, evaluations]``; the caller is the nearest enclosing traced
    function ("" at the top).  ``evaluations`` sums the ``evaluations``
    field of ``integrate_finite`` results, 15 per GK15 panel.
    """

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.edges: dict[tuple[str, str], list] = {}

    def wrap(self, name: str, fn):
        stack = self.stack
        edges = self.edges
        clock = time.perf_counter
        counts_evaluations = name == "quadrature.integrate_finite"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0, 0, 0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
                if not ok:
                    edge[3] += 1
                elif counts_evaluations:
                    edge[4] += result.evaluations

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer where they are bound."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sphrestrict.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sphrestrict" and not mod_name.startswith("sphrestrict."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def dump(self) -> list:
        return [[caller, callee] + stats
                for (caller, callee), stats in sorted(self.edges.items())]


YARDSTICK_ROUNDS = 4000


def yardstick_s(rounds: int = YARDSTICK_ROUNDS) -> float:
    """Seconds for a fixed block of pure-Python float work, a Miller-type
    recurrence like the package's own; run.py's unit of machine speed.

    With fewer ``rounds``, the time is scaled up to the full block.
    """
    t0 = time.perf_counter()
    for _ in range(rounds):
        f1, f0 = 1e-30, 0.0
        for m in range(400, 0, -1):
            f1, f0 = (2.0 * m / 7.3) * f1 - f0, f1
            if abs(f1) > 1e200:
                f1 *= 1e-200
                f0 *= 1e-200
    return (time.perf_counter() - t0) * YARDSTICK_ROUNDS / rounds


def _run_cli(cli, argv: list[str]) -> dict:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a raw exception is what the user would see
            traceback.print_exc()
            code = 1
    wall_s = time.perf_counter() - t0
    return {"exit": code, "wall_s": wall_s, "stdout": buf.getvalue()}


def _median_us(fn, inputs, repeats: int = 5) -> float:
    """Median over repeats of the mean time per call, in microseconds."""
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in inputs:
            fn(*args)
        per_call.append((time.perf_counter() - t0) / len(inputs))
    return statistics.median(per_call) * 1e6


def _grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# Inputs inside the regime bands the README documents for bessel_j:
# series for x <= 2, half-integer forms for x >= max(2, nu), Miller's
# recurrence in the middle, Hankel's expansion for x >= max(30, nu(nu+1)).
BESSEL_REGIMES = {
    "series": [(nu, x) for nu in (0.0, 1.0, 2.3) for x in _grid(0.1, 2.0, 200)],
    "half_integer": [(nu, x) for nu in (0.5, 1.5) for x in _grid(3.0, 60.0, 300)],
    "miller": [(nu, x) for nu in (0.0, 1.0, 2.3) for x in _grid(5.0, 20.0, 200)],
    "miller_large_order": [(7.0, x) for x in _grid(10.0, 50.0, 300)],
    "hankel": [(nu, x) for nu in (0.0, 1.0) for x in _grid(40.0, 400.0, 300)],
}

RATIO_FAMILIES = ("gaussian_mixture", "polynomial_times_gaussian", "compact_bump")


def _probe(sph) -> dict:
    out = {}
    for regime, inputs in BESSEL_REGIMES.items():
        out[f"special_fns.bessel_j.us.{regime}"] = _median_us(sph.bessel_j, inputs)

    def one_panel():
        res = sph.integrate_finite(math.cos, 0.0, 1.0)
        if res.evaluations != 15:
            raise RuntimeError(f"GK15 probe took {res.evaluations} evaluations")

    out["quadrature.gk15_panel_us"] = _median_us(one_panel, [()] * 400)

    params = sph.RestrictionParams(3, 1.2, 2.0)
    for family in RATIO_FAMILIES:
        profiles = sph.generate_profiles(sph.RandomRadialSpec(0, family, 12))
        us = _median_us(lambda prof: sph.ratio_z(params, prof),
                        [(prof,) for prof in profiles], repeats=3)
        out[f"restriction.ratio_z_ms.{family}"] = us / 1000.0
    return out


def main(argv: list[str]) -> int:
    root, mode, rest = Path(argv[0]), argv[1], argv[2:]
    cli, setup_s = _import_package(root)
    result: dict = {"setup_s": setup_s}
    if mode in ("run", "trace"):
        tracer = Tracer() if mode == "trace" else None
        if tracer:
            tracer.install()
        before = yardstick_s()
        result.update(_run_cli(cli, rest))
        result["yardstick_s"] = [before, yardstick_s()]
        if tracer:
            result["edges"] = tracer.dump()
    elif mode == "kernel":
        import sphrestrict as sph

        params = sph.RestrictionParams(int(rest[0]), float(rest[1]), 2.0)
        t0 = time.perf_counter()
        sph.sharp_radial_constant(params)
        result["kernel_ms"] = (time.perf_counter() - t0) * 1000.0
    elif mode == "probe":
        import sphrestrict as sph

        result["probes"] = _probe(sph)
    elif mode == "import":
        # The import takes a few hundredths of a second, so a quarter block
        # is enough to put it in reference seconds too.
        result["yardstick_s"] = [yardstick_s(YARDSTICK_ROUNDS // 4)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = _peak_rss_mb()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
