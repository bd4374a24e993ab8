"""Batch command-line front door.

Subcommands::

    constant        sharp radial constant at one (d, p, q)
    gaussian-bound  Gaussian lower bound (optimised over sigma, or at --sigma)
    sweep           grid sweep emitting the fixed CSV/JSON schema
    verify          seeded random dominance suite (JSON report)
    gls             transfer weight zeta from a psi CSV, optional profile check
    report          closed-form vs first-principles consistency table

Exit codes: 0 success, 2 domain errors (inadmissible exponents, divergent
integrals, malformed inputs), 3 numerical non-convergence.  ``sweep``,
``report`` and ``verify`` format the grid points of
``restriction.evaluate_grid``: a block that raised ``DomainError`` or
``ConvergenceError`` there is a failed cell, row or point, and the rest of
the grid is still printed.  Only ``sweep`` marks points outside the
convergence window ``skipped``, and only ``verify`` exits 2 on them.  All
floating point output is printed with 15 significant digits.  No
arithmetic happens here beyond formatting; every number is produced by a
library operation.

A flat ``key=value`` config file can pre-set any long flag of the invoked
subcommand (for example ``tol=1e-10``, ``format=csv`` or ``d=2:4:3``, which
makes a required flag optional); explicit flags win over the file, and
entries the subcommand has no flag for are ignored.  Grids run serially,
in grid order.  The ``gls``, ``verify`` and ``radial_fourier`` layers and
the ``csv`` and ``json`` writers are imported by the subcommands that use
them, so a cold job loads only what it runs.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from typing import Optional, Sequence

from .errors import ConvergenceError, DomainError
from .restriction import (
    GridPoint,
    RestrictionParams,
    evaluate_grid,
    gaussian_lower_bound,
    gaussian_lower_bound_optimized,
    radial_convergence_admissible,
    sharp_radial_constant,
    tomas_stein_admissible,
)

SWEEP_COLUMNS = (
    "d", "p", "q", "p_prime", "beta", "integral", "integral_err",
    "k_rad", "k_rad_paper", "gauss_opt", "gauss_paper", "tomas_stein_ok",
)

REPORT_COLUMNS = (
    "d", "p", "q", "k_rad", "k_rad_paper", "k_rad_ratio",
    "gauss_opt", "gauss_paper", "gauss_ratio", "gauss_ratio_predicted",
    "status",
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".15g")
    return str(value)


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return obj
        return float(format(obj, ".15g"))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _parse_range(text: str, integer: bool = False) -> list[float]:
    """Parse a min:max:steps range (endpoints included) or a scalar x, the
    range x:x:1."""
    parts = str(text).split(":")
    if len(parts) == 1:
        parts += [parts[0], "1"]
    try:
        lo, hi, steps = parts
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise DomainError(f"expected a number or 'min:max:steps', got {text!r}") from None
    if steps < 1:
        raise DomainError(f"range steps must be >= 1, got {steps}")
    if steps == 1:
        values = [lo]
    else:
        if not lo < hi:
            raise DomainError(f"range needs min < max, got {text!r}")
        width = (hi - lo) / (steps - 1)
        values = [lo + i * width for i in range(steps - 1)] + [hi]
    if not integer:
        return values
    if not all(v.is_integer() for v in values):
        raise DomainError(f"dimension grid must be integral, got {text!r}")
    return [int(v) for v in values]


def _load_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: cannot read the config file: {exc}") from None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        config[key.strip().replace("-", "_")] = value.strip()
    return config


def _check_output(output: str) -> None:
    """Reject, before any work and creating nothing, an output path that is a
    directory or whose directory is missing; ``_emit`` reports other failures."""
    if os.path.isdir(output):
        raise DomainError(f"cannot write the output file: {output!r} is a directory")
    folder = os.path.dirname(output) or "."
    if not os.path.isdir(folder):
        raise DomainError(f"cannot write the output file: no directory {folder!r}")


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        try:
            with open(output, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write the output file: {exc}") from None
    else:
        sys.stdout.write(text)


def _csv_text(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) if v is not None else "" for v in row])
    return buf.getvalue()


def _json_text(payload) -> str:
    import json

    return json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"


def _grid(args) -> list[RestrictionParams]:
    return [
        RestrictionParams(d, p, q)
        for d in _parse_range(args.d, integer=True)
        for p in _parse_range(args.p)
        for q in _parse_range(args.q)
    ]


def _cmd_constant(args) -> int:
    params = RestrictionParams(args.d, args.p, args.q)
    result = sharp_radial_constant(params, args.tol)
    payload = {
        "d": params.d,
        "p": params.p,
        "q": params.q,
        "p_prime": params.p_prime,
        "beta": params.beta,
        "k_rad_first_principles": result.k_rad_first_principles,
        "k_rad_paper_closed_form": result.k_rad_paper_closed_form,
        "kernel_integral": result.kernel_integral._asdict(),
        "tomas_stein_ok": tomas_stein_admissible(params),
    }
    if args.format == "json":
        _emit(_json_text(payload), args.output)
    else:
        columns = (
            "d", "p", "q", "p_prime", "beta", "k_rad", "k_rad_paper",
            "integral", "integral_err", "tomas_stein_ok",
        )
        row = (
            params.d, params.p, params.q, params.p_prime, params.beta,
            result.k_rad_first_principles, result.k_rad_paper_closed_form,
            result.kernel_integral.value, result.kernel_integral.error_estimate,
            tomas_stein_admissible(params),
        )
        _emit(_csv_text(columns, [row]), args.output)
    return 0


def _cmd_gaussian_bound(args) -> int:
    params = RestrictionParams(args.d, args.p, args.q)
    if args.sigma is not None:
        payload = {
            "d": params.d, "p": params.p, "q": params.q,
            "sigma": args.sigma,
            "bound": gaussian_lower_bound(params, args.sigma),
        }
    else:
        opt = gaussian_lower_bound_optimized(params)
        payload = {
            "d": params.d, "p": params.p, "q": params.q,
            "bound": opt.bound,
            "sigma_star": opt.sigma_star,
            "paper_closed_form": opt.paper_closed_form,
        }
    if args.format == "json":
        _emit(_json_text(payload), args.output)
    else:
        columns = tuple(payload.keys())
        _emit(_csv_text(columns, [tuple(payload.values())]), args.output)
    return 0


def _sweep_row(point: GridPoint) -> tuple:
    """One sweep row; the four integral/constant cells read ``skipped``
    outside the convergence window, and the Gaussian or the sharp-constant
    cells read ``failed`` where their block failed (the reason goes to
    stderr, Gaussian block first)."""
    params, sharp, gauss = point
    if isinstance(gauss, Exception):
        print(f"sphrestrict: {gauss}", file=sys.stderr)
        gauss_cells = ("failed",) * 2
    else:
        gauss_cells = (gauss.bound, gauss.paper_closed_form)
    if not radial_convergence_admissible(params.d, params.p):
        sharp_cells = ("skipped",) * 4
    elif isinstance(sharp, Exception):
        print(f"sphrestrict: {sharp}", file=sys.stderr)
        sharp_cells = ("failed",) * 4
    else:
        sharp_cells = (
            sharp.kernel_integral.value, sharp.kernel_integral.error_estimate,
            sharp.k_rad_first_principles, sharp.k_rad_paper_closed_form,
        )
    return (
        params.d, params.p, params.q, params.p_prime, params.beta,
        *sharp_cells, *gauss_cells, tomas_stein_admissible(params),
    )


def _cmd_sweep(args) -> int:
    rows = [_sweep_row(point) for point in evaluate_grid(_grid(args), args.tol)]
    if args.format == "csv":
        _emit(_csv_text(SWEEP_COLUMNS, rows), args.output)
    else:
        payload = []
        for row in rows:
            entry = dict(zip(SWEEP_COLUMNS, row))
            entry["skipped"] = row[5] == "skipped"
            if "failed" in row:
                entry["failed"] = True
            for key, value in entry.items():
                if value in ("skipped", "failed"):
                    entry[key] = None
            payload.append(entry)
        _emit(_json_text(payload), args.output)
    return 0


def _cmd_verify(args) -> int:
    from .verify import RandomRadialSpec, run_dominance_suite

    spec = RandomRadialSpec(seed=args.seed, family=args.family, count=args.trials)
    report = run_dominance_suite(
        _grid(args), spec, tol=args.ratio_tol, quad_tol=args.tol
    )
    # Dominance violations are report content, not process failures.
    _emit(report.to_json() + "\n", args.output)
    return 0


def _cmd_gls(args) -> int:
    from .gls import PsiWeight, verify_transfer, zeta_from_psi

    psi = PsiWeight.from_csv(args.psi, a=args.a, b=args.b)
    q_grid = _parse_range(args.q)
    payload: dict = {}
    zeta = zeta_from_psi(psi, q_grid, args.d, args.source, args.tol)
    payload["source"] = zeta.source
    payload["cut_set"] = [p for p, _ in zeta.constant_table]
    payload["zeta"] = [{"q": q, "zeta": z} for q, z in zeta.samples]
    if args.check_profile is not None:
        profile = _parse_profile(args.check_profile, args.d)
        transfer = verify_transfer(psi, profile, args.d, q_grid, args.transfer_tol)
        payload["transfer"] = {
            "profile": transfer.profile_label,
            "left": transfer.left,
            "right": transfer.right,
            "ratio": transfer.ratio,
            "ok": transfer.ok,
        }
    if args.format == "json":
        _emit(_json_text(payload), args.output)
    else:
        rows = [(q, z) for q, z in zeta.samples]
        _emit(_csv_text(("q", "zeta"), rows), args.output)
    return 0


def _parse_profile(text: str, d: int):
    from .radial_fourier import gaussian_profile

    kind, _, param = text.partition(":")
    if kind != "gaussian":
        raise DomainError(
            f"unknown profile {text!r}; expected 'gaussian:SIGMA'"
        )
    try:
        sigma = float(param) if param else 1.0
    except ValueError:
        raise DomainError(f"profile width must be a number, got {text!r}") from None
    return gaussian_profile(sigma, d)


def _report_row(point: GridPoint) -> tuple:
    """One report row; the cells of a failed block are empty."""
    params, sharp, gauss = point
    k_rads = (None,) * 3 if isinstance(sharp, Exception) else (
        sharp.k_rad_first_principles, sharp.k_rad_paper_closed_form, sharp.k_rad_ratio
    )
    bounds = (None,) * 3 if isinstance(gauss, Exception) else (
        gauss.bound, gauss.paper_closed_form, gauss.gauss_ratio
    )
    predicted = point.gauss_ratio_predicted
    return (
        params.d, params.p, params.q, *k_rads, *bounds,
        None if isinstance(predicted, Exception) else predicted,
        "failed" if point.errors else "ok",
    )


def _cmd_report(args) -> int:
    points = evaluate_grid(_grid(args), args.tol)
    rows = [_report_row(point) for point in points]
    if args.format == "csv":
        _emit(_csv_text(REPORT_COLUMNS, rows), args.output)
    else:
        payload = [
            dict(zip(REPORT_COLUMNS, row), error="; ".join(point.errors))
            for row, point in zip(rows, points)
        ]
        _emit(_json_text(payload), args.output)
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="sphrestrict",
        description="Sharp spherical restriction constants for radial functions.",
    )
    parser.add_argument("--config", help="flat key=value file pre-setting flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=1e-9,
                       help="quadrature relative tolerance (default 1e-9)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="output path (default stdout)")
        p.add_argument("--workers", type=int, default=None,
                       help="accepted for compatibility; jobs run serially")

    p_const = sub.add_parser("constant", help="sharp radial constant at one point")
    p_const.add_argument("--d", type=int, required=True)
    p_const.add_argument("--p", type=float, required=True)
    p_const.add_argument("--q", type=float, required=True)
    common(p_const)
    p_const.set_defaults(func=_cmd_constant)

    p_gauss = sub.add_parser("gaussian-bound", help="Gaussian lower bound")
    p_gauss.add_argument("--d", type=int, required=True)
    p_gauss.add_argument("--p", type=float, required=True)
    p_gauss.add_argument("--q", type=float, required=True)
    p_gauss.add_argument("--sigma", type=float, default=None,
                         help="evaluate at this sigma instead of maximising")
    common(p_gauss)
    p_gauss.set_defaults(func=_cmd_gaussian_bound)

    p_sweep = sub.add_parser("sweep", help="grid sweep (CSV schema stable)")
    p_sweep.add_argument("--d", required=True, help="dimension or min:max:steps")
    p_sweep.add_argument("--p", required=True, help="value or min:max:steps")
    p_sweep.add_argument("--q", required=True, help="value or min:max:steps")
    common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep, format="csv")

    p_verify = sub.add_parser("verify", help="seeded dominance suite")
    p_verify.add_argument("--d", default="3")
    p_verify.add_argument("--p", default="1.2")
    p_verify.add_argument("--q", default="2")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--family", default="gaussian_mixture")
    p_verify.add_argument("--ratio-tol", type=float, default=1e-6,
                          help="dominance assertion tolerance")
    common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_gls = sub.add_parser("gls", help="transfer weight from a psi CSV")
    p_gls.add_argument("--psi", required=True, help="CSV with header p,psi")
    p_gls.add_argument("--d", type=int, required=True)
    p_gls.add_argument("--q", required=True, help="value or min:max:steps")
    p_gls.add_argument("--a", type=float, default=None)
    p_gls.add_argument("--b", type=float, default=None)
    p_gls.add_argument("--source", choices=("radial_sharp", "gaussian_lower"),
                       default="radial_sharp")
    p_gls.add_argument("--check-profile", default=None,
                       help="verify the transfer on a profile, e.g. gaussian:1.0")
    p_gls.add_argument("--transfer-tol", type=float, default=1e-8)
    common(p_gls)
    p_gls.set_defaults(func=_cmd_gls)

    p_report = sub.add_parser("report", help="consistency report")
    p_report.add_argument("--d", required=True)
    p_report.add_argument("--p", required=True)
    p_report.add_argument("--q", required=True)
    common(p_report)
    p_report.set_defaults(func=_cmd_report)

    # The subcommand parsers by name.
    return parser, sub.choices


def _apply_config(sub_parser: argparse.ArgumentParser, config: dict[str, str]) -> None:
    # Config entries become the invoked subcommand's defaults (converted
    # through each option's own type and checked against its choices), and
    # a flag they pre-set is no longer required; flags given on the command
    # line still win.
    converted = {}
    for action in sub_parser._actions:  # noqa: SLF001 - argparse offers no public view
        if action.dest in config:
            raw = config[action.dest]
            try:
                value = action.type(raw) if action.type else raw
            except ValueError:
                raise DomainError(f"config entry {action.dest}={raw!r} is malformed") from None
            if action.choices is not None and value not in action.choices:
                raise DomainError(
                    f"config entry {action.dest}={raw!r} is malformed: expected one "
                    f"of {', '.join(map(str, action.choices))}"
                )
            converted[action.dest] = value
            action.required = False
    sub_parser.set_defaults(**converted)


def _config_request(argv: Sequence[str], commands: Sequence[str]) -> Optional[tuple[str, str]]:
    """``(config path, subcommand)`` when ``argv`` gives ``--config`` and names
    a subcommand, else None; a malformed command line is left to the full
    parser.  The subcommand is looked for only when there is a config."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        config = pre.parse_known_args(argv)[0].config
        if not config:
            return None
        stubs = pre.add_subparsers(dest="command")
        for name in commands:
            stubs.add_parser(name, add_help=False)
        command = pre.parse_known_args(argv)[0].command
    except argparse.ArgumentError:
        return None
    return (config, command) if command else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    # Config file values become defaults of the invoked subcommand only;
    # explicit flags still win.
    request = _config_request(argv, list(registry))
    if request:
        config, command = request
        try:
            _apply_config(registry[command], _load_config(config))
        except (OSError, DomainError) as exc:
            print(f"sphrestrict: {exc}", file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    try:
        if args.output:
            _check_output(args.output)
        return args.func(args)
    except DomainError as exc:
        print(f"sphrestrict: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"sphrestrict: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
