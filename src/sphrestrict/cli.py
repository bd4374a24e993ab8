"""Batch command-line front door.

Subcommands::

    constant        sharp radial constant at one (d, p, q)
    gaussian-bound  Gaussian lower bound (optimised over sigma, or at --sigma)
    sweep           grid sweep emitting the fixed CSV/JSON schema
    verify          seeded random dominance suite (JSON report)
    gls             transfer weight zeta from a psi CSV, optional profile check
    report          closed-form vs first-principles consistency table

Exit codes: 0 success, 2 domain errors (inadmissible exponents, divergent
integrals, malformed inputs; ``gls --check-profile`` with ``--format csv``,
which has no place for the check), 3 numerical non-convergence.  ``sweep``,
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
in grid order.  A cold job loads only what it runs: ``_parse`` reads a
well-formed job line without argparse, from the flag records of
``COMMANDS``; help, usage errors and any line it declines go to argparse,
whose parser ``build_parser`` makes from the same records (for the
subcommand the line names, or all six), so its texts are unchanged.  The
``gls``, ``verify``, ``radial_fourier`` and ``json`` modules load where
they are used, and CSV is joined by hand.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

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

if TYPE_CHECKING:
    import argparse

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
    return format(value, ".15g") if isinstance(value, float) else str(value)


def _round_floats(obj):
    if isinstance(obj, float):
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
    except OSError as exc:
        raise DomainError(str(exc)) from None
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
    # No column name or cell (a formatted number or bool, "skipped",
    # "failed" or empty) holds a comma, quote or line break, so plain joins
    # give csv.writer's bytes with lineterminator="\n".
    lines = [columns, *([_fmt(v) if v is not None else "" for v in row] for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


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
        _emit(_csv_text(tuple(payload), [tuple(payload.values())]), args.output)
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
            entry = {key: None if value in ("skipped", "failed") else value
                     for key, value in zip(SWEEP_COLUMNS, row)}
            entry["skipped"] = row[5] == "skipped"
            if "failed" in row:
                entry["failed"] = True
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
    _emit(_json_text(report.to_dict()), args.output)
    return 0


def _cmd_gls(args) -> int:
    from .gls import PsiWeight, verify_transfer, zeta_from_psi

    if args.check_profile is not None and args.format == "csv":
        raise DomainError("--check-profile reports in JSON only: give --format json")
    psi = PsiWeight.from_csv(args.psi, a=args.a, b=args.b)
    q_grid = _parse_range(args.q)
    zeta = zeta_from_psi(psi, q_grid, args.d, args.source, args.tol)
    payload: dict = {
        "source": zeta.source,
        "cut_set": [p for p, _ in zeta.constant_table],
        "zeta": [{"q": q, "zeta": z} for q, z in zeta.samples],
    }
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
        _emit(_csv_text(("q", "zeta"), zeta.samples), args.output)
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


class Flag(NamedTuple):
    """A long flag of a subcommand: the keywords of argparse's ``add_argument``."""

    name: str
    type: Callable[[str], object] = str
    default: object = None
    required: bool = False
    choices: Optional[tuple[str, ...]] = None
    help: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


_POINT = (Flag("--d", int, required=True), Flag("--p", float, required=True),
          Flag("--q", float, required=True))
_RANGE = "value or min:max:steps"
_JSON_CSV = ("json", "csv")

# Subcommand -> (help, own flags, handler, --format choices, defaults), in
# the order ``--help`` lists them.
COMMANDS = {
    "constant": ("sharp radial constant at one point", _POINT, _cmd_constant, _JSON_CSV, {}),
    "gaussian-bound": ("Gaussian lower bound", (
        *_POINT, Flag("--sigma", float, help="evaluate at this sigma instead of maximising"),
    ), _cmd_gaussian_bound, _JSON_CSV, {}),
    "sweep": ("grid sweep (CSV schema stable)", (
        Flag("--d", required=True, help="dimension or min:max:steps"),
        Flag("--p", required=True, help=_RANGE), Flag("--q", required=True, help=_RANGE),
    ), _cmd_sweep, _JSON_CSV, {"format": "csv"}),
    "verify": ("seeded dominance suite", (
        Flag("--d", default="3"), Flag("--p", default="1.2"), Flag("--q", default="2"),
        Flag("--seed", int, 0), Flag("--trials", int, 200),
        Flag("--family", default="gaussian_mixture"),
        Flag("--ratio-tol", float, 1e-6, help="dominance assertion tolerance"),
    ), _cmd_verify, ("json",), {}),
    "gls": ("transfer weight from a psi CSV", (
        Flag("--psi", required=True, help="CSV with header p,psi"),
        Flag("--d", int, required=True), Flag("--q", required=True, help=_RANGE),
        Flag("--a", float), Flag("--b", float),
        Flag("--source", default="radial_sharp", choices=("radial_sharp", "gaussian_lower")),
        Flag("--check-profile", help="verify the transfer on a profile, e.g. gaussian:1.0"),
        Flag("--transfer-tol", float, 1e-8),
    ), _cmd_gls, _JSON_CSV, {}),
    "report": ("consistency report", tuple(Flag(f"--{x}", required=True) for x in "dpq"),
               _cmd_report, _JSON_CSV, {}),
}


def _flags(command: str) -> tuple[Flag, ...]:
    """Every flag of ``command``, in the order its ``--help`` lists them."""
    _, own, _, formats, _ = COMMANDS[command]
    return (
        *own,
        Flag("--tol", float, 1e-9, help="quadrature relative tolerance (default 1e-9)"),
        Flag("--format", default="json", choices=formats),
        Flag("--output", help="output path (default stdout)"),
        Flag("--workers", int, help="accepted for compatibility; jobs run serially"),
    )


def _convert(flag: Flag, raw: str):
    """``raw`` through the flag's type and choices, or a config entry's error."""
    try:
        value = flag.type(raw)
    except ValueError:
        raise DomainError(f"config entry {flag.dest}={raw!r} is malformed") from None
    if flag.choices and value not in flag.choices:
        raise DomainError(f"config entry {flag.dest}={raw!r} is malformed: expected one "
                          f"of {', '.join(flag.choices)}")
    return value


def _config_values(command: Optional[str], path: Optional[str]) -> dict:
    """The converted entries of the config file for the flags of ``command``,
    by dest: its defaults, which make a flag they set optional."""
    if not path:
        return {}
    config = _load_config(path)
    return {f.dest: _convert(f, config[f.dest]) for f in _flags(command) if f.dest in config}


def build_parser(
    command: Optional[str] = None, preset: Optional[dict] = None,
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name: the parser of
    ``command`` alone, or of every subcommand where ``command`` is None.
    ``preset`` holds the converted config values of ``command``."""
    import argparse

    preset = preset or {}
    parser = argparse.ArgumentParser(
        prog="sphrestrict",
        description="Sharp spherical restriction constants for radial functions.",
    )
    parser.add_argument("--config", help="flat key=value file pre-setting flags")
    # The usage line lists every name either way; with all six parsers
    # argparse lists them itself, and names the argument "command" in errors.
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}",
    )
    for name, (text, _, handler, _, defaults) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=text)
        for flag in _flags(name):
            p.add_argument(flag.name, type=flag.type, default=flag.default,
                           required=flag.required and flag.dest not in preset,
                           choices=flag.choices, help=flag.help)
        p.set_defaults(func=handler, **{**defaults, **preset})
    return parser, sub.choices


def _scan(argv: Sequence[str]) -> tuple[Optional[str], Optional[str], list[str]]:
    """``(config path, subcommand, the tokens after it)`` from ``--config
    PATH``, ``--config=PATH`` or an abbreviation (``--conf``), the last one
    winning, then the subcommand; ``(None, None, [])`` where any other token
    or a spaced ``-`` path comes first, for every subcommand's parser."""
    config = None
    tokens = iter(argv)
    for token in tokens:
        name, equals, value = token.partition("=")
        if len(name) < 3 or not "--config".startswith(name):
            return (config, token, list(tokens)) if token in COMMANDS else (None, None, [])
        if not equals:
            value = next(tokens, "-")
            if value.startswith("-"):
                break
        config = value
    return None, None, []


def _parse(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """argparse's namespace for a subcommand (after any ``--config``) whose
    later tokens are each an exact long flag of it, given once as ``--flag
    VALUE`` (VALUE not beginning with ``-``) or ``--flag=VALUE`` with a value
    its type and choices accept, every required flag given or set by the
    config file; None, for argparse to read and report, for any other line."""
    config, command, rest = _scan(argv)
    if command is None:
        return None
    flags = {flag.name: flag for flag in _flags(command)}
    given = {}
    tokens = iter(rest)
    for token in tokens:
        name, equals, value = token.partition("=")
        flag = flags.get(name)
        if flag is None or flag.dest in given:
            return None
        if not equals:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        try:
            given[flag.dest] = _convert(flag, value)
        except DomainError:
            return None
    preset = _config_values(command, config)
    if any(f.required and f.dest not in given and f.dest not in preset for f in flags.values()):
        return None
    _, _, handler, _, defaults = COMMANDS[command]
    values = {**{f.dest: f.default for f in flags.values()}, **defaults, **preset, **given}
    return SimpleNamespace(config=config, command=command, func=handler, **values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        if args is None:  # help, a usage error or a line only argparse reads
            config, command, _ = _scan(argv)
            parser = build_parser(command, _config_values(command, config))[0]
            args = parser.parse_args(argv)
            if args.config and command is None:  # a spaced path such as "-1"
                parser.error("argument --config: give a path that begins with '-' as --config=PATH")
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
