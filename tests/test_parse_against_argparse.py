"""The argparse-free parser of well-formed job lines agrees with argparse.

``cli._parse`` reads a job line without argparse when the line is a
subcommand (after any ``--config``) followed only by exact long flags of
it, each given once as ``--flag VALUE`` or ``--flag=VALUE`` with a value
its type and choices accept, and every required flag given or set by the
config file; it returns None for any other line, which ``cli.main`` hands
to argparse.  Over a corpus generated from the flag table in ``cli``,
wherever ``_parse`` returns a namespace, argparse (the parser
``cli.build_parser`` makes, with the config values applied as its
defaults) must accept the line and give the same attributes: every flag's
dest, ``command``, ``config`` and the handler ``func``.  The lines the
benchmark runs, the README's examples and the ``--config`` jobs of
``tests/test_cli_texts.py`` must take the argparse-free path.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from sphrestrict import cli

ROOT = Path(__file__).resolve().parent.parent

GOOD = {int: "3", float: "1.25", str: "2:3:2"}
BAD = {int: ["abc", "1.5"], float: ["abc"], str: []}


def _good(flag) -> str:
    return flag.choices[0] if flag.choices else GOOD[flag.type]


def _pairs(flags) -> list[str]:
    return [token for flag in flags for token in (flag.name, _good(flag))]


def _corpus(command: str) -> dict[str, list[str]]:
    """Case name -> the tokens after ``command``."""
    flags = cli._flags(command)
    required = [f for f in flags if f.required]
    optional = [f for f in flags if not f.required]
    base = _pairs(required)
    cases = {
        "required": base,
        "required_equals": [f"{f.name}={_good(f)}" for f in required],
        "unknown_flag": [*base, "--bogus", "1"],
        "abbreviation": [*base, "--tr", "2"],
        "abbreviated_workers": [*base, "--work", "1"],
        "help": [*base, "--help"],
        "stray_token": [*base, "extra"],
        "flag_without_value": [*base, "--tol"],
        "format_not_a_choice": [*base, "--format", "xml"],
    }
    for choice in ("json", "csv"):
        cases[f"format_{choice}"] = [*base, "--format", choice]
    for flag in optional:
        cases[f"{flag.dest}_spaced"] = [*base, flag.name, _good(flag)]
        cases[f"{flag.dest}_equals"] = [*base, f"{flag.name}={_good(flag)}"]
        cases[f"{flag.dest}_repeated"] = [*base, *[flag.name, _good(flag)] * 2]
    for flag in flags:
        others = _pairs(f for f in required if f is not flag)
        for value in ("-1", "-x"):
            cases[f"{flag.dest}_spaced_{value}"] = [*others, flag.name, value]
            cases[f"{flag.dest}_equals_{value}"] = [*others, f"{flag.name}={value}"]
        cases[f"{flag.dest}_empty_equals"] = [*others, f"{flag.name}="]
        for i, value in enumerate(BAD[flag.type]):
            cases[f"{flag.dest}_bad_{i}"] = [*others, flag.name, value]
        if flag.required:
            cases[f"{flag.dest}_missing"] = others
            cases[f"{flag.dest}_repeated"] = [*base, flag.name, _good(flag)]
    return cases


def _config(command: str) -> str:
    """A config file setting the first required flag (or ``d`` where none is
    required), the ``tol`` default and ``format=json``, which for ``sweep``
    overrides its subcommand default ``csv``."""
    flags = cli._flags(command)
    first = next((f for f in flags if f.required), flags[0])
    return f"{first.dest}={_good(first)}\ntol=1e-7\nformat=json\n"


CASES = [
    (command, case, config)
    for command in cli.COMMANDS
    for config in (False, True)
    for case in _corpus(command)
]


def _argparse(argv: list[str], command: str, config) -> object:
    """argparse's namespace for ``argv``, or None where it exits."""
    preset = cli._config_values(command, config)
    parser = cli.build_parser(command, preset)[0]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit:
            return None


@pytest.mark.parametrize(
    "command, case, config", CASES,
    ids=[f"{command}-{case}-{'config' if config else 'flags'}" for command, case, config in CASES],
)
def test_namespace_equals_argparse(tmp_path, command, case, config):
    path = None
    if config:
        path = tmp_path / "job.cfg"
        path.write_text(_config(command))
        path = str(path)
    argv = ([f"--config={path}"] if path else []) + [command, *_corpus(command)[case]]
    fast = cli._parse(argv)
    slow = _argparse(argv, command, path)
    if fast is not None:
        assert slow is not None, argv
        assert vars(fast) == vars(slow)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_well_formed_lines_are_read_without_argparse(command):
    accepted = {case for case, tokens in _corpus(command).items()
                if cli._parse([command, *tokens]) is not None}
    optional = [f.dest for f in cli._flags(command) if not f.required]
    expected = {"required", "required_equals", "format_json",
                *(f"{dest}_{form}" for dest in optional for form in ("spaced", "equals"))}
    if command != "verify":
        expected.add("format_csv")
    declined = {"unknown_flag", "abbreviation", "abbreviated_workers", "help", "stray_token",
                "flag_without_value", "format_not_a_choice"}
    assert expected <= accepted
    assert not declined & accepted
    assert not {case for case in accepted
                if case.endswith(("_repeated", "_missing", "_spaced_-1", "_spaced_-x"))}


# The four benchmark jobs, written out (dominance at seed 0).
BENCHMARK_JOBS = [
    "sweep --d 2:4:3 --p 1.1:1.6:12 --q 1:3:5 --workers 1",
    "verify --d 2:4:3 --p 1.2 --q 2 --seed 0 --trials 200 --family gaussian_mixture --workers 1",
    "sweep --d 2:4:3 --p 1.2 --q 2 --tol 1e-12 --workers 1",
    "report --d 4:16:4 --p 1.05:1.55:6 --q 2 --workers 1",
]


def _readme_examples() -> list[str]:
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [line.removeprefix("sphrestrict ") for line in block.splitlines()
            if line.startswith("sphrestrict ")]


CONFIG_JOBS = [
    "--config run.cfg sweep --d 3 --p 1.2 --q 2",
    "--config=run.cfg sweep --d 3 --p 1.2 --q 2",
    "--conf run.cfg sweep --d 3 --p 1.2 --q 2",
    "--c=run.cfg sweep --d 3 --p 1.2 --q 2",
    "--config= sweep --d 3 --p 1.2 --q 2",
    "--config missing.cfg --config run.cfg sweep --d 3 --p 1.2 --q 2",
    "--config grid.cfg report",
]


@pytest.mark.parametrize("line", [*BENCHMARK_JOBS, *_readme_examples(), *CONFIG_JOBS])
def test_documented_jobs_take_the_argparse_free_path(tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("format=json\ntol=1e-8\n")
    (tmp_path / "grid.cfg").write_text("d=3\np=1.2\nq=2\n")
    argv = line.split()
    fast = cli._parse(argv)
    assert fast is not None
    config, command, _ = cli._scan(argv)
    assert vars(fast) == vars(_argparse(argv, command, config))


def test_readme_lists_six_examples():
    assert [line.split()[0] for line in _readme_examples()] == list(cli.COMMANDS)
