"""Exact stdout, stderr and exit code of the command line's front door.

Help, usage errors and ``--config`` handling are argparse's texts, built
from the subcommand table in ``cli``: every ``--help``, no arguments, an
unknown subcommand, an unknown flag, a missing required flag, a format
outside the choices, each way of naming ``--config`` (``--config P``,
``--config=P``, the abbreviations ``--conf P`` and ``--c=P``), a config
file named like a subcommand, a missing config file, and tokens the
parser rejects before the subcommand.  Well-formed jobs, which ``cli``
reads without argparse, are pinned too: one or two per subcommand, in
each format it offers, one in the ``--flag=value`` form and a ``report``
whose required flags come from a config file; they were frozen while
argparse still read every line.  ``tests/frozen/cli_texts.json`` holds
the texts, frozen with Python 3.11 at an 80-column terminal; the one
entry frozen later is ``verify --help``, whose ``--format`` offers
``json`` only.  Run this file as a script to re-freeze it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from sphrestrict.cli import main

FROZEN = Path(__file__).resolve().parent / "frozen" / "cli_texts.json"

FILES = {
    "run.cfg": "format=json\ntol=1e-8\n",
    "grid.cfg": "d=3\np=1.2\nq=2\n",
    "sweep": "format=json\n",
    "psi.csv": "p,psi\n1.05,3.5\n1.10,4.3\n1.15,5.5\n1.20,7.5\n",
}
GRID = ["--d", "3", "--p", "1.2", "--q", "2"]
COMMANDS = ("constant", "gaussian-bound", "sweep", "verify", "gls", "report")

CORPUS = {
    "help": ["--help"],
    "help_short": ["-h"],
    "help_abbreviated": ["--h"],
    **{f"{command}_help": [command, "--help"] for command in COMMANDS},
    "no_arguments": [],
    "unknown_command": ["frobnicate", *GRID],
    "unknown_flag": ["sweep", *GRID, "--bogus"],
    "missing_required_flag": ["sweep", "--d", "3", "--p", "1.2"],
    "format_not_a_choice": ["sweep", *GRID, "--format", "xml"],
    "unknown_token_before_command": ["-x", "sweep", *GRID],
    "double_dash_before_command": ["--", "sweep", *GRID],
    "config": ["--config", "run.cfg", "sweep", *GRID],
    "config_equals": ["--config=run.cfg", "sweep", *GRID],
    "config_abbreviated": ["--conf", "run.cfg", "sweep", *GRID],
    "config_abbreviated_equals": ["--c=run.cfg", "sweep", *GRID],
    "config_empty_equals": ["--config=", "sweep", *GRID],
    "config_twice": ["--config", "missing.cfg", "--config", "run.cfg", "sweep", *GRID],
    "config_supplies_required_flags": ["--config", "grid.cfg", "report"],
    "config_named_like_a_command": ["--config", "sweep", "report", *GRID],
    "config_missing": ["--config", "missing.cfg", "sweep", *GRID],
    "config_without_value": ["--config"],
    "config_without_command": ["--config", "run.cfg"],
    "config_value_is_an_option": ["--config", "--help", "sweep", *GRID],
    "config_unknown_command": ["--config", "run.cfg", "frobnicate"],
    "config_after_command": ["sweep", *GRID, "--config", "run.cfg"],
    "constant_json": ["constant", *GRID],
    "constant_csv_equals_form": ["constant", "--d=3", "--p=1.2", "--q=2", "--format=csv"],
    "gaussian_bound_json": ["gaussian-bound", *GRID],
    "gaussian_bound_csv": ["gaussian-bound", *GRID, "--sigma", "0.7", "--format", "csv"],
    "sweep_csv": ["sweep", "--d", "2:3:2", "--p", "1.2:1.4:2", "--q", "2", "--workers", "1"],
    "sweep_json": ["sweep", "--d", "2:3:2", "--p", "1.2", "--q", "2", "--format", "json",
                   "--tol", "1e-10"],
    "verify_json": ["verify", *GRID, "--seed", "1", "--trials", "2",
                    "--family", "compact_bump", "--ratio-tol", "1e-5"],
    "gls_json": ["gls", "--psi", "psi.csv", "--d", "3", "--q", "1:2:2",
                 "--source", "gaussian_lower", "--check-profile", "gaussian:1.0"],
    "gls_csv": ["gls", "--psi", "psi.csv", "--d", "3", "--q", "1:2:2", "--a", "1.01",
                "--b", "1.3", "--format", "csv"],
    "report_json": ["report", "--d", "3:4:2", "--p", "1.2", "--q", "2"],
    "report_csv_from_config": ["--config", "grid.cfg", "report", "--format", "csv"],
}


def replay(argv: list[str]) -> dict:
    """stdout, stderr and exit code of ``main(argv)``, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _prepare(folder: Path) -> None:
    for name, text in FILES.items():
        (folder / name).write_text(text)


def test_corpus_is_frozen():
    assert sorted(json.loads(FROZEN.read_text())) == sorted(CORPUS)


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_texts(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    _prepare(tmp_path)
    assert replay(CORPUS[case]) == json.loads(FROZEN.read_text())[case]


if __name__ == "__main__":
    import os
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        _prepare(Path(folder))
        texts = {case: replay(argv) for case, argv in CORPUS.items()}
    FROZEN.write_text(json.dumps(texts, indent=1, sort_keys=True) + "\n")
