"""The command line's front door does only the work of the job it runs.

A well-formed job line, with or without ``--config``, is read without
argparse and builds no ``argparse.ArgumentParser``.  Any other line goes
to argparse: help and usage errors that name a subcommand (``sweep
--help``, an unknown flag) build the top-level parser and that
subcommand's, two, and those that name none build all seven, so they
print what they printed (``tests/test_cli_texts.py`` pins the texts).

CSV is written with plain joins, not the ``csv`` module: no column name
or cell the CLI writes (a formatted number or bool, ``skipped``,
``failed`` or empty) needs quoting.  Every CSV a job writes must equal
``csv.writer``'s output for the same rows.
"""

import ast
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sphrestrict import cli

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import argparse, contextlib, io, sys
import sphrestrict.cli as cli

built = []
init = argparse.ArgumentParser.__init__

def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting
counts = {}
for job in sys.argv[1:]:
    built.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(job.split())
        except SystemExit:
            pass
    counts[job] = len(built)
print(repr(counts))
"""

GRID = "--d 3 --p 1.2 --q 2"
PARSERS = {
    f"sweep {GRID}": 0,
    f"report {GRID}": 0,
    f"verify {GRID} --trials 2": 0,
    f"--config run.cfg sweep {GRID}": 0,
    f"sweep {GRID} --bogus": 2,
    "sweep --help": 2,
    "--help": 7,
    "frobnicate": 7,
}


def test_parsers_a_line_builds(tmp_path):
    (tmp_path / "run.cfg").write_text("tol=1e-8\n")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, *PARSERS],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert ast.literal_eval(done.stdout.splitlines()[-1]) == PARSERS


PSI = "p,psi\n1.05,3.5\n1.10,4.3\n1.15,5.5\n1.20,7.5\n1.25,12.0\n1.30,30.0\n"

# Job -> (argv, cells some row must hold).
CSV_JOBS = {
    "sweep": (["sweep", "--d", "4:5:2", "--p", "1.05:1.7:2", "--q", "2"],
              {"skipped", "failed"}),
    "report": (["report", "--d", "3:400:2", "--p", "1.2", "--q", "2", "--format", "csv"],
               {"", "failed", "ok"}),
    "report_predicted_overflow": (
        ["report", "--d", "1500", "--p", "50", "--q", "2", "--format", "csv"], {"", "failed"}),
    "constant": (["constant", "--d", "3", "--p", "1.2", "--q", "2", "--format", "csv"],
                 {"true"}),
    "gaussian_bound": (["gaussian-bound", "--d", "3", "--p", "1.2", "--q", "2",
                        "--format", "csv"], set()),
    "gaussian_bound_sigma": (["gaussian-bound", "--d", "3", "--p", "1.2", "--q", "2",
                              "--sigma", "0.7", "--format", "csv"], set()),
    "gls": (["gls", "--psi", "{psi}", "--d", "3", "--q", "1:3:5", "--format", "csv"], set()),
}


@pytest.mark.parametrize("job", CSV_JOBS)
def test_csv_equals_csv_writer(capsys, tmp_path, monkeypatch, job):
    psi = tmp_path / "psi.csv"
    psi.write_text(PSI)
    argv, cells = CSV_JOBS[job]
    written = []
    join = cli._csv_text

    def recording(columns, rows):
        written.append((columns, rows))
        return join(columns, rows)

    monkeypatch.setattr(cli, "_csv_text", recording)
    assert cli.main([arg.format(psi=psi) for arg in argv]) == 0
    out = capsys.readouterr().out
    ((columns, rows),) = written
    table = [[cli._fmt(v) if v is not None else "" for v in row] for row in rows]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(table)
    assert out == expected.getvalue()
    assert cells <= {cell for row in table for cell in row}
