"""A cold job imports only the layers it runs.

Each CLI job runs in a fresh process, so the import of ``sphrestrict.cli``
is paid by every job.  ``sweep``, ``tight`` and ``report`` never use the
``gls``, ``verify`` or ``radial_fourier`` layers, which were about a third
of that import, so ``cli`` imports them inside the subcommands that run
them, ``restriction`` imports ``radial_fourier`` inside the two functions
that use it, and the package resolves their public names on first access.
The ``csv`` and ``json`` writers are imported by the jobs that write them,
and the table of first Bessel zeros by the first job that needs a zero.

In a fresh interpreter, ``import numpy`` then ``import sphrestrict.cli``
loads none of the three layers, neither writer and not the zero table; a
``report`` job (JSON) adds the zero table and a ``sweep`` job (CSV) adds
none of the layers, a ``verify`` job adds ``verify`` and
``radial_fourier`` only, and a ``gls`` job adds ``gls``.
The public API still answers every name in ``__all__``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sphrestrict

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sphrestrict"

SCRIPT = """
import contextlib, io, sys
import numpy
watched = (
    "sphrestrict.gls", "sphrestrict.verify", "sphrestrict.radial_fourier",
    "sphrestrict._zero_table", "csv", "json",
)

def loaded():
    return {name for name in watched if name in sys.modules}

import sphrestrict.cli as cli
steps = {"import": sorted(loaded())}
grid = ["--d", "3", "--p", "1.2", "--q", "2"]
jobs = {
    "report": ["report", *grid],
    "sweep": ["sweep", *grid],
    "verify": ["verify", *grid, "--trials", "2"],
    "gls": ["gls", "--psi", sys.argv[1], "--d", "3", "--q", "2"],
}
codes = []
for name, argv in jobs.items():
    before = loaded()
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    steps[name] = sorted(loaded() - before)
# repr, not json: the script must not import what it watches.
print(repr({"cli": cli.__file__, "codes": codes, "steps": steps}))
"""


def test_cold_jobs_import_only_the_layers_they_run(tmp_path):
    psi = tmp_path / "psi.csv"
    psi.write_text("p,psi\n1.05,3.5\n1.10,4.3\n1.15,5.5\n1.20,7.5\n")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(psi)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = ast.literal_eval(done.stdout.splitlines()[-1])
    assert Path(result["cli"]).resolve() == PACKAGE / "cli.py"
    assert result["codes"] == [0] * 4
    assert result["steps"] == {
        "import": [],
        "report": ["json", "sphrestrict._zero_table"],
        "sweep": ["csv"],
        "verify": ["sphrestrict.radial_fourier", "sphrestrict.verify"],
        "gls": ["sphrestrict.gls"],
    }


SUBMODULES = ("gls", "verify", "radial_fourier")


@pytest.mark.parametrize("name", [*sphrestrict.__all__, *SUBMODULES])
def test_public_name_resolves_to_its_definition(name):
    value = getattr(sphrestrict, name)
    if name in SUBMODULES:
        assert value is sys.modules[f"sphrestrict.{name}"]
    else:
        assert getattr(sys.modules[value.__module__], name) is value
    assert name in dir(sphrestrict)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from sphrestrict import *", namespace)
    assert {name: namespace[name] for name in sphrestrict.__all__} == {
        name: getattr(sphrestrict, name) for name in sphrestrict.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sphrestrict.no_such_name  # noqa: B018

