"""Cold jobs import no numpy submodule on the way.

Each CLI job runs in a fresh process, so an import that numpy makes lazily
on first use is paid by every job: the first ``np.unique`` in a process
imports ``numpy.ma``, which takes longer than a small ``tight`` job's
arithmetic.  No module under ``src/`` may reach such an import: small
``sweep``, ``verify``, ``report`` and ``gls --check-profile`` jobs, run one
after another in one fresh interpreter, must leave ``sys.modules`` with no
``numpy`` module that was not there once ``sphrestrict.cli`` was imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
import sphrestrict.cli as cli
before = set(sys.modules)
jobs = [
    ["sweep", "--d", "2:3:2", "--p", "1.2:1.3:2", "--q", "2"],
    ["sweep", "--d", "3", "--p", "1.2", "--q", "2", "--tol", "1e-12"],
    ["verify", "--d", "3", "--p", "1.2", "--q", "2", "--trials", "4",
     "--family", "gaussian_mixture"],
    ["report", "--d", "8", "--p", "1.3", "--q", "2"],
    ["gls", "--psi", sys.argv[1], "--d", "3", "--q", "1:2:2",
     "--check-profile", "gaussian:1.0"],
]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in jobs:
        codes.append(cli.main(argv))
added = sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy")
print(json.dumps({"codes": codes, "added": added}))
"""


def test_jobs_import_no_numpy_submodule(tmp_path):
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
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 5, "added": []}
