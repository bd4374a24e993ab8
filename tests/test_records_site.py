"""Records without code generation, by AST scan and in a cold process.

Each CLI job runs in a fresh process, so the import of ``sphrestrict.cli``
is paid by every job.  A ``@dataclass`` compiles its generated methods
with ``exec`` when its module is imported, 0.3-0.6 ms a class, which was
about half of the package's import; the records are ``typing.NamedTuple``s
instead.  So no module under ``src/`` imports ``dataclasses``, and in a
fresh interpreter ``import numpy`` then ``import sphrestrict.cli`` adds no
``dataclasses`` module to ``sys.modules``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sphrestrict"


def dataclasses_imports(source: str) -> list[int]:
    """The line of each statement that imports ``dataclasses`` or one of its
    submodules or names, in source order."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        if any(module.split(".")[0] == "dataclasses" for module in modules):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    assert dataclasses_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("from dataclasses import dataclass, field\n", [1]),
        ("import math\nimport dataclasses\n", [2]),
        ("import os, dataclasses as dc\n", [1]),
        ("def f():\n    from dataclasses import replace\n    return replace\n", [2]),
        ("from .dataclasses import x\nfrom typing import NamedTuple\n", []),
        ("import mydataclasses\nx = 'dataclasses'\n", []),
    ],
    ids=["from", "import", "alias", "nested", "relative", "lookalikes"],
)
def test_scanner(source, lines):
    assert dataclasses_imports(source) == lines


SCRIPT = """
import json, sys
import numpy
before = set(sys.modules)
import sphrestrict.cli
added = sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "dataclasses")
print(json.dumps({"cli": sphrestrict.cli.__file__, "added": added}))
"""


def test_cold_import_loads_no_dataclasses(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert Path(result["cli"]).resolve() == PACKAGE / "cli.py"
    assert result["added"] == []
