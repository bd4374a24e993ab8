"""Every imported name in the package and its tests is referenced.

A stdlib-``ast`` scan of ``src/sphrestrict/*.py`` (the package
``__init__`` re-exports by design and is left out) and ``tests/*.py``.
An import is exempt when it is ``from __future__``, or when its line
carries ``# noqa: F401``.  A name counts as used when it appears as an
identifier anywhere in the module, inside a string annotation such as
``"str | Path"``, or in the module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    path
    for path in [*(ROOT / "src" / "sphrestrict").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def _imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Bound name -> line number of every checked import in the module."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(a, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        for alias, name in bound:
            marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
            if not any("# noqa: F401" in line for line in marked):
                names[name] = alias.lineno
    return names


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Identifiers in an annotation, including those inside string parts."""
    found: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            found |= _annotation_names(inner.body)
    return found


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {
                elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of every checked import the module never references."""
    tree = ast.parse(source)
    imported = _imported_names(tree, source.splitlines())
    used = _used_names(tree)
    return sorted(
        ((name, line) for name, line in imported.items() if name not in used),
        key=lambda item: item[1],
    )


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


class TestScanner:
    def test_flags_unused_names(self):
        source = "import os\nimport json as js\nfrom math import pi, tau\nprint(pi)\n"
        assert unused_imports(source) == [("os", 1), ("js", 2), ("tau", 3)]

    def test_dotted_import_binds_its_first_part(self):
        assert unused_imports("import os.path\nos.sep\n") == []

    def test_future_and_noqa_are_exempt(self):
        source = (
            "from __future__ import annotations\n"
            "import numpy  # noqa: F401\n"
            "from typing import (\n"
            "    Optional,  # noqa: F401\n"
            ")\n"
        )
        assert unused_imports(source) == []

    def test_string_annotations_count_as_use(self):
        source = (
            "from pathlib import Path\n"
            "from typing import Optional\n"
            "def load(path: \"str | Path\") -> 'Optional[int]':\n"
            "    return None\n"
        )
        assert unused_imports(source) == []

    def test_plain_strings_do_not_count_as_use(self):
        assert unused_imports("from pathlib import Path\nx = 'Path'\n") == [("Path", 1)]

    def test_all_counts_as_use(self):
        assert unused_imports("from math import pi\n__all__ = ['pi']\n") == []

    def test_the_scan_covers_package_and_tests(self):
        names = {path.name for path in SCANNED}
        assert {"radial_fourier.py", "verify.py", "oracles.py", "test_cli.py"} <= names
        assert "__init__.py" not in names
