"""The README's oracle-independence checklist, items 1 and 4, by AST scan.

1. ``verify`` (the oracle) imports nothing of the production integrator
   from ``quadrature``: no name starting with ``integrate``,
   ``_integrate``, ``_gk15``, ``_cell``, ``_CellSum`` or ``_sum``, neither
   imported nor reached as an attribute of an imported ``quadrature``
   module.
4. The numeric modules ``quadrature``, ``radial_fourier``, ``restriction``
   and ``gls`` never import ``verify``.

Relative and absolute spellings (``from .quadrature import``,
``from sphrestrict import quadrature``, ``import sphrestrict.verify``)
all count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sphrestrict"
INTEGRATOR_PREFIXES = ("integrate", "_integrate", "_gk15", "_cell", "_CellSum", "_sum")
NUMERIC_MODULES = ("quadrature", "radial_fourier", "restriction", "gls")


def _module_of(node: ast.ImportFrom) -> str:
    """The package-relative module an import-from names ("" for the package)."""
    module = node.module or ""
    if node.level == 0:
        if module != "sphrestrict" and not module.startswith("sphrestrict."):
            return "<external>"
        module = module[len("sphrestrict"):].lstrip(".")
    return module


def imported_modules(source: str) -> set[str]:
    """Every package module the source imports, whole or by name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sphrestrict."):
                    found.add(alias.name.split(".")[1])
        elif isinstance(node, ast.ImportFrom):
            module = _module_of(node)
            if module == "":
                found.update(alias.name for alias in node.names)
            elif module != "<external>":
                found.add(module.split(".")[0])
    return found


def integrator_uses(source: str) -> list[str]:
    """Names of the production integrator the source takes from ``quadrature``."""
    tree = ast.parse(source)
    used = []
    module_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _module_of(node)
            if module == "quadrature":
                used += [alias.name for alias in node.names]
            elif module == "":
                module_names.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name == "quadrature"
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "sphrestrict.quadrature":
                    module_names.add(alias.asname or "sphrestrict.quadrature")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in module_names:
            used.append(node.attr)
    return [name for name in used if name.startswith(INTEGRATOR_PREFIXES)]


def test_oracle_imports_no_production_integrator():
    source = (PACKAGE / "verify.py").read_text()
    assert "quadrature" in imported_modules(source)
    assert integrator_uses(source) == []


@pytest.mark.parametrize("module", NUMERIC_MODULES)
def test_numeric_module_does_not_import_verify(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert "verify" not in imported_modules(source)


@pytest.mark.parametrize(
    "source, uses",
    [
        ("from .quadrature import integrate_finite, wynn_epsilon", ["integrate_finite"]),
        ("from sphrestrict.quadrature import _gk15_rule as rule", ["_gk15_rule"]),
        ("from . import quadrature\nquadrature._sum_cells(b, x, None, 1e-9)", ["_sum_cells"]),
        ("from . import quadrature as q\nq._cells(f, x, 1e-9)", ["_cells"]),
        ("from .quadrature import _CellSum, _cell_edges", ["_CellSum", "_cell_edges"]),
        ("import sphrestrict.quadrature\nsphrestrict.quadrature._integrate_block", ["_integrate_block"]),
        ("from .quadrature import QuadResult, wynn_epsilon", []),
    ],
)
def test_scan_finds_integrator_uses(source, uses):
    assert integrator_uses(source) == uses


@pytest.mark.parametrize(
    "source, imports_verify",
    [
        ("from .verify import oracle_integrate", True),
        ("from . import verify", True),
        ("from sphrestrict.verify import run_dominance_suite", True),
        ("import sphrestrict.verify", True),
        ("from .verify_helpers import x\nimport verify", False),
        ("from .special_fns import bessel_j", False),
    ],
)
def test_scan_finds_verify_imports(source, imports_verify):
    assert ("verify" in imported_modules(source)) is imports_verify
