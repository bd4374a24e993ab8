"""One Bessel implementation, by AST scan.

``special_fns.bessel_j_array`` is the only evaluator of J_nu: it holds one
body per regime (series, half-integer closed forms, Miller's recurrence,
Hankel's expansion), and ``bessel_j`` is a one-point call of it.  So no
module under ``src/`` other than ``special_fns`` uses the scalar
``bessel_j`` (a call or a reference; re-exporting it is neither), and
``special_fns`` defines no J regime, a function named ``_bessel_*`` or
``_*_array``, that ``bessel_j_array`` does not use.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sphrestrict"
REGIMES = {"_series_array", "_half_integer_array", "_miller_array", "_hankel_array"}


def scalar_uses(source: str) -> list[str]:
    """Each use of the name ``bessel_j`` (a call, a reference or an
    attribute of a module), as the outermost enclosing function
    ("<module>" outside any), in source order."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
            owner = node.name
        if (
            isinstance(node, ast.Name) and node.id == "bessel_j"
            or isinstance(node, ast.Attribute) and node.attr == "bessel_j"
        ):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def is_regime(name: str) -> bool:
    return name.startswith("_bessel_") or name.startswith("_") and name.endswith("_array")


def regimes(source: str) -> tuple[set[str], set[str]]:
    """The J regimes the module defines at top level, and those the body of
    its ``bessel_j_array`` names."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    defined = {name for name in functions if is_regime(name)}
    used = {
        node.id for node in ast.walk(functions["bessel_j_array"])
        if isinstance(node, ast.Name) and is_regime(node.id)
    }
    return defined, used


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "special_fns.py")
)
def test_no_scalar_bessel_outside_special_fns(module):
    assert scalar_uses((PACKAGE / module).read_text()) == []


def test_every_regime_is_the_array_path():
    source = (PACKAGE / "special_fns.py").read_text()
    assert regimes(source) == (REGIMES, REGIMES)
    # bessel_j is a call of bessel_j_array, and bessel_j_derivative of
    # bessel_j.
    (scalar,) = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "bessel_j"
    ]
    assert "bessel_j_array" in {node.id for node in ast.walk(scalar) if isinstance(node, ast.Name)}
    assert scalar_uses(source) == ["bessel_j_derivative"] * 2


@pytest.mark.parametrize(
    "source, uses",
    [
        ("from .special_fns import bessel_j\ndef f(x):\n    return bessel_j(0.0, x)", ["f"]),
        ("from . import special_fns as sf\ndef f(x):\n    return sf.bessel_j(0.0, x)", ["f"]),
        ("def f(xs):\n    return list(map(bessel_j, xs))", ["f"]),
        ("class C:\n    def m(self, x):\n        return bessel_j(1.0, x)", ["m"]),
        ("j = bessel_j(0.0, 1.0)", ["<module>"]),
        ("from .special_fns import bessel_j\n__all__ = ['bessel_j']", []),
        ("def f(x):\n    return bessel_j_array(0.0, x) + bessel_j_zero(0.0, 1)", []),
    ],
)
def test_scan_finds_scalar_uses(source, uses):
    assert scalar_uses(source) == uses


@pytest.mark.parametrize(
    "source, defined, used",
    [
        (
            "def _series_array(nu, x): pass\ndef _bessel_series(nu, x): pass\n"
            "def bessel_j_array(nu, x):\n    return _series_array(nu, x)",
            {"_series_array", "_bessel_series"}, {"_series_array"},
        ),
        (
            "def _miller_array(nu, x): pass\ndef _hankel_array(nu, x): pass\n"
            "def _pow_each(x, e): pass\n"
            "def bessel_j_array(nu, x):\n    for regime in (_miller_array, _hankel_array):\n"
            "        regime(nu, _pow_each(x, 2.0))",
            {"_miller_array", "_hankel_array"}, {"_miller_array", "_hankel_array"},
        ),
        (
            "def bessel_j_array(nu, x):\n    def _nested_array(y): pass\n    return x",
            set(), set(),
        ),
    ],
)
def test_scan_finds_regimes(source, defined, used):
    assert regimes(source) == (defined, used)
