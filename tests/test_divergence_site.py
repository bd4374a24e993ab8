"""One divergence rule for every profile integral, by AST scan.

``radial_fourier`` decides whether a profile integral diverges in one
place: ``_radial_integral`` applies the tail-exponent rule for the radial
transform, the full-space integral and the L_p norm alike, and makes the
``DivergenceError`` the outcome of each profile that fails it.  No other
function of the module may make one, whether as a call
(``DivergenceError(...)``, raised or not) or by raising the bare class.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sphrestrict"


def divergence_raises(source: str) -> list[str]:
    """The outermost function enclosing each ``DivergenceError(...)`` call
    and each ``raise`` of the bare class, one entry per site in source
    order ("<module>" outside any function)."""
    found = []

    def is_divergence(node: ast.AST) -> bool:
        return ast.unparse(node).split(".")[-1] == "DivergenceError"

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if owner == "<module>" else owner)
                continue
            if isinstance(child, ast.Call) and is_divergence(child.func):
                found.append(owner)
            elif (
                isinstance(child, ast.Raise) and child.exc is not None
                and not isinstance(child.exc, ast.Call) and is_divergence(child.exc)
            ):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_divergence_raised_only_by_the_shared_integral():
    source = (PACKAGE / "radial_fourier.py").read_text()
    assert divergence_raises(source) == ["_radial_integral"]


@pytest.mark.parametrize(
    "source, raises",
    [
        ("def f():\n    raise DivergenceError('x')", ["f"]),
        ("def f():\n    def g():\n        raise DivergenceError\n    return g", ["f"]),
        ("def f():\n    if x:\n        raise errors.DivergenceError(m)", ["f"]),
        ("class C:\n    def m(self):\n        raise DivergenceError('x')", ["m"]),
        ("raise DivergenceError('x')", ["<module>"]),
        ("def f():\n    raise DomainError('x')\ndef g():\n    raise", []),
        ("def f():\n    raise DivergenceError('a')\ndef g():\n"
         "    raise DivergenceError('b')", ["f", "g"]),
        ("def f():\n    out[i] = DivergenceError('x')", ["f"]),
        ("def f():\n    return [errors.DivergenceError(m)] * n", ["f"]),
        ("def f():\n    except_types = (DivergenceError, DomainError)", []),
    ],
)
def test_scan_finds_divergence_raises(source, raises):
    assert divergence_raises(source) == raises
