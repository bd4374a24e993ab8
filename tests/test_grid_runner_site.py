"""One failure policy for a grid point's two constants, by AST scan.

``restriction.evaluate_grid`` is the only place that catches the library
errors of ``sharp_radial_constant`` and ``gaussian_lower_bound_optimized``
for a grid point; ``sweep``, ``report`` and ``verify`` format what it
returns.  So in ``cli``, ``restriction`` and ``verify`` either function
may be used inside a ``try`` body only in ``evaluate_grid``.  Every other
use is pinned too: the single-point commands ``constant`` and
``gaussian-bound`` call them bare and let ``main`` map the error to an
exit code, and a helper that wraps them in a closure would show up here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sphrestrict"
CONSTANTS = ("sharp_radial_constant", "gaussian_lower_bound_optimized")


def constant_uses(source: str) -> list[tuple[str, bool]]:
    """Each use (call or reference) of a ``CONSTANTS`` name in source
    order, as the outermost enclosing function ("<module>" outside any)
    and whether the use sits inside a ``try`` body.  Handlers, ``else``
    and ``finally`` are not the body."""
    found = []

    def visit(node: ast.AST, owner: str, in_try: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
            owner = node.name
        if (
            isinstance(node, ast.Name) and node.id in CONSTANTS
            or isinstance(node, ast.Attribute) and node.attr in CONSTANTS
        ):
            found.append((owner, in_try))
        for child in ast.iter_child_nodes(node):
            guarded = isinstance(node, ast.Try) and child in node.body
            visit(child, owner, in_try or guarded)

    visit(ast.parse(source), "<module>", False)
    return found


@pytest.mark.parametrize(
    "module, uses",
    [
        ("restriction.py", [("evaluate_grid", True)] * 2),
        ("cli.py", [("_cmd_constant", False), ("_cmd_gaussian_bound", False)]),
        ("verify.py", []),
    ],
)
def test_constants_caught_only_by_the_runner(module, uses):
    assert constant_uses((PACKAGE / module).read_text()) == uses


@pytest.mark.parametrize(
    "source, uses",
    [
        ("def f():\n    try:\n        sharp_radial_constant(p)\n"
         "    except DomainError:\n        pass", [("f", True)]),
        ("def f():\n    try:\n        x = m.gaussian_lower_bound_optimized(p).bound\n"
         "    finally:\n        pass", [("f", True)]),
        ("def f():\n    sharp_radial_constant(p)\n    try:\n        g()\n"
         "    except DomainError:\n        sharp_radial_constant(p)",
         [("f", False), ("f", False)]),
        ("def f():\n    try:\n        return attempt(sharp_radial_constant, p)\n"
         "    except ValueError:\n        pass", [("f", True)]),
        ("def f():\n    def g():\n        return gaussian_lower_bound_optimized(p)\n"
         "    try:\n        g()\n    except DomainError:\n        pass", [("f", False)]),
        ("try:\n    sharp_radial_constant(p)\nexcept DomainError:\n    pass",
         [("<module>", True)]),
        ("def f():\n    try:\n        try:\n            h()\n        except E:\n"
         "            sharp_radial_constant(p)\n    except DomainError:\n        pass",
         [("f", True)]),
        ("class C:\n    def m(self):\n        try:\n            sharp_radial_constant(p)\n"
         "        except E:\n            pass", [("m", True)]),
        ("from .restriction import sharp_radial_constant\n"
         "def f():\n    try:\n        gaussian_lower_bound(p, 1.0)\n"
         "    except DomainError:\n        pass", []),
    ],
)
def test_scan_finds_constant_uses(source, uses):
    assert constant_uses(source) == uses
