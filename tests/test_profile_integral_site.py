"""One profile-integration path, by AST scan.

Every profile integral reaches the quadrature through
``radial_fourier._radial_integral``, which runs a list of profiles as
blocks: ``integrate_finite_block`` for compact supports,
``integrate_semi_infinite_block`` for decaying profiles and
``sum_over_partition`` for algebraic decay over a partition, each named
once.  The one-integrand rules ``integrate_finite`` and
``integrate_semi_infinite_decaying`` are not used by any module that
integrates profiles, so no second, per-profile path can come back beside
the block path.  Kernel integrals (``integrate_oscillatory_bessel``) are
not profile integrals and are not pinned here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sphrestrict"
RULES = (
    "integrate_finite",
    "integrate_finite_block",
    "integrate_semi_infinite_decaying",
    "integrate_semi_infinite_block",
    "sum_over_partition",
)


def rule_uses(source: str) -> list[tuple[str, str]]:
    """Each use (call or reference) of a ``RULES`` name in source order, as
    (outermost enclosing function, name); "<module>" outside any function.
    Imports are not uses."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
            owner = node.name
        if isinstance(node, ast.Name) and node.id in RULES:
            found.append((owner, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in RULES:
            found.append((owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize(
    "module, uses",
    [
        ("radial_fourier.py", [
            ("_radial_integral", "sum_over_partition"),
            ("_radial_integral", "integrate_finite_block"),
            ("_radial_integral", "integrate_semi_infinite_block"),
        ]),
        ("restriction.py", []),
        ("gls.py", []),
        ("verify.py", []),
        ("cli.py", []),
        ("__init__.py", []),
    ],
)
def test_profile_integrals_have_one_path(module, uses):
    assert rule_uses((PACKAGE / module).read_text()) == uses


@pytest.mark.parametrize(
    "source, uses",
    [
        ("def f():\n    return integrate_finite(g, 0.0, 1.0)", [("f", "integrate_finite")]),
        ("def f():\n    def g():\n        integrate_semi_infinite_block(h, 1)\n    return g",
         [("f", "integrate_semi_infinite_block")]),
        ("def f():\n    q.sum_over_partition(h, b, tail_exponent=2.0)",
         [("f", "sum_over_partition")]),
        ("def f():\n    rule = integrate_finite_block\n    return rule(g, e)",
         [("f", "integrate_finite_block")]),
        ("integrate_semi_infinite_decaying(g)", [("<module>", "integrate_semi_infinite_decaying")]),
        ("class C:\n    def m(self):\n        return integrate_finite(g, 0.0, 1.0)",
         [("m", "integrate_finite")]),
        ("from .quadrature import integrate_finite, sum_over_partition", []),
        ("def f():\n    integrate_oscillatory_bessel(spec)\n    _integrate_block(g, e, t, a, m)",
         []),
        ("def f():\n    integrate_finite_block(g, e)\ndef h():\n    integrate_finite_block(g, e)",
         [("f", "integrate_finite_block"), ("h", "integrate_finite_block")]),
    ],
)
def test_scan_finds_rule_uses(source, uses):
    assert rule_uses(source) == uses
