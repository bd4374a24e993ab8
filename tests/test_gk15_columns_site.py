"""One GK15 rule per round, by AST scan.

``quadrature._gk15_batch`` values a round's panels with QUADPACK's rule as
elementwise numpy ops over the columns of the round's (15, n) value array.
So no module under ``src/`` defines or names a scalar per-panel rule
``_gk15_rule``, and ``_gk15_batch`` holds no ``map``, comprehension,
``for`` or ``while`` loop: nothing in it walks a round's panels one at a
time.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sphrestrict"
LOOPS = {
    ast.ListComp: "comprehension",
    ast.SetComp: "comprehension",
    ast.DictComp: "comprehension",
    ast.GeneratorExp: "comprehension",
    ast.For: "for",
    ast.AsyncFor: "for",
    ast.While: "while",
}


def per_panel_sites(source: str) -> list[tuple[str, str]]:
    """Each site that runs the rule panel by panel, as (outermost enclosing
    function or "<module>", kind), in source order.  Kinds: "rule" (a
    definition of ``_gk15_rule`` or a reference to the name), and inside
    ``_gk15_batch`` "map" (a call of ``map``), "comprehension", "for" and
    "while"."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "_gk15_rule":
                found.append((owner if owner != "<module>" else node.name, "rule"))
            if owner == "<module>":
                owner = node.name
        elif isinstance(node, ast.Name) and node.id == "_gk15_rule":
            found.append((owner, "rule"))
        elif isinstance(node, ast.Attribute) and node.attr == "_gk15_rule":
            found.append((owner, "rule"))
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] == "_gk15_rule":
            found.append((owner, "rule"))
        if owner == "_gk15_batch":
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "map":
                found.append((owner, "map"))
            elif type(node) in LOOPS:
                found.append((owner, LOOPS[type(node)]))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_rounds_run_one_rule(module):
    assert per_panel_sites((PACKAGE / module).read_text()) == []


def test_quadrature_has_the_column_rule():
    tree = ast.parse((PACKAGE / "quadrature.py").read_text())
    assert "_gk15_batch" in {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }


# The per-panel forms the rule used to take.
PER_PANEL_BATCH = '''
import numpy as np

def _gk15_rule(fs, h):
    fc, l0, r0 = fs
    return fc * h, 0.0

def _gk15_batch(f, a, b, which):
    c = [0.5 * (lo + hi) for lo, hi in zip(a, b)]
    h = [0.5 * (hi - lo) for lo, hi in zip(a, b)]
    ch = np.array((c, h)).T
    fv = f((ch[:, :1] + ch[:, 1:] * _NODE_OFFSETS).ravel(), np.repeat(which, 15))
    return list(map(_gk15_rule, fv.reshape(len(a), 15).tolist(), h))
'''


@pytest.mark.parametrize(
    "source, sites",
    [
        (PER_PANEL_BATCH, [
            ("_gk15_rule", "rule"),
            ("_gk15_batch", "comprehension"),
            ("_gk15_batch", "comprehension"),
            ("_gk15_batch", "map"),
            ("_gk15_batch", "rule"),
        ]),
        ("def _gk15_batch(f, a, b, which):\n    out = []\n"
         "    for row in f(a).tolist():\n        out.append(sum(row))\n    return out",
         [("_gk15_batch", "for")]),
        ("def _gk15_batch(f, a, b, which):\n    i = 0\n    while i < len(a):\n        i += 1",
         [("_gk15_batch", "while")]),
        ("def _gk15_batch(f, a, b, which):\n    return dict((x, y) for x, y in zip(a, b))",
         [("_gk15_batch", "comprehension")]),
        # A nested helper's loop still runs inside the batch.
        ("def _gk15_batch(f, a, b, which):\n    def rule(fs):\n"
         "        return {x for x in fs}\n    return rule(a)",
         [("_gk15_batch", "comprehension")]),
        # The rule imported or reached as an attribute counts too.
        ("from sphrestrict.quadrature import _gk15_rule as rule", [("<module>", "rule")]),
        ("from sphrestrict import quadrature\ndef f(x):\n    return quadrature._gk15_rule(x, 1.0)",
         [("f", "rule")]),
        # Loops elsewhere, and column ops in the batch, are fine.
        ("def _integrate_block(edges):\n    return [a for a, _ in edges]", []),
        ("import numpy as np\ndef _gk15_batch(f, a, b, which):\n    ab = np.array((a, b))\n"
         "    v = f(ab[0], np.array(which).repeat(15))\n    return v.tolist(), np.abs(v).tolist()", []),
    ],
)
def test_scan_finds_per_panel_sites(source, sites):
    assert per_panel_sites(source) == sites
