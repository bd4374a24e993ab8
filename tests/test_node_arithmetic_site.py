"""One node arithmetic, by AST scan.

Node arrays are valued with numpy's elementwise ``np.power``, ``np.exp``
and ``np.log``, which give a point the same double whatever array holds
it.  So no module under ``src/`` maps a scalar ``math.pow``, ``math.exp``,
``math.log`` or ``operator.pow`` over nodes, neither with ``map``,
``np.vectorize`` or ``np.frompyfunc`` nor in a comprehension or ``for``
loop over a ``.tolist()``, and no module builds an array with
``np.fromiter(map(...))``, apart from ``quadrature._mapped``: the adapter
that maps a caller's scalar integrand or profile over the nodes.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sphrestrict"
SCALAR = {("math", "pow"), ("math", "exp"), ("math", "log"), ("operator", "pow")}
MAPPERS = {"map", "vectorize", "frompyfunc"}


def per_node_sites(source: str) -> list[tuple[str, str]]:
    """Each site that values nodes one at a time, as (outermost enclosing
    function or "<module>", kind), in source order.  Kinds: "map" (a
    scalar function given to ``map``, ``vectorize`` or ``frompyfunc``),
    "loop" (a comprehension or ``for`` loop over a ``.tolist()`` that calls
    one) and "fromiter" (``fromiter`` of a ``map``)."""
    tree = ast.parse(source)
    modules = {}  # local name -> "math" or "operator"
    functions = set()  # local names of the SCALAR functions
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            functions.update(
                alias.asname or alias.name for alias in node.names
                if (node.module, alias.name) in SCALAR
            )

    def is_scalar(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in functions
        return (
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and (modules.get(node.value.id), node.attr) in SCALAR
        )

    def callee(node: ast.Call) -> str:
        return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")

    def calls_scalar(nodes) -> bool:
        return any(
            isinstance(sub, ast.Call) and is_scalar(sub.func)
            for node in nodes for sub in ast.walk(node)
        )

    def over_tolist(node: ast.AST) -> bool:
        return any(isinstance(sub, ast.Call) and callee(sub) == "tolist" for sub in ast.walk(node))

    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
            owner = node.name
        if isinstance(node, ast.Call):
            if callee(node) in MAPPERS and node.args and is_scalar(node.args[0]):
                found.append((owner, "map"))
            if (
                callee(node) == "fromiter" and node.args
                and isinstance(node.args[0], ast.Call) and callee(node.args[0]) == "map"
            ):
                found.append((owner, "fromiter"))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            element = [child for child in ast.iter_child_nodes(node)
                       if not isinstance(child, ast.comprehension)]
            if any(over_tolist(gen.iter) for gen in node.generators) and calls_scalar(element):
                found.append((owner, "loop"))
        if isinstance(node, ast.For) and over_tolist(node.iter) and calls_scalar(node.body):
            found.append((owner, "loop"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_nodes_are_valued_as_arrays(module):
    allowed = [("_mapped", "fromiter")] if module == "quadrature.py" else []
    assert per_node_sites((PACKAGE / module).read_text()) == allowed


@pytest.mark.parametrize(
    "source, sites",
    [
        # The per-node forms the library used to hold.
        ("import math\nfrom itertools import repeat\nimport numpy as np\n"
         "def _pow_each(b, e):\n"
         "    return np.fromiter(map(math.pow, b.tolist(), repeat(e)), float, count=b.size)",
         [("_pow_each", "fromiter"), ("_pow_each", "map")]),
        ("import operator\ndef f(r, beta):\n    return map(operator.pow, r.tolist(), beta)",
         [("f", "map")]),
        ("import math\ndef f(r, j):\n    return [math.exp(math.log(x) + math.log(abs(y)))\n"
         "            for x, y in zip(r.tolist(), j.tolist())]",
         [("f", "loop")]),
        ("import math\nclass C:\n    def m(self, x):\n        out = []\n"
         "        for v in x.tolist():\n            out.append(math.exp(v))\n        return out",
         [("m", "loop")]),
        ("import numpy as np\ndef f(g, r):\n    return np.fromiter(map(g, r.tolist()), float)",
         [("f", "fromiter")]),
        # Aliases count.
        ("import math as m\nimport numpy as np\nexp_each = np.vectorize(m.exp)", [("<module>", "map")]),
        ("from math import exp as e\nimport numpy as np\ndef f(x):\n    return np.frompyfunc(e, 1, 1)(x)",
         [("f", "map")]),
        # Scalar libm on scalars, numpy ufuncs and sums over parameters are fine.
        ("import math\ndef f(a, b):\n    return math.exp(a) * math.pow(b, 0.5) + math.log(a)", []),
        ("import numpy as np\ndef f(r, beta):\n    return np.exp(beta * np.log(r)) + np.power(r, beta)", []),
        ("import math\ndef f(rr, pairs):\n    return math.fsum(w * math.exp(-rr * c) for w, c in pairs)", []),
        ("import math\ndef f(r):\n    return [math.sqrt(x) for x in r.tolist()]", []),
    ],
)
def test_scan_finds_per_node_sites(source, sites):
    assert per_node_sites(source) == sites
