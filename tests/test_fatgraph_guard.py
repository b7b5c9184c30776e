"""No module of the package gets a ``FatGraph`` past its constructor's ribbon-graph rule.

``fatgraph.py`` itself may build graphs with ``object.__new__`` (``with_labels`` and
``_relabel`` reuse a built graph's sigma).  Elsewhere, no ``__new__`` call may name
``FatGraph``, and only ``flips.flip`` may call ``FatGraph._relabel``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "shearlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "fatgraph.py")


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _bypasses(source):
    """(enclosing top-level function or None, line, what) for each way round the constructor."""
    out = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__":
                if any("FatGraph" in _names(arg) for arg in node.args):
                    out.append((owner, node.lineno, "__new__"))
            if isinstance(node, ast.Attribute) and node.attr == "_relabel":
                out.append((owner, node.lineno, "_relabel"))
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_builds_a_fat_graph_round_its_constructor(path):
    allowed = {("flip", "_relabel")} if path.name == "flips.py" else set()
    found = [(owner, line, what) for owner, line, what in _bypasses(path.read_text()) if (owner, what) not in allowed]
    assert not found, f"{path.name}: {found}"


def test_flip_is_the_one_caller_of_relabel():
    assert [(owner, what) for owner, _, what in _bypasses((SRC / "flips.py").read_text())] == [("flip", "_relabel")]


@pytest.mark.parametrize(
    "source",
    [
        "g = object.__new__(FatGraph)",
        "def f():\n    return object.__new__(fatgraph.FatGraph)",
        "def f(g):\n    return FatGraph.__new__(FatGraph)",
        "def f(g, z):\n    return g._relabel(z)",
    ],
)
def test_the_guard_sees_each_bypass(source):
    assert _bypasses(source)
