"""No source, script or test module imports a name it never uses.

A module-level import counts as used when the module reads the name anywhere
(a bare name or the root of an attribute chain) or lists it in ``__all__``.
An import inside a function must be read inside that function, or inside a
function nested in it.  ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own(scope):
    """The nodes under ``scope`` that are not inside a function nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _unused(tree: ast.Module) -> list:
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    unused = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS))]:
        imported = {}
        for node in _own(scope):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = alias.lineno
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        used |= exported if scope is tree else set()
        unused += ((line, name) for name, line in imported.items() if name not in used)
    return sorted(unused)


@pytest.mark.parametrize("folder", ["src", "scripts", "tests"])
def test_no_module_imports_a_name_it_never_uses(folder):
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in _unused(ast.parse(path.read_text()))
    ]
    assert not unused


def test_the_guard_sees_plain_dotted_aliased_and_exported_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path, numpy as np\n"
        "from math import exp as e, pi, tau\n"
        "__all__ = ['tau']\n"
        "np.zeros(1)\n"
    )
    assert _unused(tree) == [(2, "os"), (3, "e"), (3, "pi")]


def test_the_guard_holds_a_function_level_import_to_its_own_function():
    tree = ast.parse(
        "def f():\n"
        "    import numpy as np\n"
        "    return 1\n"
        "def g():\n"
        "    import numpy as np\n"
        "    def h():\n"
        "        return np.ones(1)\n"
        "    return h\n"
    )
    assert _unused(tree) == [(2, "np")]
