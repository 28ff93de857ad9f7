"""Every module of the package uses each name it imports.

A static check on the source: the names a module binds by ``import`` and
``from ... import`` must each be read somewhere in that module, as a name,
as the root of an attribute chain, in a string annotation, or (for a
package ``__init__``) as an entry of ``__all__``.  ``from __future__``
imports are exempt.
"""

import ast
import pathlib

import pytest

import proxint

MODULES = sorted(pathlib.Path(proxint.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, at any depth."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, string annotations and ``__all__`` entries included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(((name, line) for name, line in _imported(tree).items() if name not in used),
                  key=lambda item: item[1])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [("os", 1)]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\nimport math\nnp.pi\n", [("math", 2)]),
    ("from .x import a, b\nb()\n", [("a", 1)]),
    ("from .x import a\n__all__ = ['a']\n", []),
    ("from __future__ import annotations\n", []),
    ("from .x import T\ndef f() -> 'T':\n    pass\n", []),
    ("def f():\n    from scipy import erf\n    return 1\n", [("erf", 2)]),
])
def test_checker_finds_unused_names(source, unused):
    assert unused_imports(source) == unused
