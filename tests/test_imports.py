"""Every module of the package uses each name it imports, and every constant.

A static check on the source: the names a module binds by ``import`` and
``from ... import`` must each be read somewhere in that module, as a name,
as the root of an attribute chain, in a string annotation, or (for a
package ``__init__``) as an entry of ``__all__``.  ``from __future__``
imports are exempt.  Each module-level UPPER_CASE name, function and
class must be read somewhere in the package, in any of those ways or as
an attribute; a public one counts through its module's ``__all__``.
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


def _constants(tree: ast.Module) -> dict[str, int]:
    """Module-level UPPER_CASE names the module assigns -> line."""
    names = {}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.isupper():
                    names.setdefault(name.id, node.lineno)
    return names


def _definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions and classes the module defines -> line."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _unread(sources: dict[str, str], defined) -> list[tuple[str, str, int]]:
    """(module, name, line) of each name ``defined(tree)`` gives that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        read |= _used(tree)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted((module, name, line) for module, tree in trees.items()
                  for name, line in defined(tree).items() if name not in read)


def unread_constants(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of each constant that no module reads."""
    return _unread(sources, _constants)


def unread_definitions(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of each module-level function or class that no module reads."""
    return _unread(sources, _definitions)


def test_package_reads_every_constant():
    assert unread_constants({path.name: path.read_text() for path in MODULES}) == []


def test_package_reads_every_definition():
    assert unread_definitions({path.name: path.read_text() for path in MODULES}) == []


@pytest.mark.parametrize("sources, unread", [
    ({"a.py": "X = 1\n"}, [("a.py", "X", 1)]),
    ({"a.py": "X = 1\n", "b.py": "from .a import X\nprint(X)\n"}, []),
    ({"a.py": "X = 1\n", "b.py": "from . import a\na.X\n"}, []),
    ({"a.py": "X = 1\n__all__ = ['X']\n"}, []),
    ({"a.py": "X: int = 1\nY, Z = 1, 2\nprint(Y)\n"}, [("a.py", "X", 1), ("a.py", "Z", 2)]),
    ({"a.py": "Kernel = 1\n_x = 2\ndef f():\n    LOCAL = 3\n"}, []),
])
def test_checker_finds_unread_constants(sources, unread):
    assert unread_constants(sources) == unread


@pytest.mark.parametrize("sources, unread", [
    ({"a.py": "def f():\n    pass\n"}, [("a.py", "f", 1)]),
    ({"a.py": "class C:\n    pass\n"}, [("a.py", "C", 1)]),
    ({"a.py": "def f():\n    pass\n__all__ = ['f']\n"}, []),
    ({"a.py": "def _f():\n    pass\n", "b.py": "from .a import _f\n_f()\n"}, []),
    ({"a.py": "def _f():\n    pass\n", "b.py": "from . import a\na._f()\n"}, []),
    ({"a.py": "def f():\n    def inner():\n        pass\n    return 1\nf()\n"}, []),
    ({"a.py": "class C:\n    def method(self):\n        pass\nC()\n"}, []),
    ({"a.py": "@decorate\ndef f():\n    pass\nasync def g():\n    pass\n"},
     [("a.py", "f", 2), ("a.py", "g", 4)]),
])
def test_checker_finds_unread_definitions(sources, unread):
    assert unread_definitions(sources) == unread


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
