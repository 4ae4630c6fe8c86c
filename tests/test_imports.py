"""Every name a package module imports is used by that module, and every
private module-level name is used by the package.

A stdlib ``ast`` check in place of a linter: a name bound by an import must
be read somewhere in the module, or be listed in its ``__all__``.  A name
read only inside a quoted annotation does not count as read.  A module-level
function, class or constant whose name starts with one underscore must be
read by another top-level statement of the package: its own body does not
count, so a helper left behind after a refactor shows, recursive or not.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bdlab"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_the_scan_sees_unused_and_exported_names():
    source = "import os\nfrom typing import Any, Optional\nfrom x import y\n__all__ = ['y']\nz: Optional[int]\n"
    assert unused_imports(source) == ["line 1: os", "line 2: Any"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_modules_use_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) for each top-level private function, class or constant."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(n, node) for n in names if n.startswith("_") and not n.startswith("__")]
    return found


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each private definition that no other top-level
    statement of the given modules reads, by name, attribute or import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: list[tuple[ast.stmt, set[str]]] = []
    for tree in trees.values():
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            reads.append((stmt, names))
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, defined in private_definitions(tree)
        if not any(name in names for stmt, names in reads if stmt is not defined)
    ]


def test_the_scan_sees_unreferenced_private_names():
    sources = {
        "a.py": "def _used(): pass\ndef _loop(): return _loop()\n_KEPT = 1\n_DROPPED = 2\n",
        "b.py": "from a import _KEPT\ndef f(): return _used()\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _loop", "a.py: _DROPPED"]


def test_package_uses_every_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []
