"""Every name a package module imports is used by that module.

A stdlib ``ast`` check in place of a linter: a name bound by an import must
be read somewhere in the module, or be listed in its ``__all__``.  A name
read only inside a quoted annotation does not count as read.
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
