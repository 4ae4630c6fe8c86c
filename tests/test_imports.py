"""Every name a package module imports is used by that module, every
private module-level name is used by the package, and the public ones that
only tests read are a pinned list that may only shrink.

A stdlib ``ast`` check in place of a linter: a name bound by an import must
be read somewhere in the module, or be listed in its ``__all__``.  A name
read only inside a quoted annotation does not count as read.  A module-level
function, class or constant whose name starts with one underscore must be
read by another top-level statement of the package: its own body does not
count, so a helper left behind after a refactor shows, recursive or not.
A public one, or a public method, that no other statement reads, not
counting reads from definitions that are themselves unread, and that
``__init__`` does not export, is reached only from outside the package.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import bdlab

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


def definitions(tree: ast.Module, methods: bool = False) -> list[tuple[str, ast.stmt]]:
    """(name, statement) for each top-level function, class or constant, and
    with ``methods`` each method as ``Class.method``, dunder names aside."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(n, node) for n in names if not n.startswith("__")]
        if methods and isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{m.name}", m)
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not m.name.startswith("__")
            ]
    return found


def reading_units(tree: ast.Module) -> list[tuple[set[ast.AST], set[str]]]:
    """(enclosing definitions, names read by name, attribute or import) for
    each top-level statement; a class is split into its header and each
    statement of its body, so that a method reads for itself."""
    units = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            header = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
            units += [({stmt}, header)] + [({stmt, inner}, [inner]) for inner in stmt.body]
        else:
            units.append(({stmt}, [stmt]))
    out = []
    for owners, nodes in units:
        names = set()
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        out.append((owners, names))
    return out


def unreferenced_names(sources: dict[str, str], private: bool = True) -> list[str]:
    """``module: name`` for each private definition that no other top-level
    statement of the given modules reads, by name, attribute or import.

    With ``private`` False: each public definition or method that no other
    statement reads, counting no read from a definition that is itself
    found, so the scan repeats until nothing more is found."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    units = [unit for tree in trees.values() for unit in reading_units(tree)]
    candidates = [
        (module, name, node)
        for module, tree in trees.items()
        for name, node in definitions(tree, methods=not private)
        if name.startswith("_") == private
    ]
    found: list[tuple[str, str, ast.AST]] = []
    while True:
        dead = {node for _, _, node in found}
        found = [
            (module, name, node)
            for module, name, node in candidates
            if not any(
                name.split(".")[-1] in names
                for owners, names in units
                if node not in owners and not owners & dead
            )
        ]
        if private or {node for _, _, node in found} == dead:
            return [f"{module}: {name}" for module, name, _ in found]


def test_the_scan_sees_unreferenced_private_names():
    sources = {
        "a.py": "def _used(): pass\ndef _loop(): return _loop()\n_KEPT = 1\n_DROPPED = 2\n",
        "b.py": "from a import _KEPT\ndef f(): return _used()\n",
    }
    assert unreferenced_names(sources) == ["a.py: _loop", "a.py: _DROPPED"]
    assert unreferenced_names(sources, private=False) == ["b.py: f"]


def test_the_public_scan_sees_methods_and_reads_from_unread_names():
    sources = {
        "a.py": (
            "def g(): return h()\ndef h(): pass\n"
            "class K:\n    def m(self): return self.n()\n    def n(self): pass\n"
            "    def o(self): pass\n    def p(self): return self.p()\n"
        ),
        "b.py": "def f(): return K().o()\ndef q(): return f()\nprint(f())\n",
    }
    # h and K.n are read only by g and K.m, which nothing reads; f is read
    # by q, which nothing reads, and by the live print; K.p reads only itself
    assert unreferenced_names(sources, private=False) == [
        "a.py: g", "a.py: h", "a.py: K.m", "a.py: K.n", "a.py: K.p", "b.py: q"
    ]


def test_package_uses_every_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_names(sources) == []


# Public definitions and methods that no package statement reads, but for
# definitions in this list, so that no verb reaches them and only tests do
# (ROADMAP item 15).  A removal must shrink
# this list, and a new test-only definition fails against it.
READ_ONLY_FROM_OUTSIDE = [
    "sequences.py: ShiftedPairOutcome",
    "sequences.py: build_shifted_exact_pair",
    "sequences.py: estimate_ris_weighted_averages",
    "sequences.py: estimate_interval_sums",
    "sequences.py: estimate_dependent_average",
    "sequences.py: estimate_alternating_sums",
]


def test_public_names_no_package_statement_reads_are_pinned():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    del sources["__init__.py"]  # its imports re-export names; they are not reads
    found = unreferenced_names(sources, private=False)
    assert [e for e in found if e.split(": ")[1] not in bdlab.__all__] == READ_ONLY_FROM_OUTSIDE
