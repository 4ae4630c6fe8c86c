"""Statuses have one owner and one grading rule.

``sequences`` assigns the four status names and ``sequences.grade`` decides
which one an outcome gets.  A stdlib ``ast`` check keeps it that way: no
other string constant in the package spells a status, a clause is built
only by ``sequences._clause`` and a suite check only by
``verify._run_table``, both of which ask ``grade``, and no call sets a
status by keyword.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

from bdlab.sequences import FAIL, INFO, INFO_KIND, MAGNITUDE, PASS, WARN, grade

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bdlab"
STATUSES = {"PASS", "FAIL", "WARN", "INFO"}


def trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}


def status_literals(module: str, tree: ast.Module) -> list[str]:
    """``module:line`` for each string constant equal to a status name,
    except, in ``sequences.py``, the value of ``NAME = "NAME"``."""
    owned = set()
    if module == "sequences.py":
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and [getattr(t, "id", None) for t in node.targets] == [node.value.value]
            ):
                owned.add(node.value)
    return [
        f"{module}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in STATUSES and node not in owned
    ]


def callers(tree: ast.Module, name: str) -> list[str]:
    """The innermost enclosing function of each call to ``name``, by name or
    attribute; a call outside any function is at ``<module>``."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                called = getattr(child.func, "id", getattr(child.func, "attr", None))
                if called == name:
                    found.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(tree, "<module>")
    return found


def test_the_scans_see_literals_and_callers():
    source = (
        'PASS = "PASS"\nx = {"FAIL": 1}\ndef f():\n    def g(): return R(1)\n    return m.R(2)\n'
        "R(3)\n"
    )
    tree = ast.parse(source)
    assert status_literals("sequences.py", tree) == ["sequences.py:2"]
    assert status_literals("cli.py", tree) == ["cli.py:1", "cli.py:2"]
    assert sorted(callers(tree, "R")) == ["<module>", "f", "g"]


def test_only_sequences_spells_a_status():
    found = [hit for module, tree in trees().items() for hit in status_literals(module, tree)]
    assert found == []


@pytest.mark.parametrize(
    "record, maker", [("ClauseResult", "sequences.py: _clause"), ("CheckResult", "verify.py: _run_table")]
)
def test_each_result_record_has_one_maker(record, maker):
    found = [f"{module}: {where}" for module, tree in trees().items() for where in callers(tree, record)]
    assert found == [maker]


def test_no_call_sets_a_status_by_keyword():
    found = [
        f"{module}:{node.lineno}"
        for module, tree in trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(k.arg == "status" for k in node.keywords)
    ]
    assert found == []


def test_grade_is_the_rule():
    assert [grade(INFO_KIND, ok) for ok in (True, False)] == [INFO, INFO]
    assert [grade(MAGNITUDE, True, excused) for excused in (False, True)] == [PASS, PASS]
    assert [grade(MAGNITUDE, False, excused) for excused in (False, True)] == [FAIL, WARN]
