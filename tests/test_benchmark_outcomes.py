"""Every outcome recorded in ``perfbench/digests.json``, reproduced in-process.

The benchmark checks each operation's outcome digest (``run.outcome_digest``:
the exit code, the element count and fingerprint of the first universe the
verb built, and the JSON payload without its free text) against
``perfbench/digests.json``.  Here each operation of every workload's first
round runs through ``shim.main`` in ``plain`` mode, in this process and from
the root of the checkout as the benchmark's children do, and its digest is
compared with the recorded one.  So a change that moves a benchmark outcome
(the fifteen ``construct-wide`` requests, the deep ``enumerate``, the wide
``verify``) fails here, not only in a benchmark run.
"""
from __future__ import annotations

import importlib
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
RECORDED = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
OPERATIONS = sorted(
    (workload, key) for workload, table in RECORDED.items() if isinstance(table, dict) for key in table
)


@pytest.fixture
def bench(monkeypatch):
    """The runner and the shim, imported as the benchmark imports them
    (``perfbench`` on the path), in the environment its children get."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(ROOT)
    for name in os.environ:
        if name.startswith("BDLAB_"):
            monkeypatch.delenv(name)
    return importlib.import_module("run"), importlib.import_module("shim")


def test_each_first_round_operation_has_a_recorded_outcome(bench):
    run, _ = bench
    rounds = {workload: next(make(0)) for workload, make in run.WORKLOADS.items()}
    assert sorted((w, key) for w, ops in rounds.items() for key, _ in ops) == OPERATIONS


@pytest.mark.parametrize("workload, key", OPERATIONS)
def test_benchmark_outcome_matches_its_recorded_digest(workload, key, bench, tmp_path, capsys):
    run, shim = bench
    [args] = [args for op, args in next(run.WORKLOADS[workload](0)) if op == key]
    record_path = tmp_path / "record.json"
    capsys.readouterr()
    exit_code = shim.main([str(record_path), "plain", *args, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    record = json.loads(record_path.read_text(encoding="utf-8"))
    assert record["exit_code"] == exit_code
    digest = run.outcome_digest(exit_code, record["element_count"], record["fingerprint"], payload)
    assert digest == RECORDED[workload][key]
