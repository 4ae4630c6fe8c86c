"""Byte-identity of the CLI reports.

Each command's stdout is hashed and compared against the digest recorded
before the verification suites were rewritten as check tables, and each
command exits 0.  Any change to a status, a detail string, a note, the check
order or the seeded draw order shows up here as a different digest.  The
``wide.json`` run reads the benchmark's committed config (n=746), where the
window masses and the weighted scans have many more blocks and ids to get
wrong than on the desk fixtures.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from bdlab.cli import main

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = [
    (
        ["verify", "--config", "desk-strict", "--format", "json"],
        "ac7218a6e420e68d185c5d5e2142fe980528a14c5e42551a2d9a157dc9bf6568",
    ),
    (
        ["verify", "--config", "desk-relaxed", "--format", "json"],
        "f06faa2c1631940e7c4ab4558482809c2e371ae295ddec0835fbe3b7a5443808",
    ),
    (
        ["verify", "--config", "desk-relaxed", "--seed", "7", "--format", "json"],
        "b259853937d54ceeef270a7d1e41688fb088d4d3466fc452da24fbb0ceff3bb6",
    ),
    (
        ["verify", "--config", "desk-strict"],
        "79a841737d558c70f89325269de128ceb1634ccbc110b0a2589eb1ad0899bf88",
    ),
    (
        ["report", "--config", "desk-strict", "--format", "json"],
        "5862181606b63ec9254c536d3c3c968101bc5328bda7b4b437f85c8b1fb03939",
    ),
    (
        ["report", "--config", "desk-relaxed", "--format", "json"],
        "1a7a723b6dfc07b2cc7100808b8abe9e1f4bce3dd7b0abd293dfad2552948b00",
    ),
    (
        ["report", "--config", "desk-relaxed"],
        "3179de2f6d1ad022206ea9495cfef31935ba77b78209003391f3ed4f6d242204",
    ),
    (
        ["verify", "--config", "perfbench/configs/wide.json", "--format", "json"],
        "adb8e7b899066219c66b8831fa774691f3a149c4884b6ef9dd919c0d2c521ec4",
    ),
]


@pytest.mark.parametrize(
    "args, digest", GOLDEN, ids=[" ".join(args) for args, _ in GOLDEN]
)
def test_stdout_is_byte_identical(args, digest, capsys, monkeypatch):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    monkeypatch.chdir(ROOT)  # config paths are relative to the checkout
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
