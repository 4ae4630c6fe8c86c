"""Byte-identity of the CLI reports.

Each command's stdout is hashed and compared against a recorded digest, and
each command exits 0.  Any change to a status, a detail string, a note, the
check order or the seeded draw order shows up here as a different digest.
The ``verify`` and ``report`` digests were re-recorded when the shift suite's
duality and basis-change checks became proofs over a basis; the only lines
that moved are those two checks' details, which now read "exhaustive over N
elements" (``test_shift_duality_details_name_the_basis_size`` pins them).
The ``enumerate``, ``pair`` and ``depseq`` digests were recorded before that
change and still hold.  The three desk-strict ``verify`` and ``report``
digests were re-recorded once more when the compact-difference family became
a proof over consecutive witness ranks: their one changed line is that
check's detail, "72 exact differences" before and "18 exact differences"
after (k^2 (R - 2) differences instead of the seeded sweep over every pair
of ranks).  The ``wide.json`` run reads the benchmark's committed
config (n=746), where the window masses and the weighted scans have many more
blocks and ids to get wrong than on the desk fixtures.
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
        "2932ffa0d816e5992266f7fe17a50b0773c1bc73e57b3c69ccb51524a29bb9ef",
    ),
    (
        ["verify", "--config", "desk-relaxed", "--format", "json"],
        "d7657f0d7092d07ce1078e5394a8924642efdb930a480b1bb30d3505aebc0cc5",
    ),
    (
        ["verify", "--config", "desk-relaxed", "--seed", "7", "--format", "json"],
        "205307e2c69fe5db31f0f9cf82bee78883bf90e8836d06a0754aaf3dd09d7448",
    ),
    (
        ["verify", "--config", "desk-strict"],
        "a2c870b0c7691dea1d28dbdb5f1e4776ce269734304a22402efc299931fb4e5f",
    ),
    (
        ["report", "--config", "desk-strict", "--format", "json"],
        "8ae6890b0f4507351b2647c46e74e7867600e2103b184c18bfac3a1f8f81765b",
    ),
    (
        ["report", "--config", "desk-relaxed", "--format", "json"],
        "41df979f9a322742529d20c8202d666715deed1906127ef6213a8392fcd41d40",
    ),
    (
        ["report", "--config", "desk-relaxed"],
        "a9cdf05055cc83ad0399aedb29ee975cda9b4f112521b28a8573cce74fa115a4",
    ),
    (
        ["verify", "--config", "perfbench/configs/wide.json", "--format", "json"],
        "cd69b18eacdf1814202c2cd51fc557ee3c0a0e49b50436a8bb006ad6924c6d02",
    ),
    (
        ["enumerate", "--config", "desk-strict"],
        "9ecaf0445840b866b9fe1705b210fe275511d0df0058a7da47989bed6a02d94d",
    ),
    (
        ["enumerate", "--config", "desk-relaxed", "--format", "json"],
        "8ad6adae0efb68554513a82389613ac60bcee714086eadae0fe9445b0d717dea",
    ),
    (
        ["pair", "--config", "desk-strict"],
        "ff1f0836ff2b21652ee3f26ea270de6faf47510a7df760974d2ace19402527ff",
    ),
    (
        ["depseq", "--config", "desk-relaxed", "--format", "json"],
        "15ce05c8372b36dfa568d516cafd968e49c2b5ab4fab511343ca2426351da99c",
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


@pytest.mark.parametrize("config, n", [("desk-strict", 60), ("desk-relaxed", 208)])
def test_shift_duality_details_name_the_basis_size(config, n, capsys, monkeypatch):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    assert main(["verify", "--config", config, "--suites", "shift"]) == 0
    lines = capsys.readouterr().out.splitlines()
    exhaustive = f"exhaustive over {n} elements"
    assert f"  [PASS] pushforward and pullback are adjoint -- {exhaustive}" in lines
    assert f"  [PASS] pushforward respects the basis change -- {exhaustive}" in lines
