"""Byte-identity of the CLI reports.

Each command's stdout is hashed and compared against a recorded digest, and
each command exits 0.  Any change to a status, a detail string, a note or the
check order shows up here as a different digest.
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
of ranks).  All eight ``verify`` and ``report`` digests were re-recorded
when the extensions check became a proof over a basis and no check drew from
a generator any more.  Each output moved in three places only: the JSON
``seed`` key is gone, "extensions stay spanned below their cut" gained the
detail "exhaustive over N elements", and "odd-weight carried weights
decrease" gained "C of M odd-weight elements carry a weight" (0 of 12, 45
and 200 on desk-strict, desk-relaxed and wide.json).  With no seed key,
``--seed 7`` prints the same bytes as the default run.  The ``wide.json``
run reads the benchmark's committed config (n=746), where the window masses
and the weighted scans have many more blocks and ids to get wrong than on
the desk fixtures.  The weak ``depseq`` run (the only path through the
chain's epsilon, 1/n) and the four-vector ``pair`` at j = 2 were added later,
recorded on the code before the construction API lost its unused parameters.
The text ``depseq`` and ``report`` runs, the desk-strict ``pair`` JSON (which
carries ``certifies_at_minimal``) and the three-weight ``report`` were
recorded before each certificate rule was left with one owner, which touched
every one of them.  The ``enumerate --format json`` runs on desk-strict,
``wide.json`` and ``deep.json`` (n = 8,576, the largest output) were recorded
before the element records were written from one text template per shape.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from bdlab.cli import build_parser, main, resolve_config
from bdlab.sequences import (
    FAIL,
    build_exact_pair,
    check_exact_pair,
    helper_pair_parts,
)
from bdlab.serialize import stable_json
from bdlab.universe import build_universe
from conftest import micro_config

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = [
    (
        ["verify", "--config", "desk-strict", "--format", "json"],
        "ad2301a7694c1546de82eaf928f014b770b86eed834d2bca82c58bb9c40316d6",
    ),
    (
        ["verify", "--config", "desk-relaxed", "--format", "json"],
        "4c88404c208ddafa302152a0364ada9663c1a63b216217a2f7bd41a04dfc1fb0",
    ),
    (
        ["verify", "--config", "desk-relaxed", "--seed", "7", "--format", "json"],
        "4c88404c208ddafa302152a0364ada9663c1a63b216217a2f7bd41a04dfc1fb0",
    ),
    (
        ["verify", "--config", "desk-strict"],
        "a8deaf6dc5f93c25e519e865444af3c50ad0c9f38107df52ef5c4a76ccf88404",
    ),
    (
        ["report", "--config", "desk-strict", "--format", "json"],
        "b1cb91dba4f87307770e96cedcf7fa3318b7581953dbccc175309554c3f04c6b",
    ),
    (
        ["report", "--config", "desk-relaxed", "--format", "json"],
        "f76b64158607b0b519bb9482d70e271b584af4e5fe61f8c52a6f06cd20402458",
    ),
    (
        ["report", "--config", "desk-relaxed"],
        "99d0c06c3ba9a25ef4f6ec23e35cd1eeb86fcf2b35b9c5b8de8845734b65af32",
    ),
    (
        ["verify", "--config", "perfbench/configs/wide.json", "--format", "json"],
        "4078c483eee7c11f458fc41d524afff27e1df872ad28abef691f0ff7a089a9df",
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
    (
        ["depseq", "--config", "desk-relaxed", "--weak", "--format", "json"],
        "c17ae4bfe7c45f8a964edbf0e591e70682ddbc91738ee90ddb2d56c6b708a65e",
    ),
    (
        ["pair", "--config", "desk-relaxed", "--count", "4", "--j", "2", "--format", "json"],
        "a44e1a8e522594efcfa55eaded1584ac653b72273304c28da18344b07fe16934",
    ),
    (
        ["depseq", "--config", "desk-relaxed"],
        "2afa73a8a78c875d9da9678caeb0ddbd602cb75dc1544d0ea660012e1709c4ba",
    ),
    (
        ["report", "--config", "desk-strict"],
        "c788c6275c6b35e068f7e94ef850676b82c14a81cf71147a2b20b4d17ae557a5",
    ),
    (
        ["pair", "--config", "desk-strict", "--format", "json"],
        "3a2eef265aa8269b4e2a8a15cd02df1fd26aa7127d8d57555882eab04723459c",
    ),
    (
        ["enumerate", "--config", "desk-strict", "--format", "json"],
        "de1b54a5010680ca0ab179d4de52c17f9db1d614585c5255008a9a37f302c528",
    ),
    (
        ["enumerate", "--config", "perfbench/configs/wide.json", "--format", "json"],
        "164c9392577ba9a586274deae1ac159d2680eddfad56b9e116329989dfd65406",
    ),
    (
        ["enumerate", "--config", "perfbench/configs/deep.json", "--format", "json"],
        "b93c533036713293c33ea3a813ee8d830367203042f93d3ff7547194b35ef6f4",
    ),
]


@pytest.mark.parametrize(
    "args, digest", GOLDEN, ids=[" ".join(args) for args, _ in GOLDEN]
)
def test_stdout_is_byte_identical(args, digest, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # config paths are relative to the checkout
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("config, n", [("desk-strict", 60), ("desk-relaxed", 208)])
def test_shift_duality_details_name_the_basis_size(config, n, capsys):
    assert main(["verify", "--config", config, "--suites", "shift"]) == 0
    lines = capsys.readouterr().out.splitlines()
    exhaustive = f"exhaustive over {n} elements"
    assert f"  [PASS] pushforward and pullback are adjoint -- {exhaustive}" in lines
    assert f"  [PASS] pushforward respects the basis change -- {exhaustive}" in lines


def test_three_weight_report_is_byte_identical(tmp_path, capsys):
    """Three weights leave no index of the form 4j, so the chain is refused
    with "weight cap" and the sequence suite fails: exit status 1."""
    cfg = micro_config(horizon=4, m_seq=(4, 16, 64), n_seq=(16, 18, 20), level_cap=6)
    path = tmp_path / "three-weights.json"
    path.write_text(stable_json(cfg.to_json_dict()))
    assert main(["report", "--config", str(path), "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert '"unsatisfiable":"weight cap"' in out
    digest = "f05ff801362ff6a257bc8ec57df9e8ae6ad382ed3d43a475bb34b39e7dcb6e89"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


PAIRS = [args for args, _ in GOLDEN if args[0] == "pair"]


@pytest.mark.parametrize("argv", PAIRS, ids=[" ".join(args) for args in PAIRS])
def test_pair_certifies_at_minimal_exactly_when_its_identities_hold(argv):
    """``certifies_at_minimal`` is read off the built report's identities;
    a full check at the minimal constant agrees, whatever the magnitude
    clauses read at the nominal constant."""
    args = build_parser().parse_args(argv)
    universe = build_universe(resolve_config(args.config))
    built = build_exact_pair(universe, *helper_pair_parts(universe, args.count), args.j)
    minimal = built.report.minimal_constant
    at_minimal = check_exact_pair(universe, built.z, built.eta, minimal, built.j)
    assert at_minimal.certifies == built.report.identity_ok
    nominal_fails = [c.name for c in built.report.clauses if c.status == FAIL]
    assert len(nominal_fails) == (2 if args.count == 4 else 0)
