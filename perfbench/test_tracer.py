"""Self-tests of the benchmark's tracer and outcome digests.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_tracer.py

They use the small bundled ``desk-strict`` fixture, so they take seconds.
"""
from __future__ import annotations

import math
import sys

import pytest

import run
from tracer import ROOT, Tracer, package_modules

sys.path.insert(0, str(run.ROOT / "src"))

OPS = [
    ("verify", ["verify", "--config", "desk-strict", "--seed", "5"]),
    ("pair", ["pair", "--config", "desk-strict", "--count", "2", "--j", "1"]),
    ("depseq", ["depseq", "--config", "desk-strict", "--j0", "1", "--length", "1"]),
    ("enumerate", ["enumerate", "--config", "desk-strict"]),
]


@pytest.fixture(scope="module")
def op_pairs():
    return {key: (run.run_op(key, args), run.run_op(key, args, "trace")) for key, args in OPS}


def test_traced_run_gives_the_untraced_outcome(op_pairs):
    for key, (plain, traced) in op_pairs.items():
        assert plain.exit_code == 0, key
        assert plain.digest is not None, key
        assert traced.digest == plain.digest, key


def test_self_times_sum_to_root_inclusive_time(op_pairs):
    for key, (_, traced) in op_pairs.items():
        spans = traced.record["spans"]
        roots = [s for s in spans if s["caller"] == ROOT]
        assert [s["name"] for s in roots] == ["cli.main"], key
        total_self = sum(s["self_s"] for s in spans)
        assert math.isclose(total_self, roots[0]["incl_s"], rel_tol=1e-9), key


def test_layer_metrics_see_each_verb(op_pairs):
    verify = run.layer_metrics(op_pairs["verify"][1])
    assert verify["algebra.c_star.calls"] > 0
    assert verify["verify.run_shift_suite.s"] > 0  # reached through verify.SUITES
    assert 0 < verify["algebra.synthesize.visit_ratio"] <= 1
    pair = run.layer_metrics(op_pairs["pair"][1])
    assert pair["universe.intern.calls_after_build"] > 0
    assert pair["universe.elements_after"] > 60
    enumerate_ = run.layer_metrics(op_pairs["enumerate"][1])
    assert enumerate_["algebra.c_star.calls"] == 0
    assert enumerate_["serialize.output_bytes"] == op_pairs["enumerate"][0].output_bytes


def _bindings() -> dict:
    from bdlab.universe import Universe

    seen = {}
    for module in package_modules():
        for attr, value in vars(module).items():
            seen[(module.__name__, attr)] = value
            if isinstance(value, dict) and not attr.startswith("__"):
                for key, item in value.items():
                    seen[(module.__name__, attr, key)] = item
    for attr, value in vars(Universe).items():
        seen[("Universe", attr)] = value
    return seen


def test_every_rebound_name_is_restored():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        for name in [
            ("bdlab.universe", "build_universe"),
            ("bdlab.cli", "build_universe"),
            ("bdlab", "build_universe"),
            ("bdlab.verify", "SUITES", "shift"),
            ("bdlab.cli", "BUNDLED", "desk-strict"),
            ("Universe", "intern"),
        ]:
            assert name in changed, name
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_digest_ignores_wording_but_not_outcome():
    payload = {"checks": [{"name": "a check", "status": "PASS", "detail": "1000 seeded pairs"}], "constant": "1/16"}
    reworded = {"checks": [{"name": "the check", "status": "PASS", "detail": "exhaustive"}], "constant": "1/16"}
    failed = {"checks": [{"name": "a check", "status": "FAIL", "detail": "1000 seeded pairs"}], "constant": "1/16"}
    other_constant = {"checks": [{"name": "a check", "status": "PASS"}], "constant": "1/8"}
    digest = run.outcome_digest(0, 60, "f", payload)
    assert run.outcome_digest(0, 60, "f", reworded) == digest
    assert run.outcome_digest(0, 60, "f", failed) != digest
    assert run.outcome_digest(0, 60, "f", other_constant) != digest
    assert run.outcome_digest(1, 60, "f", payload) != digest
    assert run.outcome_digest(0, 61, "f", payload) != digest
