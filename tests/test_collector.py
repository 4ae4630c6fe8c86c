"""The CLI runs each verb with the cyclic collector paused, which is sound
only while a universe and everything hung on it are freed by reference
counting.  These tests keep the collector disabled and require a weak
reference to each universe to die on ``del``, so a reference cycle (a store
that holds its universe, say) fails them.  ``tests/test_cli.py`` checks that
``cli.main`` hands the collector back as it found it on every exit."""
from __future__ import annotations

import gc
import io
import weakref
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from bdlab import cli, verify
from bdlab.config import desk_relaxed, load_config_file
from bdlab.sequences import (
    build_dependent_sequence,
    build_exact_pair,
    helper_pair_parts,
)
from bdlab.universe import build_universe

WIDE = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "wide.json"
CONFIGS = {"desk-relaxed": desk_relaxed, "wide": lambda: load_config_file(str(WIDE))}


@pytest.fixture()
def collector_paused():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture()
def built_refs(monkeypatch):
    """Weak references to every universe that ``verify`` or ``cli`` builds."""
    refs = []

    def tracked(config):
        universe = build_universe(config)
        refs.append(weakref.ref(universe))
        return universe

    monkeypatch.setattr(verify, "build_universe", tracked)
    monkeypatch.setattr(cli, "build_universe", tracked)
    return refs


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_built_universe_dies_on_del(name, collector_paused):
    u = build_universe(CONFIGS[name]())
    ref = weakref.ref(u)
    del u
    assert ref() is None


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_verified_universe_dies_on_del(name, collector_paused):
    u = build_universe(CONFIGS[name]())
    built = len(u)
    for suite in verify.SUITE_ORDER:
        verify.SUITES[suite](u)
    assert u.rows is not None and len(u.rows.rank) > built  # synced, then grown
    assert len(u) > built
    ref = weakref.ref(u)
    del u
    assert ref() is None


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_verification_frees_every_universe(name, collector_paused, built_refs):
    verify.run_verification(CONFIGS[name]())
    assert len(built_refs) == 2  # the universe under test and its rebuild twin
    assert all(ref() is None for ref in built_refs)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_constructions_leave_no_cycle(name, collector_paused):
    cfg = CONFIGS[name]()
    pair_universe = build_universe(cfg)
    xs, cuts, bs = helper_pair_parts(pair_universe, 2)
    built = build_exact_pair(pair_universe, xs, cuts, bs, 1)
    chain_universe = build_universe(cfg)
    cert = build_dependent_sequence(chain_universe, j0=1, length=1)
    assert built.identity_ok and cert.identity_ok
    assert pair_universe.interior_interns and len(chain_universe) > len(build_universe(cfg))
    refs = [weakref.ref(pair_universe), weakref.ref(chain_universe)]
    del pair_universe, chain_universe
    assert all(ref() is None for ref in refs)


def test_report_verb_frees_every_universe(collector_paused, built_refs):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["report", "--config", "desk-relaxed"]) == 0
    assert len(built_refs) == 4  # verification, its rebuild twin, pair, chain
    assert all(ref() is None for ref in built_refs)
