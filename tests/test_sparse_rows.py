"""The sparse coding-row paths against the full sweeps they replace.

``synthesize``, ``extend``, ``d_coords_of`` and ``s_apply`` visit only the
elements a sparse solve can reach; the references in ``oracles`` sweep every
element.  Vectors are compared as (horizon, list of items), so values and key
order must both agree.
"""
from __future__ import annotations

import gc
import json
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bdlab import algebra, cli
from bdlab.algebra import (
    Vector,
    coding_rows,
    d_coords_of,
    d_vector,
    extend,
    row_store,
    synthesize,
)
from bdlab.config import desk_relaxed, desk_strict
from bdlab.elements import BASE
from bdlab.sequences import build_exact_pair, helper_pair_parts
from bdlab.shift import s_apply
from bdlab.universe import Universe, build_universe
from conftest import small_universes
from oracles import (
    dstar_matrix,
    solve_exact,
    sweep_d_coords_of,
    sweep_extend,
    sweep_s_apply,
    sweep_synthesize,
)

FIXTURES = {"desk-strict": desk_strict, "desk-relaxed": desk_relaxed}


def items(x: Vector) -> tuple[int, list]:
    return x.horizon, list(x.coords.items())


def random_data(rng: random.Random, pool: list[int], size: int) -> dict[int, Fraction]:
    """Seeded rational data on a few ids; zero values are kept on purpose."""
    chosen = rng.sample(pool, min(size, len(pool)))
    return {g: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for g in chosen}


def assert_sparse_paths_match(u: Universe, rng: random.Random) -> None:
    ids = list(u.ids())
    top = u.max_rank
    for gid in ids:
        x = d_vector(u, gid)
        assert items(x) == items(sweep_synthesize(u, {gid: Fraction(1)})), gid
        assert list(d_coords_of(u, x).items()) == list(sweep_d_coords_of(u, x).items())
        assert items(s_apply(u, x)) == items(sweep_s_apply(u, x))
    everywhere = {g: Fraction(g % 5 - 2, 1 + g % 3) for g in ids}
    for _ in range(40):
        horizon = rng.randint(1, top + 1)
        data = random_data(rng, ids, rng.randint(1, 6))
        for d in (data, everywhere):
            x = synthesize(u, d, horizon)
            assert items(x) == items(sweep_synthesize(u, d, horizon)), d
            assert list(d_coords_of(u, x).items()) == list(sweep_d_coords_of(u, x).items())
            assert items(s_apply(u, x)) == items(sweep_s_apply(u, x))
        y = Vector(data, horizon)
        assert list(d_coords_of(u, y).items()) == list(sweep_d_coords_of(u, y).items())
        assert items(s_apply(u, y)) == items(sweep_s_apply(u, y))
    for q in range(0, top + 1):
        below = [g for g in ids if u.element(g).rank <= q]
        for data in (random_data(rng, below, 5), random_data(rng, ids, 5), everywhere):
            assert items(extend(u, data, q)) == items(sweep_extend(u, data, q)), q
            horizon = min(q + 1, top)
            assert items(extend(u, data, q, horizon)) == items(
                sweep_extend(u, data, q, horizon)
            )


def assert_users_index_complete(u: Universe) -> None:
    store = row_store(u)
    assert len(store) == len(u)
    expected: list[list[int]] = [[] for _ in u.ids()]
    for gid in u.ids():
        for h in store.num[gid]:
            expected[h].append(gid)
    assert store.users == expected


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_sparse_paths_match_full_sweeps(name):
    u = build_universe(FIXTURES[name]())
    assert_sparse_paths_match(u, random.Random(11))
    assert_users_index_complete(u)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_lazy_sync_extends_old_rows_after_interns_below_the_top(name):
    u = build_universe(FIXTURES[name]())
    rng = random.Random(12)
    assert_sparse_paths_match(u, rng)
    synced = len(row_store(u))
    xs, cuts, bs = helper_pair_parts(u, 2)
    build_exact_pair(u, xs, cuts, bs, 1)
    assert u.interior_interns > 0
    assert len(u) > synced
    assert_sparse_paths_match(u, rng)
    assert_users_index_complete(u)


def test_build_and_enumerate_compute_no_coding_rows(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("coding row computed on the build path")

    monkeypatch.setattr(algebra, "_compute_cstar", refuse)
    u = build_universe(desk_relaxed())
    assert len(row_store(u)) == 0

    built: list[Universe] = []

    def recording_build(config):
        built.append(build_universe(config))
        return built[-1]

    monkeypatch.setattr(cli, "build_universe", recording_build)
    assert cli.main(["enumerate", "--config", "desk-relaxed", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] == "bdlab.enumerate/1"
    assert len(built) == 1 and len(row_store(built[0])) == 0

    monkeypatch.undo()
    coding_rows(u)
    assert len(row_store(u)) == len(u)


def test_sync_expands_each_distinct_b_once(monkeypatch):
    # Elements with equal b share one object, so one full sync computes
    # to_d once per distinct b, however many elements carry it.
    u = build_universe(desk_relaxed())
    expanded = []
    to_d = algebra.CodingRows.to_d

    def counted(self, coords, q):
        expanded.append(dict(coords))
        return to_d(self, coords, q)

    monkeypatch.setattr(algebra.CodingRows, "to_d", counted)
    coding_rows(u)
    carried = {el.b for el in u.elements if el.kind != BASE}
    assert len(expanded) == len(carried) < len(u) - u.config.k
    assert len(row_store(u)) == len(u)


def live_row_stores() -> int:
    return sum(isinstance(obj, algebra.CodingRows) for obj in gc.get_objects())


def test_a_dropped_universe_releases_its_row_store():
    u = build_universe(desk_strict())
    coding_rows(u)
    assert row_store(u) is u.rows and len(u.rows) == len(u)
    dropped = weakref.ref(u)
    gc.collect()
    held = live_row_stores()
    del u
    gc.collect()
    assert dropped() is None and live_row_stores() == held - 1


# -- property: synthesis inverts the coordinate read-off and matches the dense solve --


@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_synthesis_inverts_read_off_and_matches_dense_solve(data):
    u = data.draw(small_universes())
    ids = list(u.ids())
    support = data.draw(st.lists(st.sampled_from(ids), max_size=5, unique=True))
    d = {
        g: data.draw(
            st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
        )
        for g in support
    }
    x = synthesize(u, d)
    assert d_coords_of(u, x) == d
    dense = solve_exact(dstar_matrix(u), [d.get(g, Fraction(0)) for g in ids])
    assert x.coords == {g: c for g, c in enumerate(dense) if c != 0}
