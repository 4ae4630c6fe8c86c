"""The integer kernels and the functional suite's integer proofs against
their Fraction forms, beyond dyadic denominators.

The bundled configs and ``small_universes`` draw m = 4^i and net
denominators up to 2, so every denominator they build is a power of two.
Here the weights are 1/5^i and net coefficients z/3: coding rows lie over 75
and a kernel's common denominator reaches 5625, so inexact divisions and
denominator growth by odd primes are exercised.  Each universe is checked
twice: as built, and after one stored row gains 1/7 at an entry it already
has, which breaks identities that read the row and keeps the users index
valid.
"""
from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings

from bdlab import verify
from bdlab.algebra import (
    D_BASIS,
    Functional,
    Vector,
    coding_rows,
    d_coords_of,
    d_vector,
    extend,
    synthesize,
    to_e_basis,
)
from bdlab.universe import Universe, build_universe
from conftest import micro_config, quinary_universes
from oracles import (
    definition_rows,
    per_form_analysis_check,
    store_to_d,
    stored_row,
    sweep_d_coords_of,
    sweep_extend,
    sweep_heaviest_windows,
    sweep_round_trips,
    sweep_synthesize,
    sweep_to_d,
    sweep_to_e,
    sweep_unit_rows,
)


def items(x: Vector) -> tuple[int, list]:
    return x.horizon, list(x.coords.items())


def assert_kernels_match(u: Universe, rng: random.Random) -> None:
    """Every kernel against the Fraction sweeps: basis changes, synthesis and
    read-off on every unit, then seeded data over odd denominators."""
    ids, top = list(u.ids()), u.max_rank
    for gid in ids:
        one = {gid: Fraction(1)}
        assert list(store_to_d(u, one).items()) == list(sweep_to_d(u, one).items())
        assert to_e_basis(u, Functional(D_BASIS, one)).coords == sweep_to_e(u, one)
        x = d_vector(u, gid)
        assert items(x) == items(sweep_synthesize(u, one))
        assert list(d_coords_of(u, x).items()) == list(sweep_d_coords_of(u, x).items())
    for _ in range(12):
        chosen = rng.sample(ids, min(4, len(ids)))
        data = {g: Fraction(rng.randint(-9, 9), rng.choice((1, 3, 5, 7, 15))) for g in chosen}
        horizon = rng.randint(1, top)
        x = synthesize(u, data, horizon)
        assert items(x) == items(sweep_synthesize(u, data, horizon))
        assert list(d_coords_of(u, x).items()) == list(sweep_d_coords_of(u, x).items())
        y = Vector(data, horizon)
        assert list(d_coords_of(u, y).items()) == list(sweep_d_coords_of(u, y).items())
        q = rng.randint(0, top)
        assert items(extend(u, data, q)) == items(sweep_extend(u, data, q))
        clean = {g: c for g, c in data.items() if c}
        assert store_to_d(u, data) == sweep_to_d(u, clean)
        assert to_e_basis(u, Functional(D_BASIS, data)).coords == sweep_to_e(u, clean)


def assert_proofs_match(u: Universe) -> None:
    """Each integer proof of the functional suite against its Fraction form."""
    assert verify._unit_rows(u) == sweep_unit_rows(u)
    assert verify._round_trips(u) == sweep_round_trips(u)
    heaviest = verify._heaviest_windows((g, verify._window_column(u, g)) for g in u.ids())
    assert heaviest == sweep_heaviest_windows(u)
    assert verify._analysis_forms(u) == per_form_analysis_check(u)


def corrupt_one_row(u: Universe, rng: random.Random) -> bool:
    """Add 1/7 to one entry of a stored row; False when every row is empty."""
    rows = coding_rows(u)
    used = [g for g in u.ids() if rows.num[g]]
    if not used:
        return False
    gid = rng.choice(used)
    h = rng.choice(sorted(rows.num[gid]))
    row = {g: 7 * v for g, v in rows.num[gid].items()}
    row[h] += rows.den[gid]
    rows.num[gid], rows.den[gid] = row, 7 * rows.den[gid]
    return True


def assert_integer_kernel_matches_fraction_forms(u: Universe, rng: random.Random) -> None:
    assert [stored_row(u, g) for g in u.ids()] == definition_rows(u)
    assert_kernels_match(u, rng)
    assert_proofs_match(u)
    if corrupt_one_row(u, rng):
        assert_kernels_match(u, rng)
        assert_proofs_match(u)


def test_largest_quinary_config_reaches_a_common_denominator_of_5625():
    cfg = micro_config(
        k=3,
        horizon=4,
        m_seq=(5, 25, 125, 625),
        n_seq=(16, 18, 20, 22),
        max_support=2,
        denominator_bound=3,
        level_cap=10,
    )
    u = build_universe(cfg)
    assert len(u) == 42
    rows = coding_rows(u)
    assert set(rows.den) == {1, 25, 75, 5625}
    assert max(rows.to_d({g: 1}, 1)[1] for g in u.ids()) == 5625
    assert_integer_kernel_matches_fraction_forms(u, random.Random(5))


@settings(
    max_examples=15,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(quinary_universes())
def test_integer_kernel_matches_fraction_forms_on_quinary_configs(u):
    assert_integer_kernel_matches_fraction_forms(u, random.Random(len(u)))
