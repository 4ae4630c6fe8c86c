"""The integer shift proofs, extensions and weighted scans against their
Fraction references in ``oracles``.

The shift suite's adjoint, preimage-sum, basis-change and tail proofs, the
functional suite's extensions and the sequence laboratory's weighted scans
compare integer numerators over a common denominator.  Their Fraction
references must give the same ``(ok, detail)`` and the same values and
witnesses, on both desks, on a config with rational weights, on small random
configs, and where a proof fails.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from bdlab import verify
from bdlab.algebra import Vector, coding_rows, d_vector, synthesize
from bdlab.config import desk_relaxed, desk_strict
from bdlab.elements import BFunctional, t1_candidate
from bdlab.sequences import (
    block_sequence,
    check_exact_pair,
    estimate_ris_averages,
    lower_bound_search,
    minimal_ris_constant,
    validate_ris,
)
from bdlab.universe import Universe, build_universe
from conftest import micro_config, small_universes
from oracles import (
    fraction_adjoint,
    fraction_basis_change,
    fraction_extensions,
    fraction_lower_bound_search,
    fraction_minimal_pair_constant,
    fraction_minimal_ris_constant,
    fraction_off_weight_clauses,
    fraction_preimage_sums,
    fraction_ris_averages,
    fraction_tail_commutation,
    scan_weight_decay_violations,
)


def rational_weights():
    """Weights 2/9, 4/81, ...: the weighted scans' factors m_w are not
    integers, so their common denominators are not 1."""
    m_seq = tuple(Fraction(9**i, 2**i) for i in range(1, 5))
    return micro_config(
        horizon=4, m_seq=m_seq, n_seq=(16, 18, 20, 22), max_support=2,
        denominator_bound=2, level_cap=8,
    )


FIXTURES = {
    "desk-strict": desk_strict,
    "desk-relaxed": desk_relaxed,
    "rational-weights": rational_weights,
}

SMALL = settings(
    max_examples=15,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SHIFT_PROOFS = [
    (verify._adjoint, fraction_adjoint),
    (verify._preimage_sums, fraction_preimage_sums),
    (verify._basis_change, fraction_basis_change),
    (verify._first_violation(verify._tail_fault), fraction_tail_commutation),
]


def assert_shift_proofs_agree(u: Universe) -> None:
    for check, reference in SHIFT_PROOFS:
        assert check(u) == reference(u), check


def assert_extensions_agree(u: Universe) -> None:
    assert verify._extensions(u) == fraction_extensions(u)


def corrupt_row(u: Universe, gid: int, h: int) -> None:
    store = coding_rows(u)
    row = dict(store.num[gid])
    row[h] = row.get(h, 0) + store.den[gid]
    store.num[gid] = row


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_shift_proofs_match_the_fraction_references(name):
    u = build_universe(FIXTURES[name]())
    assert_shift_proofs_agree(u)
    # a corrupted coding row fails the basis change in both, with one witness
    gid = next(g for g in u.ids() if u.f_image_of(g) is not None and coding_rows(u).num[g])
    h = next(
        h
        for h in u.ids()
        if u.element(h).rank < u.element(gid).rank and u.f_image_of(h) is not None
    )
    corrupt_row(u, gid, h)
    assert not fraction_basis_change(u)[0]
    assert_shift_proofs_agree(u)
    # so does a preimage table out of step with the images
    u._f_image[gid] = None
    assert not fraction_adjoint(u)[0]
    assert_shift_proofs_agree(u)


@SMALL
@given(small_universes())
def test_shift_proofs_match_the_fraction_references_on_small_configs(u):
    assert_shift_proofs_agree(u)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_extensions_match_the_fraction_reference(name):
    u = build_universe(FIXTURES[name]())
    assert_extensions_agree(u)
    # interns below the top rank put ids out of rank order
    top = u.max_rank
    u.intern(t1_candidate(top, 0, 2, BFunctional.singleton(u.level(1)[0])))
    u.intern(t1_candidate(2, 0, 2, BFunctional.zero()))
    assert u.interior_interns
    assert_extensions_agree(u)


@SMALL
@given(small_universes())
def test_extensions_match_the_fraction_reference_on_small_configs(u):
    assert_extensions_agree(u)


def test_shift_proofs_build_no_fraction(monkeypatch):
    u = build_universe(desk_relaxed())
    coding_rows(u)
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    outcomes = [check(u) for check, _ in SHIFT_PROOFS]
    monkeypatch.undo()
    assert all(ok for ok, _ in outcomes)
    assert made == []


# -- the weighted scans ---------------------------------------------------------------


def sample_vectors(u: Universe, rng: random.Random) -> list[Vector]:
    """Basis vectors at both ends of the universe, and seeded combinations
    below the top rank and at it."""
    ids = list(u.ids())
    out = [d_vector(u, ids[0]), d_vector(u, ids[-1]), d_vector(u, ids[len(ids) // 2])]
    for horizon in sorted({max(1, u.max_rank - 1), u.max_rank}):
        pool = [g for g in ids if u.element(g).rank <= horizon]
        for size in (2, 4):
            chosen = rng.sample(pool, min(size, len(pool)))
            data = {g: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for g in chosen}
            out.append(synthesize(u, data, horizon))
    return out


CONSTANTS = (Fraction(0), Fraction(1, 8), Fraction(3), Fraction(-1))


def assert_scans_agree(u: Universe, rng: random.Random) -> None:
    weights = u.config.num_weights
    xs = sample_vectors(u, rng)
    groups = [[x] for x in xs] + [xs[:2], xs[1:4], [xs[0], Vector({}, u.max_rank)]]
    for group in groups:
        assert minimal_ris_constant(u, block_sequence(u, group)) == (
            fraction_minimal_ris_constant(u, group)
        )
        for j in range(1, weights // 2 + 1):
            assert lower_bound_search(u, group, j) == fraction_lower_bound_search(u, group, j)
        for C in CONSTANTS:
            for j0 in range(1, min(weights, 3) + 1):
                assert estimate_ris_averages(u, group, C, j0) == fraction_ris_averages(
                    u, group, C, j0
                )
            seq = block_sequence(u, group)
            js = [1 + i for i in range(len(group))]
            assert [v for v in validate_ris(u, seq, C, js).violations if v.startswith("(3)")] == (
                scan_weight_decay_violations(u, group, C, js)
            )
    eta = u.level(1)[0]
    for x in xs:
        for j in range(1, min(weights, 3) + 1):
            assert check_exact_pair(u, x, eta, 0, j).minimal_constant == (
                fraction_minimal_pair_constant(u, x, j)
            )
            for C in CONSTANTS:
                clauses = check_exact_pair(u, x, eta, C, j).clauses
                scanned = tuple(c for c in clauses if c.name.startswith("(5)"))
                assert scanned == fraction_off_weight_clauses(u, x, C, j)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_weighted_scans_match_the_fraction_references(name):
    assert_scans_agree(build_universe(FIXTURES[name]()), random.Random(13))


@SMALL
@given(small_universes())
def test_weighted_scans_match_the_fraction_references_on_small_configs(u):
    assert_scans_agree(u, random.Random(17))
