"""The support-driven weighted scan against the full scan it replaces.

``sequences._argmax_weighted`` scores only the vectors' supports plus the
first off-support id of each weight index; ``oracles.scan_argmax_weighted``
scores every weighted element.  Both must return the same value and the same
witness id, for zero vectors, for scores that are nonzero off the support,
below the top rank, and on universes whose ids are out of rank order.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bdlab.algebra import Vector, d_vector, synthesize
from bdlab.config import desk_relaxed, desk_strict
from bdlab.elements import BFunctional, t1_candidate
from bdlab.sequences import (
    _argmax_weighted,
    _tail_estimate_clause,
    build_exact_pair,
    helper_pair_parts,
)
from bdlab.universe import Universe, build_universe
from conftest import micro_config
from oracles import every_cut_tail_estimate, scan_argmax_weighted

FIXTURES = {"desk-strict": desk_strict, "desk-relaxed": desk_relaxed}


def scores(u: Universe, xs: list[Vector], j: int) -> list[tuple[str, object, object]]:
    """(name, weight_ok, score) triples shaped like the sequence laboratory's."""
    weight = u.config.weight
    total = lambda g: sum((x.at(g) for x in xs), Fraction(0))  # noqa: E731
    return [
        ("lower indices", lambda w: w < j, lambda w, g: abs(total(g)) / weight(w)),
        ("higher indices", lambda w: w > j, lambda w, g: abs(total(g))),
        ("off weight", lambda w: w != j, lambda w, g: abs(total(g)) / weight(min(w, j))),
        # nonzero off the support: the ris-averages margin average(g) - bound(w)
        ("margin", lambda w: w >= j, lambda w, g: abs(total(g)) / 2 - 6 * weight(w)),
        ("signed sum", lambda w: w == 2 * j, lambda w, g: total(g)),
        ("all negative", lambda w: True, lambda w, g: -abs(total(g)) - w),
    ]


def assert_scans_agree(u: Universe, xs: list[Vector]) -> None:
    for j in (1, 2, 3):
        for name, weight_ok, score in scores(u, xs, j):
            got = _argmax_weighted(u, xs, weight_ok, score)
            want = scan_argmax_weighted(u, xs, weight_ok, score)
            assert got == want, (name, j)


def random_vectors(u: Universe, rng: random.Random, horizon: int) -> list[Vector]:
    pool = [g for g in u.ids() if u.element(g).rank <= horizon]
    vectors = []
    for size in (1, 2, 4):
        chosen = rng.sample(pool, min(size, len(pool)))
        data = {g: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for g in chosen}
        vectors.append(synthesize(u, data, horizon))
    return vectors


def assert_agree_on_samples(u: Universe, rng: random.Random) -> None:
    top = u.max_rank
    for horizon in sorted({1, max(1, top - 1), top}):
        zero = Vector({}, horizon)
        assert_scans_agree(u, [zero])
        vectors = random_vectors(u, rng, horizon)
        for x in vectors:
            assert_scans_agree(u, [x])
            assert_scans_agree(u, [x, zero])
        assert_scans_agree(u, vectors)
    # no vectors at all: the horizon is the top rank
    assert_scans_agree(u, [])


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_support_scan_matches_the_full_scan(name):
    assert_agree_on_samples(build_universe(FIXTURES[name]()), random.Random(3))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_support_scan_follows_interns_below_the_top(name):
    u = build_universe(FIXTURES[name]())
    rng = random.Random(5)
    assert_agree_on_samples(u, rng)  # indexes the weight classes before the interns
    xs, cuts, bs = helper_pair_parts(u, 2)
    pair = build_exact_pair(u, xs, cuts, bs, 1)
    assert u.interior_interns > 0
    assert any(u.element(g).rank < u.element(g - 1).rank for g in range(1, len(u)))
    assert_agree_on_samples(u, rng)
    assert_scans_agree(u, [pair.z])
    assert_scans_agree(u, [pair.z, *xs])


def test_support_scan_on_hand_interned_interior_elements():
    # desk-relaxed has no weight-index-4 element; the first one interned sits
    # at the top rank, the next one below it, so below the top the first
    # weight-4 id is out of reach and a later one stands for its class
    u = build_universe(desk_relaxed())
    rng = random.Random(9)
    assert_agree_on_samples(u, rng)
    built, top = len(u), u.max_rank
    for rank, p, widx in ((top, 0, 4), (top - 1, 0, 4), (3, 0, 2)):
        u.intern(t1_candidate(rank, p, widx, BFunctional.zero()))
    interned = list(range(built, len(u)))
    assert len(interned) == 3 and u.interior_interns == 2
    assert_agree_on_samples(u, rng)
    # vectors living on the late ids
    for g in interned:
        rank = u.element(g).rank
        assert_scans_agree(u, [synthesize(u, {g: Fraction(3, 2)}, rank)])
        assert_scans_agree(u, [synthesize(u, {g: Fraction(-1)}, top)])


def cancelling_vectors(u: Universe) -> list[Vector]:
    """a*d_lo + d_hi for elements two or more ranks apart, with a chosen so
    the sum vanishes at a weighted element where both d-vectors are nonzero:
    there the tail past rank(lo) is nonzero although the vector is not, and
    it can outweigh the whole vector, so the worst tail starts past a cut
    above 0 and below the top of the d-support."""
    out = []
    for r_lo in range(1, u.max_rank - 1):
        for r_hi in range(r_lo + 2, u.max_rank + 1):
            for g_lo in u.level(r_lo)[:4]:
                lo = d_vector(u, g_lo)
                for g_hi in u.level(r_hi)[:8]:
                    hi = d_vector(u, g_hi)
                    shared = [g for g in hi.coords if g in lo.coords and u.element(g).weight_idx]
                    for g in shared[:2]:
                        a = -hi.coords[g] / lo.coords[g]
                        out.append(synthesize(u, {g_lo: a, g_hi: Fraction(1)}))
    return out


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_tail_estimate_matches_every_cut(name):
    u = build_universe(FIXTURES[name]())
    cancelling = cancelling_vectors(u)
    xs, cuts, bs = helper_pair_parts(u, 2)
    pair = build_exact_pair(u, xs, cuts, bs, 1)
    rng = random.Random(11)
    subjects = [pair.z, *xs, Vector({}, u.max_rank), *random_vectors(u, rng, u.max_rank - 1)]
    constants = (Fraction(0), Fraction(1, 8), Fraction(3), Fraction(-1))
    cases = [(x, C) for x in subjects for C in constants] + [(x, Fraction(1)) for x in cancelling]
    later_cuts = 0
    for x, C in cases:
        for j in (1, 2):
            want = every_cut_tail_estimate(u, x, j, C)
            assert _tail_estimate_clause(u, x, j, C) == want
            later_cuts += want.witness.startswith("|tail past") and not want.witness.startswith(
                "|tail past 0 "
            )
    assert later_cuts  # some worst tail starts past a cut above 0
