from __future__ import annotations

import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bdlab.cli import resolve_config
from bdlab.config import desk_relaxed, desk_strict, make_config, validate_config
from bdlab.elements import (
    BASE,
    TYPE1,
    TYPE2,
    BFunctional,
    Candidate,
    base_candidate,
    t1_candidate,
    t2_candidate,
)
from bdlab.serialize import stable_hash
from bdlab.universe import (
    DanglingReference,
    InadmissibleElement,
    InvariantFault,
    Universe,
    UniverseError,
    _LevelPools,
    build_universe,
    iter_net,
    shift_image_candidate,
)
from bdlab.sequences import FAIL, PASS
from bdlab.verify import run_gamma_suite, run_sequence_suite
from conftest import micro_config
from oracles import scan_extension_roots, scan_ids_by_weight, scan_odd_support_pool


def unit(eta: int, coeff=1) -> BFunctional:
    return BFunctional.singleton(eta, coeff)


# -- hand enumeration of the micro universe ---------------------------------
#
# k = 3, singleton net with coefficients +-1, two weights, horizon 2.
# Level 1 is the three rank-one elements.  At rank 2 the only window is
# (0, 1], the odd weight admits only the empty combination (no support of
# weight index divisible by 4 exists), and the even weight admits the six
# unit singletons.  So level 2 has exactly 2k + 1 = 7 elements.


def test_level_one_is_the_k_rank_one_elements(micro_universe):
    u = micro_universe
    assert u.level(1) == (0, 1, 2)
    for j in range(3):
        el = u.element(j)
        assert el.kind == BASE and el.index == j and el.rank == 1


def test_level_two_contents_by_hand(micro_universe):
    u = micro_universe
    assert len(u.level(2)) == 7
    expected = [t1_candidate(2, 0, 1, BFunctional.zero())]
    for eta in range(3):
        for coeff in (1, -1):
            expected.append(t1_candidate(2, 0, 2, unit(eta, coeff)))
    found = {u.lookup(cand) for cand in expected}
    assert None not in found
    assert found == set(u.level(2))


def test_interning_order_follows_candidate_keys(micro_universe):
    u = micro_universe
    assert u.lookup(t1_candidate(2, 0, 1, BFunctional.zero())) == 3
    assert u.lookup(t1_candidate(2, 0, 2, unit(0, -1))) == 4
    assert u.lookup(t1_candidate(2, 0, 2, unit(0))) == 5
    assert u.lookup(t1_candidate(2, 0, 2, unit(2))) == 9


def test_numbering_trace_by_hand(micro_universe):
    # counter starts below the first rank, then sigma(gid) = gid + 2 while
    # every intern lands at the top rank.
    u = micro_universe
    assert [u.sigma(g) for g in u.ids()] == list(range(2, 12))
    for g in u.ids():
        assert u.sigma(g) > u.element(g).rank


def test_weight_accessors(micro_universe):
    u = micro_universe
    assert u.element(0).weight_idx == 0
    assert u.config.weight(u.element(3).weight_idx) == Fraction(1, 4)
    assert u.config.weight(u.element(4).weight_idx) == Fraction(1, 16)


def test_shift_images_by_hand(micro_universe):
    u = micro_universe
    # base chain steps down and dies at index 0
    assert u.f_image_of(0) is None
    assert u.f_image_of(1) == 0
    assert u.f_image_of(2) == 1
    # empty combination has no image
    assert u.f_image_of(3) is None
    # carried singletons push through the base chain
    neg0, neg1, neg2 = (u.lookup(t1_candidate(2, 0, 2, unit(j, -1))) for j in range(3))
    assert u.f_image_of(neg2) == neg1
    assert u.f_image_of(neg1) == neg0
    assert u.f_image_of(neg0) is None
    assert u.f_preimages_of(neg0) == (neg1,)
    assert u.f_iterate(neg2, 2) == neg0
    assert u.f_iterate(neg2, 3) is None


def test_numbering_sets_by_hand(micro_universe):
    u = micro_universe
    neg0, neg1, neg2 = (u.lookup(t1_candidate(2, 0, 2, unit(j, -1))) for j in range(3))
    assert u.sigma_set(neg2) == {u.sigma(neg2)}
    assert u.sigma_set(neg1) == {u.sigma(neg1), u.sigma(neg2)}
    assert u.sigma_set(neg0) == {u.sigma(neg0), u.sigma(neg1), u.sigma(neg2)}
    # monotone along the chain, and membership pins the chain position
    assert u.sigma_set(neg2) < u.sigma_set(neg1) < u.sigma_set(neg0)


def test_universe_is_closed_under_the_shift(micro_universe):
    u = micro_universe
    for gid in u.ids():
        img = u.f_image_of(gid)
        if img is None:
            continue
        el, img_el = u.element(gid), u.element(img)
        assert img in u.ids()
        assert img_el.rank == el.rank
        assert img_el.weight_idx == el.weight_idx
        assert img_el.age <= el.age
        assert gid in u.f_preimages_of(img)


# -- admissibility clauses ----------------------------------------------------


@pytest.mark.parametrize(
    "cand, clause",
    [
        (base_candidate(7), "rank window"),
        (t1_candidate(1, 0, 1, BFunctional.zero()), "rank window"),
        (t1_candidate(3, 2, 1, BFunctional.zero()), "rank window"),
        (t1_candidate(2, 0, 3, BFunctional.zero()), "weight cap"),
        (t1_candidate(2, 0, 0, BFunctional.zero()), "weight cap"),
        (t1_candidate(2, 0, 2, BFunctional.singleton(0, Fraction(1, 2))), "net membership"),
        (t1_candidate(2, 0, 1, BFunctional.singleton(0)), "odd-weight form"),
        (t2_candidate(2, 0, 1, BFunctional.zero()), "rank window"),
        (t2_candidate(3, 0, 1, BFunctional.zero()), "weight mismatch"),
    ],
)
def test_violations_name_their_clause(micro_universe, cand, clause):
    bad = micro_universe.validate_candidate(cand)
    assert bad, f"expected a violation for {cand}"
    assert any(v.startswith(clause) for v in bad), bad


def test_support_outside_window_is_named(micro_universe):
    u = micro_universe
    # window of a rank-3, p=1 element is (1, 2]; rank-one support is outside
    bad = u.validate_candidate(t1_candidate(3, 1, 2, unit(0)))
    assert any(v.startswith("window") for v in bad)


def test_oversized_combination_is_named(micro_universe):
    b = BFunctional.from_dict({0: Fraction(1), 1: Fraction(-1)})
    bad = micro_universe.validate_candidate(t1_candidate(2, 0, 2, b))
    assert any("support size" in v for v in bad)
    assert any("l1 mass" in v for v in bad)


@pytest.mark.parametrize(
    "coords, admitted",
    [
        ({0: Fraction(1, 2), 1: Fraction(-1, 2)}, True),  # mass exactly 1
        ({0: Fraction(1), 1: Fraction(-1, 2)}, False),  # 1 + 1/denominator_bound
        ({0: Fraction(3, 2)}, False),
    ],
)
def test_net_mass_boundary_is_exact(coords, admitted):
    u = build_universe(micro_config(max_support=2, denominator_bound=2))
    bad = u.validate_candidate(t1_candidate(2, 0, 2, BFunctional.from_dict(coords)))
    assert bad == ([] if admitted else ["net membership: l1 mass exceeds 1"])


def test_dangling_support_raises(micro_universe):
    with pytest.raises(DanglingReference):
        micro_universe.validate_candidate(t1_candidate(2, 0, 2, unit(99)))


@pytest.mark.parametrize(
    "cand",
    [
        t1_candidate(3, 0, 2, unit(-1)),  # a negative support id
        t2_candidate(4, -1, 1, BFunctional.zero()),  # a negative xi
    ],
)
def test_negative_ids_are_dangling_and_leave_the_universe_unchanged(micro_universe, cand):
    u = micro_universe
    size, fingerprint = len(u), u.fingerprint()
    with pytest.raises(DanglingReference):
        u.intern(cand)
    assert (len(u), u.fingerprint()) == (size, fingerprint)
    assert stable_hash(u.dump_lines()) == fingerprint  # not just the memo
    with pytest.raises(DanglingReference):
        u.element(-1)


def test_intern_raises_with_violation_list(micro_universe):
    with pytest.raises(InadmissibleElement) as exc:
        micro_universe.intern(t1_candidate(2, 0, 3, BFunctional.zero()))
    assert any(v.startswith("weight cap") for v in exc.value.violations)


def test_intern_is_idempotent(micro_universe):
    u = micro_universe
    before = len(u)
    assert u.intern(t1_candidate(2, 0, 1, BFunctional.zero())) == 3
    assert len(u) == before


def test_age_extension_interns_with_age_two(micro_universe):
    u = micro_universe
    gid = u.intern(t2_candidate(4, 3, 1, BFunctional.zero()))
    el = u.element(gid)
    assert el.age == 2 and el.rank == 4 and el.weight_idx == 1
    assert u.max_rank == 4


def test_interior_intern_is_counted(micro_universe):
    u = micro_universe
    assert u.interior_interns == 0
    u.intern(t1_candidate(3, 0, 1, BFunctional.zero()))  # extends: not interior
    assert u.interior_interns == 0
    # the canonical net never emits the empty even-weight combination, so
    # this rank-2 shape is fresh, and it now lands below the top rank
    u.intern(t1_candidate(2, 0, 2, BFunctional.zero()))
    assert u.interior_interns == 1


# -- enumeration discipline ---------------------------------------------------


def test_net_is_every_combination_within_budget_in_key_order():
    # coefficients z / bound with total |z| at most the bound, over supports
    # of up to max_support ascending ids, listed whole and sorted by key
    pool = [2, 5, 7, 9]
    for bound in range(1, 5):
        zs = [z for z in range(-bound, bound + 1) if z]
        for max_support in range(1, 4):
            expected = [
                BFunctional(tuple(zip(support, (Fraction(z, bound) for z in coeffs))))
                for size in range(1, max_support + 1)
                for support in combinations(pool, size)
                for coeffs in product(zs, repeat=size)
                if sum(map(abs, coeffs)) <= bound
            ]
            got = list(iter_net(pool, max_support, bound))
            assert got == sorted(expected, key=BFunctional.key), (bound, max_support)
    assert list(iter_net([], 2, 2)) == list(iter_net(pool, 0, 2)) == []


def test_levels_enumerate_consecutively(micro_universe):
    with pytest.raises(UniverseError, match="consecutively"):
        micro_universe.enumerate_level(2)


def test_horizon_is_enforced(micro_universe):
    with pytest.raises(UniverseError, match="horizon"):
        micro_universe.enumerate_level(3)


def test_no_level_follows_an_interior_intern():
    u = Universe(micro_config(horizon=4))
    for rank in (1, 2, 3):
        u.enumerate_level(rank)
    u.intern(t1_candidate(3, 0, 1, BFunctional.zero()))  # at the top rank
    assert u.interior_interns == 0
    u.intern(t1_candidate(2, 0, 2, BFunctional.zero()))
    with pytest.raises(UniverseError, match="level 4 cannot follow an intern below the top rank"):
        u.enumerate_level(4)


def test_element_budget_is_enforced():
    cfg = micro_config(max_elements=5)
    with pytest.raises(UniverseError, match="budget"):
        build_universe(cfg)


def test_a_base_level_past_the_budget_is_refused_before_it_is_listed():
    cfg = desk_strict()._replace(k=300_000)
    tracemalloc.start()
    try:
        with pytest.raises(UniverseError, match=r"element budget exceeded \(50000\)"):
            build_universe(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_a_level_past_the_budget_stops_listing_one_candidate_past_it(monkeypatch):
    budget = 5000
    cfg = validate_config(
        desk_relaxed()._replace(level_cap=0, horizon=4, max_elements=budget)
    )
    pulled = [0]

    def counted(stream):
        def wrapped(self, rank, pools, parity):
            for cand in stream(self, rank, pools, parity):
                pulled[0] += 1
                assert pulled[0] <= budget + 1, "listed candidates past the budget"
                yield cand

        return wrapped

    for name in ("_stream_t1", "_stream_t2"):
        monkeypatch.setattr(Universe, name, counted(getattr(Universe, name)))
    with pytest.raises(UniverseError, match=r"element budget exceeded \(5000\)"):
        build_universe(cfg)
    assert pulled[0] > 0


def test_each_new_element_is_validated_once(monkeypatch):
    calls = []
    validate = Universe.validate_candidate

    def counted(self, cand, key=None):
        calls.append(cand.key())
        return validate(self, cand, key)

    monkeypatch.setattr(Universe, "validate_candidate", counted)
    u = build_universe(desk_relaxed())
    assert len(calls) == len(u)
    assert len(set(calls)) == len(calls)


def test_inadmissible_shift_image_is_an_invariant_fault(micro_universe, monkeypatch):
    u = micro_universe
    cand = t1_candidate(3, 0, 2, unit(1))  # its image carries unit(0): a new element
    validate = Universe.validate_candidate

    def planted(self, c, key=None):
        return validate(self, c, key) if c == cand else ["planted violation"]

    monkeypatch.setattr(Universe, "validate_candidate", planted)
    message = r"^shift image of #\d+ .* is inadmissible: planted violation$"
    with pytest.raises(InvariantFault, match=message):
        u.intern(cand)


# -- determinism ----------------------------------------------------------------


def test_rebuild_is_byte_identical():
    cfg = micro_config(horizon=3)
    one, two = build_universe(cfg), build_universe(cfg)
    assert one.dump_lines() == two.dump_lines()
    assert one.fingerprint() == two.fingerprint()
    assert one.dump_lines()[0] == "# bdlab universe dump v1"


def fresh_fingerprint(u: Universe) -> str:
    return stable_hash(u.dump_lines())


def test_fingerprint_follows_interns_at_the_top_rank(micro_universe):
    u = micro_universe
    before = u.fingerprint()
    gid = u.intern(t1_candidate(u.max_rank + 1, 0, 1, BFunctional.zero()))
    assert u.element(gid).rank == u.max_rank and not u.interior_interns
    assert u.fingerprint() == fresh_fingerprint(u) != before


def test_fingerprint_follows_interior_interns():
    u = build_universe(micro_config(horizon=3))
    before = u.fingerprint()
    u.intern(t1_candidate(2, 0, 2, BFunctional.zero()))
    assert u.interior_interns == 1
    assert u.fingerprint() == fresh_fingerprint(u) != before


def test_fingerprint_follows_the_sequence_suite():
    u = build_universe(desk_relaxed())
    built, before = len(u), u.fingerprint()
    run_sequence_suite(u)
    assert len(u) > built
    assert u.fingerprint() == fresh_fingerprint(u) != before


def test_desk_strict_shape_is_pinned(strict_universe):
    # Regression pin: the desk-strict universe as first materialized.
    u = strict_universe
    assert len(u) == 60
    assert u.level_counts() == {1: 3, 2: 7, 3: 24, 4: 26}
    assert u.fingerprint() == (
        "d119dfcbb9a1438b3acd4b3a43b5a8f0d71dac26694c2771c31c2ba52e6126be"
    )


def test_desk_relaxed_shape_is_pinned(relaxed_universe):
    u = relaxed_universe
    assert len(u) == 208
    assert u.level_counts() == {1: 3, 2: 25, 3: 47, 4: 48, 5: 43, 6: 42}
    assert u.fingerprint() == (
        "bbc13b4b7ccbf00cca0859680e23f4256233c0397f5f926cfde1c9948ce6d27a"
    )


def assert_level_pools_match_direct_scans(u: Universe, rank: int) -> int:
    """Compare one level's indexed roots and pools, and the ids-by-weight
    index, with the scans they stand for; returns how many odd pools were
    nonempty."""
    assert u._by_weight == scan_ids_by_weight(u)
    pools = _LevelPools(u, rank)
    roots = scan_extension_roots(u, rank)
    for parity in (0, 1):
        assert list(pools.roots(parity)) == roots[parity]
    nonempty = 0
    for lo in range(rank - 1):
        window = [g for g in u.ids() if lo < u.element(g).rank <= rank - 1]
        assert list(pools.window(lo)) == window
        for widx in range(1, u.config.num_weights + 1):
            odd = list(pools.odd(lo, widx))
            assert odd == scan_odd_support_pool(u, window, widx), (rank, lo, widx)
            nonempty += bool(odd)
    return nonempty


@pytest.mark.parametrize("factory", [desk_strict, desk_relaxed])
def test_level_pools_match_direct_scans(factory):
    u = Universe(factory())
    for rank in range(1, u.config.horizon + 1):
        if rank > 1:
            assert_level_pools_match_direct_scans(u, rank)
        u.enumerate_level(rank)


def weight4_universe() -> Universe:
    """Levels 1..4 of a capped config plus hand-interned weight-4 elements
    at rank 4.  Capped selections rarely admit weight index 4, so odd-weight
    singleton pools are empty on the committed configs."""
    u = Universe(
        micro_config(
            k=2, horizon=6, m_seq=(4, 16, 64, 256), n_seq=(16, 18, 20, 22), level_cap=12
        )
    )
    for rank in range(1, 5):
        u.enumerate_level(rank)
    for p in range(3):
        for eta in [g for g in u.ids() if p < u.element(g).rank <= 3]:
            if u.element(eta).weight_idx % 2 == 0 and u.element(eta).weight_idx:
                u.intern(t1_candidate(4, p, 4, unit(eta)))
    return u


def test_level_pools_match_direct_scans_with_odd_supports():
    u = weight4_universe()
    nonempty = 0
    for rank in (5, 6):
        nonempty += assert_level_pools_match_direct_scans(u, rank)
        u.enumerate_level(rank)
    assert nonempty > 0


def counted_sigma_sets(monkeypatch) -> list[int]:
    """The ids ``Universe.sigma_set`` is called on from now on."""
    calls: list[int] = []
    sigma_set = Universe.sigma_set

    def counted(self, gid):
        calls.append(gid)
        return sigma_set(self, gid)

    monkeypatch.setattr(Universe, "sigma_set", counted)
    return calls


BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


@pytest.mark.parametrize(
    "name",
    ["desk-strict", "desk-relaxed", str(BENCH_CONFIGS / "wide.json")],
    ids=["desk-strict", "desk-relaxed", "wide"],
)
def test_each_depth_is_a_prefix_of_the_next(name, monkeypatch):
    # One enumeration order: a deeper truncation only appends elements, and
    # every element already built keeps its id, shape and numbering.
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    cfg = resolve_config(name)
    shorter: list[str] = []
    for horizon in range(2, cfg.horizon + 4):
        lines = build_universe(validate_config(cfg._replace(horizon=horizon))).dump_lines()[2:]
        assert len(lines) > len(shorter) and lines[: len(shorter)] == shorter, horizon
        shorter = lines


@pytest.mark.parametrize(
    "name",
    ["desk-strict", "desk-relaxed", str(BENCH_CONFIGS / "wide.json"), str(BENCH_CONFIGS / "deep.json")],
    ids=["desk-strict", "desk-relaxed", "wide", "deep"],
)
def test_building_a_committed_config_reads_no_sigma_set(name, monkeypatch):
    # Their odd pools are empty, so no age extension needs a sigma-set to
    # filter singletons, and no enumerated element carries one to validate.
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    cfg = resolve_config(name)
    calls = counted_sigma_sets(monkeypatch)
    build_universe(cfg)
    assert calls == []


def test_odd_supports_make_enumeration_read_sigma_sets(monkeypatch):
    u = weight4_universe()
    calls = counted_sigma_sets(monkeypatch)
    for rank in (5, 6):
        u.enumerate_level(rank)
    assert calls
    assert {u.element(g).weight_idx % 2 for g in calls} == {1}


# -- per-b work --------------------------------------------------------------------
#
# Every element carries its b from a finite net, so a few distinct b's recur at
# every rank.  The universe keeps one BFunctional per distinct b, pushes it
# through the shift map once, and decides its even-weight net verdict once.

COMMITTED = [
    ("desk-strict", 28),
    ("desk-relaxed", 78),
    (str(BENCH_CONFIGS / "wide.json"), 144),
    (str(BENCH_CONFIGS / "deep.json"), 144),
]


@pytest.mark.parametrize(
    "name, distinct", COMMITTED, ids=["desk-strict", "desk-relaxed", "wide", "deep"]
)
def test_build_pushes_each_distinct_b_once(name, distinct, monkeypatch):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    pushed = []
    push = Universe.push

    def counted(self, coords):
        pushed.append(coords)
        return push(self, coords)

    monkeypatch.setattr(Universe, "push", counted)
    u = build_universe(resolve_config(name))
    carried = {el.b.terms for el in u.elements if el.b.terms}
    assert len(pushed) == len(carried) == distinct
    assert set(pushed) == carried


@pytest.mark.parametrize(
    "name",
    ["desk-strict", "desk-relaxed", str(BENCH_CONFIGS / "wide.json")],
    ids=["desk-strict", "desk-relaxed", "wide"],
)
def test_elements_with_equal_b_share_one_object(name, monkeypatch):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    u = build_universe(resolve_config(name))
    first: dict[BFunctional, BFunctional] = {}
    for el in u.elements:
        if el.kind != BASE:
            assert first.setdefault(el.b, el.b) is el.b, el.gid
    assert len(first) < len(u) - u.config.k


def unmemoized_image(u: Universe, el) -> Candidate | None:
    """The shift image candidate of a non-base element, from one push of its
    b that reads no per-b entry."""
    mapped = BFunctional.from_dict(u.push(el.b.terms))
    if el.kind == TYPE2 and u.f_image_of(el.xi) is not None:
        return t2_candidate(el.rank, u.f_image_of(el.xi), el.weight_idx, mapped)
    if mapped.is_zero:
        return None
    p = el.p if el.kind == TYPE1 else u.element(el.xi).rank
    return t1_candidate(el.rank, p, el.weight_idx, mapped)


@pytest.mark.parametrize(
    "name", ["desk-relaxed", str(BENCH_CONFIGS / "wide.json")], ids=["desk-relaxed", "wide"]
)
def test_stored_images_match_a_push_that_reads_no_memo(name, monkeypatch):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    u = build_universe(resolve_config(name))
    for el in u.elements:
        if el.kind == BASE:
            continue
        cand = unmemoized_image(u, el)
        image = u.f_image_of(el.gid)
        if cand is None:
            assert shift_image_candidate(u, el, el.key()) is None
            assert image is None, el.gid
        else:
            assert shift_image_candidate(u, el, el.key()) == (cand, cand.key())
            assert image is not None and u.lookup(cand) == image, el.gid
            assert u.element(image).key() == cand.key()


def test_a_planted_net_verdict_reaches_no_revalidation():
    # The verdict is kept per b for intern's path only: validation without a
    # key, and so the gamma suite's revalidation, recomputes every clause.
    u = build_universe(micro_config(max_support=2, denominator_bound=2))
    cand = t1_candidate(2, 0, 2, BFunctional.from_dict({0: Fraction(3, 2)}))  # its image vanishes
    truth = ["net membership: l1 mass exceeds 1"]
    assert u.validate_candidate(cand) == truth
    u._per_b(cand.key()[-1], cand.b).net = []  # planted: admissible
    assert u.validate_candidate(cand, cand.key()) == []
    gid = u.intern(cand)  # intern reads the planted verdict
    assert u.validate_candidate(u.element(gid)) == truth
    check = next(c for c in run_gamma_suite(u).checks if c.name == "element revalidation")
    assert (check.status, check.detail) == (FAIL, f"element {gid}: {truth[0]}")


def test_a_planted_net_violation_reaches_no_revalidation():
    u = build_universe(desk_relaxed())
    el = next(el for el in u.elements if el.b.terms and el.weight_idx % 2 == 0)
    u._by_b[el.key()[-1]].net = ["net membership: planted"]
    assert u.validate_candidate(el, el.key()) == ["net membership: planted"]
    assert u.validate_candidate(el) == []
    check = next(c for c in run_gamma_suite(u).checks if c.name == "element revalidation")
    assert check.status == PASS


def _drawn_candidate(data, u: Universe):
    """An admissible t1 or t2 shape of rank 2..max_rank with b zero or a unit
    singleton, or None when the drawn shape is inadmissible."""
    rank = data.draw(st.integers(min_value=2, max_value=u.max_rank))
    roots = [g for g in u.ids() if u.element(g).rank <= rank - 2 and u.element(g).weight_idx]
    if not roots or data.draw(st.booleans()):
        p = data.draw(st.integers(min_value=0, max_value=rank - 2))
        # highest weight first: weight index 4 feeds the odd-weight pools
        widx = data.draw(st.sampled_from(range(min(rank, u.config.num_weights), 0, -1)))
        cand = t1_candidate(rank, p, widx, BFunctional.zero())
        lo = p
    else:
        xi = u.element(data.draw(st.sampled_from(roots)))
        cand = t2_candidate(rank, xi.gid, xi.weight_idx, BFunctional.zero())
        lo = xi.rank
    pool = [g for g in u.ids() if lo < u.element(g).rank <= rank - 1]
    if cand.weight_idx % 2:
        pool = [g for g in pool if u.element(g).weight_idx % 4 == 0 < u.element(g).weight_idx]
    if pool and not data.draw(st.booleans()):
        cand = cand._replace(b=unit(data.draw(st.sampled_from(pool))))
    return None if u.validate_candidate(cand) else cand


@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_indexes_match_scans_through_interior_interns(data):
    cap = data.draw(st.integers(min_value=2, max_value=10))
    if data.draw(st.booleans()):
        cfg = validate_config(desk_strict()._replace(horizon=6, level_cap=cap))
    else:
        cfg = micro_config(
            k=data.draw(st.integers(min_value=2, max_value=3)),
            horizon=6,
            m_seq=(4, 16, 64, 256),
            # small n caps ages, so some elements admit no age extension
            n_seq=data.draw(st.sampled_from([(16, 18, 20, 22), (1, 2, 3, 4)])),
            max_support=data.draw(st.integers(min_value=1, max_value=2)),
            level_cap=cap,
        )
    u = Universe(cfg)
    enumerated = 0
    for rank in range(1, cfg.horizon + 1):
        if u.interior_interns:
            # the level pools bisect on rank order, so no level follows an
            # interior intern; ``sequences`` still reads ``_by_weight`` then
            with pytest.raises(UniverseError, match="below the top rank"):
                u.enumerate_level(enumerated + 1)
        else:
            enumerated = rank
            u.enumerate_level(rank)
        interns = data.draw(st.integers(min_value=0, max_value=4)) if rank > 1 else 0
        for step in range(interns + 1):
            if step:
                cand = _drawn_candidate(data, u)
                if cand is not None:
                    u.intern(cand)
            assert u._by_weight == scan_ids_by_weight(u)
            if not u.interior_interns:
                assert_level_pools_match_direct_scans(u, rank + 1)


def test_selection_cap_can_be_exceeded_by_closure(strict_universe):
    # the rank-4 level holds more elements than the selection cap because
    # interning a selected element cascades through its whole shift orbit
    assert strict_universe.config.level_cap == 24
    assert len(strict_universe.level(4)) == 26
