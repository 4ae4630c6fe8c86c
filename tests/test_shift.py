from __future__ import annotations

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import HealthCheck, given, settings

from bdlab.algebra import Functional, Vector, d_vector, e_star, pairing, synthesize
from bdlab.elements import BFunctional, t1_candidate, t2_candidate
from bdlab.shift import (
    ToeplitzMatrix,
    compact_witness,
    jordan_block,
    nilpotency_index,
    s_apply,
    s_apply_power,
    s_star,
    shift_power_family_rank,
    toeplitz_repr,
    truncated_poly_product,
    witness_id,
)
from bdlab.universe import UniverseError, build_universe
from bdlab.verify import _first_violation, _table_law_fault
from conftest import micro_config, small_universes
from oracles import elimination_rank

F = Fraction


@pytest.fixture(scope="module")
def micro3():
    return build_universe(micro_config(horizon=3))


def unit(eta: int, coeff=1) -> BFunctional:
    return BFunctional.singleton(eta, coeff)


# -- the map on coded elements ------------------------------------------------


def test_map_walks_down_the_rank_one_chain(micro3):
    assert micro3.f_image_of(2) == 1
    assert micro3.f_image_of(1) == 0
    assert micro3.f_image_of(0) is None


def test_map_pushes_carried_combinations(micro3):
    src = micro3.lookup(t1_candidate(3, 1, 2, unit(9)))  # carries +e*_{(2, +e*_2)}
    dst = micro3.lookup(t1_candidate(3, 1, 2, unit(7)))  # image carries +e*_1
    assert src is not None and dst is not None
    assert micro3.f_image_of(src) == dst


def test_map_drops_terms_whose_support_dies():
    # on a 2-support net, (1/2)(e*_0 + e*_1) loses its first term in one step
    cfg = micro_config(horizon=2, max_support=2, denominator_bound=2)
    u = build_universe(cfg)
    b = BFunctional.from_dict({0: F(1, 2), 1: F(1, 2)})
    gid = u.intern(t1_candidate(2, 0, 2, b))
    img = u.f_image_of(gid)
    assert img is not None
    assert u.element(img).b == BFunctional.from_dict({0: F(1, 2)})
    assert u.f_image_of(img) is None


def test_age_extension_degrades_when_its_anchor_dies():
    u = build_universe(micro_config(horizon=3))
    eta = u.lookup(t1_candidate(3, 0, 2, unit(6)))  # carrier whose image survives
    assert eta is not None
    anchor = 4  # t1(2, 0, 2, -e*_0): its own image is undefined
    gid = u.intern(t2_candidate(5, anchor, 2, unit(eta)))
    img = u.f_image_of(gid)
    assert img is not None
    el = u.element(img)
    # anchor vanished: same rank, age collapsed to 1, window starts at the
    # anchor's rank, and the carried combination stepped once
    assert el.kind == "t1" and el.rank == 5 and el.age == 1 and el.p == 2
    eta_img = u.f_image_of(eta)
    assert el.b == unit(eta_img)


def test_age_extension_follows_its_anchor():
    u = build_universe(micro_config(horizon=3))
    anchor = 8  # t1(2, 0, 2, -e*_2); lives for two more steps
    eta = u.lookup(t1_candidate(3, 0, 2, unit(6)))
    gid = u.intern(t2_candidate(5, anchor, 2, unit(eta)))
    first = u.f_image_of(gid)
    assert first is not None
    el1 = u.element(first)
    assert el1.kind == "t2" and el1.xi == u.f_image_of(anchor)
    second = u.f_image_of(first)
    assert second is not None
    el2 = u.element(second)
    # the carried combination died after one step but the anchor lives on
    assert el2.kind == "t2" and el2.xi == 4 and el2.b.is_zero
    assert u.f_image_of(second) is None
    assert nilpotency_index(u, gid) == 3


# -- nilpotency -----------------------------------------------------------------


def pushforward_orbit(u, gid: int) -> list[Functional]:
    """e*_gid and its first k pushforwards."""
    orbit = [e_star(gid)]
    for _ in range(u.config.k):
        orbit.append(s_star(u, orbit[-1]))
    return orbit


def test_operator_power_k_annihilates_everything(micro3):
    k = micro3.config.k
    for gid in micro3.ids():
        assert not pushforward_orbit(micro3, gid)[k].coords
    assert max(nilpotency_index(micro3, g) for g in micro3.ids()) == k


def test_power_k_minus_one_reaches_the_bottom(micro3):
    k = micro3.config.k
    orbit = pushforward_orbit(micro3, k - 1)
    assert orbit[k - 1] == e_star(0)
    assert orbit[k - 2].coords


@pytest.mark.parametrize("k", [2, 3, 4])
def test_nilpotency_degree_tracks_k(k):
    u = build_universe(micro_config(k=k, horizon=2))
    assert max(nilpotency_index(u, g) for g in u.ids()) == k
    assert shift_power_family_rank(u) == k
    for gid in u.ids():
        assert not pushforward_orbit(u, gid)[k].coords
    assert pushforward_orbit(u, k - 1)[k - 1] == e_star(0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_power_family_rank_matches_elimination(k):
    u = build_universe(micro_config(k=k, horizon=2))
    assert shift_power_family_rank(u) == elimination_rank(u) == k


@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_universes())
def test_power_family_rank_matches_elimination_on_small_configs(u):
    assert shift_power_family_rank(u) == elimination_rank(u)


# -- duality ---------------------------------------------------------------------


def test_pushforward_and_shift_are_adjoint(micro3):
    vectors = [
        d_vector(micro3, 0),
        d_vector(micro3, 8),
        synthesize(micro3, {2: F(1), 6: F(-1, 2), 14: F(3)}),
    ]
    functionals = [e_star(g) for g in micro3.ids()] + [
        Functional("e*", {1: F(2), 9: F(-5, 3), 30: F(1, 4)})
    ]
    for f in functionals:
        for x in vectors:
            assert pairing(micro3, s_star(micro3, f), x) == pairing(
                micro3, f, s_apply(micro3, x)
            )


def test_shift_sends_basis_vectors_to_preimage_sums(micro3):
    for delta in micro3.ids():
        expected = synthesize(micro3, {})
        for gamma in micro3.f_preimages_of(delta):
            expected = expected.plus(d_vector(micro3, gamma))
        assert s_apply(micro3, d_vector(micro3, delta)).coords == expected.coords


def test_map_table_snapshot_is_clean(micro3):
    assert _first_violation(_table_law_fault)(micro3) == (True, "")


# -- polynomials in the operator ----------------------------------------------------


def test_toeplitz_rows_by_hand():
    t = toeplitz_repr((1, 2, 3))
    assert t.rows() == (
        (F(1), F(2), F(3)),
        (F(0), F(1), F(2)),
        (F(0), F(0), F(1)),
    )


def test_jordan_block_is_nilpotent_of_exact_degree():
    for k in (2, 3, 4):
        j = jordan_block(k)
        power = toeplitz_repr([1] + [0] * (k - 1))  # identity
        for _ in range(k - 1):
            power = power.multiply(j)
        assert not power.is_zero
        assert power.multiply(j).is_zero


def test_toeplitz_product_is_truncated_convolution():
    a, b = (F(1), F(-2), F(1, 3)), (F(0), F(4), F(5))
    lhs = toeplitz_repr(a).multiply(toeplitz_repr(b))
    assert lhs == ToeplitzMatrix(truncated_poly_product(a, b, 3))
    # convolution beyond the corner is discarded
    assert truncated_poly_product((0, 0, 1), (0, 1, 0), 3) == (F(0), F(0), F(0))


def test_operator_satisfies_its_toeplitz_algebra(micro3):
    # (sum a_i S^i)(sum b_j S^j) acts like the truncated convolution
    a, b = (F(2), F(1), F(0)), (F(1), F(-1), F(3))
    x = synthesize(micro3, {0: F(1), 9: F(1, 2), 27: F(-1)})

    def poly(lambdas, y):
        terms = [s_apply_power(micro3, y, i).scaled(lam) for i, lam in enumerate(lambdas)]
        return reduce(Vector.plus, terms)

    twice = poly(b, poly(a, x))
    once = poly(truncated_poly_product(a, b, 3), x)
    assert twice.coords == once.coords


# -- separating witnesses --------------------------------------------------------


def test_witness_family_zero_reads_off_lambda_zero(micro3):
    assert compact_witness(micro3, 0, 2, 3, (F(5),)) == 10
    assert compact_witness(micro3, 0, 2, 3, (F(-7, 3), F(99))) == F(14, 3)


def test_witness_families_expose_partial_sums(micro3):
    lam = (F(1), F(-3, 2), F(2))
    assert compact_witness(micro3, 0, 2, 3, lam) == 2
    assert compact_witness(micro3, 1, 2, 3, lam) == 5
    assert compact_witness(micro3, 2, 2, 3, lam) == 9
    # consecutive families differ by exactly 2|lambda_j|
    assert compact_witness(micro3, 1, 2, 3, lam) - compact_witness(
        micro3, 0, 2, 3, lam
    ) == 2 * abs(lam[1])


def test_witnesses_work_at_every_nilpotency_degree():
    u = build_universe(micro_config(k=2, horizon=3))
    lam = (F(1, 2), F(4))
    assert compact_witness(u, 1, 2, 3, lam) == 9
    assert compact_witness(u, 0, 3, 2, lam) == 1


def test_witness_requires_distinct_ranks(micro3):
    with pytest.raises(UniverseError, match="ranks must differ"):
        compact_witness(micro3, 0, 2, 2, (1,))


def test_witness_unavailable_on_empty_net():
    u = build_universe(micro_config(horizon=2, max_support=0))
    with pytest.raises(UniverseError, match="not materialized"):
        witness_id(u, 2, 0)
