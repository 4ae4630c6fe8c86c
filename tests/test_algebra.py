from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdlab.algebra import (
    AlgebraError,
    Functional,
    b_as_functional,
    d_coords_of,
    d_vector,
    e_star,
    evaluation_analysis,
    extend,
    l1_norm,
    pairing,
    project_star,
    sup_norm,
    synthesize,
    to_e_basis,
    vector_range,
)
from bdlab.elements import BASE, BFunctional, t1_candidate, t2_candidate
from bdlab.universe import DanglingReference, build_universe
from conftest import micro_config
from oracles import (
    analysis_functional,
    dstar_matrix,
    functional_column,
    project_vector,
    solve_exact,
    store_to_d,
    stored_row,
    transpose,
    unit_column,
)

half = Fraction(1, 2)
F = Fraction


@pytest.fixture(scope="module")
def micro2():
    return build_universe(micro_config(horizon=2))


@pytest.fixture(scope="module")
def micro3():
    return build_universe(micro_config(horizon=3))


# -- hand-computed coding functionals ------------------------------------------
#
# In the micro universe, id 3 is the empty odd-weight element and id 4 the
# even-weight element carrying -e*_0, so:
#   c*_3 = (1/4) * 0            = 0
#   c*_4 = (1/16) * (-e*_0)     = -(1/16) e*_0
# and the dual-basis rows follow as d* = e* - c*.


def dual_row(u, gid: int) -> Functional:
    """d*_gid in e*-coordinates."""
    return to_e_basis(u, Functional("d*", {gid: F(1)}))


def test_base_elements_have_zero_coding_functional(micro2):
    for j in range(3):
        assert stored_row(micro2, j) == {}


def test_coding_functional_of_empty_combination_is_zero(micro2):
    assert stored_row(micro2, 3) == {}
    assert dual_row(micro2, 3) == e_star(3)


def test_coding_functional_of_carried_singleton_by_hand(micro2):
    assert stored_row(micro2, 4) == {0: F(-1, 16)}
    assert dual_row(micro2, 4) == Functional("e*", {4: F(1), 0: F(1, 16)})
    assert store_to_d(micro2, {4: F(1)}) == {4: F(1), 0: F(-1, 16)}


@pytest.mark.parametrize("read", [
    lambda u: project_star(u, 0, None, e_star(-1)),
    lambda u: project_star(u, 0, None, Functional("d*", {-1: F(1)})),
    lambda u: to_e_basis(u, Functional("d*", {-1: F(1)})),
])
def test_negative_ids_are_dangling_references(micro2, read):
    with pytest.raises(DanglingReference):
        read(micro2)


def test_age_extension_coding_functional_by_hand():
    # A fresh age-2 element anchored at id 4, carrying e*_eta for a rank-3
    # element eta that itself carries e*_0.  The window (2, oo) projection
    # must strip eta's rank-1 component:
    #   c* = e*_4 + (1/16) (e*_eta - (1/16) e*_0)
    u = build_universe(micro_config(horizon=3))
    eta = u.lookup(t1_candidate(3, 0, 2, BFunctional.singleton(0)))
    assert eta is not None
    gid = u.intern(t2_candidate(4, 4, 2, BFunctional.singleton(eta)))
    assert stored_row(u, gid) == {4: F(1), eta: F(1, 16), 0: F(-1, 256)}


def test_biorthogonal_vectors_by_hand(micro2):
    # d_0 must cancel the coding contributions of the two elements that
    # carry +-e*_0 and touch nothing else at this horizon.
    neg, pos = 4, 5
    assert d_vector(micro2, 0).coords == {0: F(1), neg: F(-1, 16), pos: F(1, 16)}
    assert d_vector(micro2, 3).coords == {3: F(1)}


# -- exhaustive biorthogonality on the bigger micro universe ---------------------


def test_biorthogonality_exhaustive(micro3):
    vectors = [d_vector(micro3, gid) for gid in micro3.ids()]
    rows = [dual_row(micro3, gid) for gid in micro3.ids()]
    for i, row in enumerate(rows):
        for j, vec in enumerate(vectors):
            expected = F(1) if i == j else F(0)
            assert pairing(micro3, row, vec) == expected


def test_d_coords_inverts_synthesize(micro3):
    data = {0: F(3), 7: F(-1, 2), 11: F(5, 3)}
    x = synthesize(micro3, data)
    assert d_coords_of(micro3, x) == data


# -- independent dense elimination oracle ----------------------------------------


def test_change_of_basis_matches_dense_elimination(micro3):
    matrix = dstar_matrix(micro3)
    mt = transpose(matrix)
    samples = [e_star(g) for g in micro3.ids()]
    samples.append(Functional("e*", {0: F(2), 9: F(-7, 3), 30: half}))
    samples.append(Functional("e*", {g: F(1) for g in micro3.ids()}))
    for f in samples:
        expected = solve_exact(mt, functional_column(micro3, f))
        got = store_to_d(micro3, f.coords)
        assert got == {g: c for g, c in enumerate(expected) if c != 0}
        assert to_e_basis(micro3, Functional("d*", got)) == f


def test_biorthogonal_vectors_match_dense_elimination(micro3):
    matrix = dstar_matrix(micro3)
    n = len(micro3)
    for gid in micro3.ids():
        expected = solve_exact(matrix, unit_column(n, gid))
        got = d_vector(micro3, gid)
        assert got.coords == {g: c for g, c in enumerate(expected) if c != 0}


# -- projections -----------------------------------------------------------------


def test_full_window_projection_is_identity(micro3):
    f = Functional("e*", {0: F(1), 12: F(-2, 5), 40: F(3)})
    assert project_star(micro3, 0, None, f) == f
    assert project_star(micro3, 0, micro3.max_rank, f) == f


def test_window_projections_partition_the_identity(micro3):
    f = Functional("e*", {2: F(1), 8: half, 25: F(-4, 3)})
    for q in range(1, micro3.max_rank):
        low = project_star(micro3, 0, q, f)
        high = project_star(micro3, q, None, f)
        assert low.plus(high) == f
        assert not project_star(micro3, 0, q, high).coords


def test_initial_projection_norm_by_hand(micro2):
    # every dual-basis row is affected by at most the 1/16-mass correction,
    # so the initial window at q = 1 has exact operator norm 1
    norm = max(l1_norm(micro2, project_star(micro2, 0, 1, e_star(g))) for g in micro2.ids())
    assert norm == 1


def test_initial_projection_norms_bounded(micro3):
    bound = 1 / (1 - 2 * micro3.config.weight(1))
    assert bound == 2
    for q in range(1, micro3.max_rank + 1):
        norm = max(l1_norm(micro3, project_star(micro3, 0, q, e_star(g))) for g in micro3.ids())
        assert norm <= bound


def test_projection_adjoint_to_vector_projection(micro3):
    x = synthesize(micro3, {1: F(2), 6: F(-1, 3), 20: F(1)})
    for f in (e_star(0), e_star(15), Functional("e*", {4: F(1), 33: half})):
        for lo, hi in ((0, 1), (1, 2), (2, 3), (0, 3)):
            lhs = pairing(micro3, project_star(micro3, lo, hi, f), x)
            rhs = pairing(micro3, f, project_vector(micro3, lo, hi, x))
            assert lhs == rhs


# -- evaluation analyses ----------------------------------------------------------


def test_analysis_reconstructs_every_element(micro3):
    for gid in micro3.ids():
        if micro3.element(gid).kind == BASE:
            continue
        analysis = evaluation_analysis(micro3, gid)
        assert analysis.age == micro3.element(gid).age
        cuts = analysis.cut_points()
        assert cuts == sorted(cuts)
        for windowed in (True, False):
            assert analysis_functional(micro3, analysis, windowed) == e_star(gid)


def test_partial_analysis_forms_agree():
    u = build_universe(micro_config(horizon=3))
    eta = u.lookup(t1_candidate(3, 0, 2, BFunctional.singleton(4)))
    gid = u.intern(t2_candidate(5, eta, 2, BFunctional.zero()))
    analysis = evaluation_analysis(u, gid)
    assert analysis.age == 2
    assert [s.xi for s in analysis.steps] == [eta, gid]
    for start in range(analysis.age):
        for windowed in (True, False):
            assert analysis_functional(u, analysis, windowed, start) == e_star(gid)
    with pytest.raises(AlgebraError):
        analysis_functional(u, analysis, True, analysis.age)


def test_base_elements_have_no_analysis(micro3):
    with pytest.raises(AlgebraError):
        evaluation_analysis(micro3, 0)


# -- extensions and ranges ---------------------------------------------------------


def test_extension_matches_data_below_the_cut(micro3):
    data = {0: F(1), 5: F(-3, 2), 9: F(2)}
    x = extend(micro3, data, 2)
    for gid in [g for g in micro3.ids() if micro3.element(g).rank <= 2]:
        assert x.at(gid) == data.get(gid, F(0))
    assert all(micro3.element(g).rank <= 2 for g in d_coords_of(micro3, x))


def test_extension_reproduces_spanned_vectors(micro3):
    x = synthesize(micro3, {3: F(1), 8: F(-1, 4)})
    clipped = {g: x.at(g) for g in micro3.ids() if micro3.element(g).rank <= 2}
    again = extend(micro3, clipped, 2)
    assert again.coords == x.coords


def test_vector_range_and_norms(micro3):
    x = synthesize(micro3, {7: F(1)})
    rng = vector_range(micro3, x)
    assert rng is not None and rng[0] >= 2
    assert sup_norm(x) >= 1
    zero = synthesize(micro3, {})
    assert vector_range(micro3, zero) is None
    assert sup_norm(zero) == 0


def test_pairing_guards_the_horizon(micro3):
    tall = e_star(micro3.level(3)[0])
    x = d_vector(micro3, 0, horizon=2)
    with pytest.raises(AlgebraError):
        pairing(micro3, tall, x)


def test_l1_norm_converts_to_summable_side(micro2):
    f = Functional("d*", {4: F(1)})
    # d*_4 = e*_4 + (1/16) e*_0
    assert l1_norm(micro2, f) == F(17, 16)
    assert l1_norm(micro2, b_as_functional(BFunctional.singleton(0, -1))) == 1


# -- property: change of basis is a linear bijection -------------------------------

coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda q: q != 0)


@st.composite
def functionals(draw, basis: str = "e*") -> Functional:
    support = draw(st.lists(st.integers(min_value=0, max_value=9), max_size=4))
    return Functional(basis, {g: draw(coeffs) for g in support})


@settings(max_examples=60, deadline=None)
@given(functionals())
def test_basis_round_trip(micro2, f: Functional):
    assert to_e_basis(micro2, Functional("d*", store_to_d(micro2, f.coords))) == f


@settings(max_examples=60, deadline=None)
@given(functionals("d*"))
def test_basis_round_trip_other_way(micro2, g: Functional):
    assert Functional("d*", store_to_d(micro2, to_e_basis(micro2, g).coords)) == g


@settings(max_examples=40, deadline=None)
@given(functionals(), functionals())
def test_change_of_basis_is_linear(micro2, f: Functional, g: Functional):
    d = lambda h: Functional("d*", store_to_d(micro2, h.coords))
    assert d(f.plus(g)) == d(f).plus(d(g))
