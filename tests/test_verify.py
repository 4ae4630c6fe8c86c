from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from bdlab import sequences, verify
from bdlab.algebra import (
    D_BASIS,
    CodingRows,
    Functional,
    Vector,
    coding_rows,
    evaluation_analysis,
    row_store,
    to_e_basis,
)
from bdlab.config import RELAXED, desk_relaxed, desk_strict
from bdlab.elements import BASE, TYPE1, TYPE2, BFunctional, describe, t1_candidate
from bdlab.sequences import IDENTITY, build_dependent_sequence
from bdlab.shift import witness_id
from bdlab.universe import Universe, UniverseError, build_universe
from bdlab.verify import (
    SUITE_ORDER,
    _heaviest_windows,
    _window_column,
    run_functional_suite,
    run_gamma_suite,
    run_sequence_suite,
    run_verification,
)
from conftest import make_config, micro_config, small_universes
from oracles import (
    per_form_analysis_check,
    sampled_compact_differences,
    store_to_d,
    sweep_heaviest_windows,
)


@pytest.fixture(scope="module")
def strict_report():
    return run_verification(desk_strict())


@pytest.fixture(scope="module")
def relaxed_report():
    return run_verification(desk_relaxed())


def test_strict_report_is_clean(strict_report):
    assert not strict_report.has_fail
    assert [s.name for s in strict_report.suites] == list(SUITE_ORDER)
    assert all(s.status == "PASS" for s in strict_report.suites)
    assert strict_report.element_count == 60


def test_relaxed_report_warns_without_failing(relaxed_report):
    assert not relaxed_report.has_fail
    warned = {
        (s.name, c.name)
        for s in relaxed_report.suites
        for c in s.checks
        if c.status == "WARN"
    }
    # the dense net loses the canonical witnesses and the short n-ladder
    # cannot clear the odd-weight magnitude bar; both degrade to WARN
    assert warned == {
        ("shift", "compact difference family exposes each scalar"),
        ("sequence", "linked chain of length one"),
    }
    assert not any(
        c.status == "FAIL" for s in relaxed_report.suites for c in s.checks
    )


def test_missing_witnesses_fail_under_a_singleton_net():
    report = run_verification(micro_config(horizon=3, level_cap=1))
    assert report.has_fail
    shift = next(s for s in report.suites if s.name == "shift")
    assert shift.status == "FAIL"
    failing = [c for c in shift.checks if c.status == "FAIL"]
    assert ["compact difference family exposes each scalar"] == [c.name for c in failing]
    assert "witness family unavailable" in failing[0].detail


@pytest.mark.parametrize("net, status", [((1, 1), "FAIL"), ((2, 2), "WARN")])
def test_missing_witnesses_are_graded_by_the_net_in_either_regime(net, status):
    # the strict regime does not make an unavailable witness family a FAIL:
    # only the singleton net guarantees the family
    cfg = micro_config(
        horizon=3,
        level_cap=1,
        n_seq=(16, 2**32),
        regime="strict",
        max_support=net[0],
        denominator_bound=net[1],
    )
    shift = run_verification(cfg, suites=["shift"]).suites[0]
    check = next(c for c in shift.checks if c.name.startswith("compact difference"))
    assert (check.status, shift.status) == (status, status)
    assert "witness family unavailable" in check.detail


def test_shallow_sequence_suite_reports_info_and_passes():
    report = run_verification(micro_config(horizon=3), suites=["sequence"])
    suite = report.suites[0]
    assert [(c.name, c.status) for c in suite.checks] == [("sequence laboratory", "INFO")]
    assert suite.status == "PASS" and not report.has_fail


def test_suite_filter_and_order():
    report = run_verification(micro_config(), suites=["shift", "gamma"])
    assert [s.name for s in report.suites] == ["gamma", "shift"]


def test_unknown_suite_is_rejected():
    with pytest.raises(UniverseError, match="unknown suites: nope"):
        run_verification(micro_config(), suites=["nope"])


def test_report_payload_shape(strict_report):
    payload = strict_report.to_json_dict()
    assert payload["schema"] == "bdlab.verify/1"
    assert payload["result"] == "PASS"
    assert "timings" not in payload
    assert payload["level_counts"] == {"1": 3, "2": 7, "3": 24, "4": 26}
    lines = strict_report.text_lines()
    assert lines[0] == "elements: 60"
    assert lines[-1] == "result: PASS"


def test_timings_are_opt_in():
    with_clock = run_verification(micro_config(), timings=True)
    assert with_clock.timings is not None
    assert set(with_clock.timings) == set(SUITE_ORDER)
    assert "timings" in with_clock.to_json_dict()


def test_sequence_suite_growth_is_disclosed(strict_report):
    assert any("sequence suite grew the universe" in n for n in strict_report.notes)


def test_gamma_suite_fails_order_checks_after_interior_interns():
    # gamma grades a universe as it stands: an element interned below the
    # top rank breaks the enumeration order, and no check excuses or skips it
    u = build_universe(micro_config(horizon=3))
    u.intern(t1_candidate(2, 0, 2, BFunctional.zero()))
    suite = run_gamma_suite(u)
    assert suite.status == "FAIL"
    failed = {c.name: c.detail for c in suite.checks if c.status == "FAIL"}
    assert set(failed) == {
        "numbering dominates lower ranks", "membership separated by rank", "rebuild determinism"
    }
    assert failed["numbering dominates lower ranks"] == "rank 3 numbering does not clear rank 2"
    assert failed["membership separated by rank"] == "membership overlap between ranks at 3"
    assert failed["rebuild determinism"] == f"fingerprint {u.fingerprint()[:16]}..."
    assert all(c.status == "PASS" for c in suite.checks if c.name not in failed)


def heaviest_windows(u):
    return _heaviest_windows((g, _window_column(u, g)) for g in u.ids())


@pytest.mark.parametrize("factory", [desk_strict, desk_relaxed])
def test_window_masses_match_one_basis_change_per_window(factory):
    u = build_universe(factory())
    assert heaviest_windows(u) == sweep_heaviest_windows(u)


@settings(
    max_examples=20,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_universes())
def test_window_maxima_and_notes_match_the_sweep_on_small_configs(u):
    assert heaviest_windows(u) == sweep_heaviest_windows(u)


def test_window_tie_goes_to_the_first_window_then_the_smallest_gid():
    # Column 0 reaches mass 3 only on (1, top]; columns 1 and 2 reach it on
    # (0, top], which comes first, so the witness is the smaller of them,
    # not the first column that reached the maximum.  On the initial
    # windows column 0 tops out at 2, and column 2 reaches 3 on (0, 2],
    # before column 1 does on (0, 3].  Each column has its own denominator,
    # so equal masses have different numerators.
    columns = [
        (0, (5, {1: [(10, -5)], 2: [(10, 5), (11, 10)]})),
        (1, (2, {3: [(20, 6)]})),
        (2, (3, {2: [(30, -9)]})),
    ]
    assert _heaviest_windows(columns) == (
        (Fraction(3), "window (0, 2] at element 2"),
        (Fraction(3), "window (0, top] at element 1"),
    )
    assert _heaviest_windows([]) == ((0, ""), (0, ""))


@pytest.mark.parametrize("regime, status", [("relaxed", "WARN"), ("strict", "FAIL")])
def test_initial_projection_bound_is_graded_as_a_magnitude(regime, status):
    # m_1 = 1 turns the bound 1/(1 - 2/m_1) into -1, which no column mass
    # meets; validation would refuse such a config, so it is set directly
    cfg = micro_config(horizon=3)._replace(m_seq=(Fraction(1), Fraction(16)), regime=regime)
    suite = run_functional_suite(build_universe(cfg))
    check = next(c for c in suite.checks if c.name.startswith("initial projections"))
    assert check.status == status
    assert check.detail == "max column mass 1 <= -1 (window (0, 1] at element 0)"


# -- proofs over a basis -----------------------------------------------------------


def proof(check, u):
    return check(u)


def violation(u, gid, count=1):
    return f"{count} of {len(u)} elements violate it; first {describe(u.element(gid))}"


def interior_used(u):
    """The first element with a nonzero coding row that other rows mention."""
    store = coding_rows(u)
    return next(g for g in u.ids() if store.num[g] and store.users[g])


def corrupt_row(u, gid, h):
    """Add 1 at h to the stored coding row of gid: the row's numerator at h
    grows by the row's denominator."""
    store = coding_rows(u)
    row = dict(store.num[gid])
    row[h] = row.get(h, 0) + store.den[gid]
    store.num[gid] = row


@pytest.mark.parametrize("where", ["top", "interior"])
def test_pushforward_wrong_at_one_element_fails_both_proofs(where, strict_universe, monkeypatch):
    # the faulty pushforward also keeps the coordinate at gid where it was
    u = strict_universe
    gid = len(u) - 1 if where == "top" else interior_used(u)
    assert coding_rows(u).num[gid]
    real = verify.s_star

    def s_star(universe, f):
        out = real(universe, f)
        if gid not in f.coords:
            return out
        return out.plus(Functional(f.basis, {gid: f.coords[gid]}))

    monkeypatch.setattr(verify, "s_star", s_star)
    assert proof(verify._adjoint, u) == (False, violation(u, gid))
    # the d*-unit at gid fails, and so does each d*-unit whose row uses gid;
    # those come later in id order
    users = row_store(u).users[gid]
    assert (where == "top") == (not users)
    assert proof(verify._basis_change, u) == (False, violation(u, gid, 1 + len(users)))


@pytest.mark.parametrize("where", ["top", "interior"])
def test_pullback_wrong_at_one_element_fails_the_adjoint_proof(where, strict_universe, monkeypatch):
    u = strict_universe
    gid = len(u) - 1 if where == "top" else len(u) // 2
    real = verify.s_apply

    def s_apply(universe, x):
        out = real(universe, x)
        if gid not in x.coords:
            return out
        return out.plus(Vector({gid: x.coords[gid]}, x.horizon))

    monkeypatch.setattr(verify, "s_apply", s_apply)
    assert proof(verify._adjoint, u) == (False, violation(u, gid))
    assert proof(verify._basis_change, u) == (True, f"exhaustive over {len(u)} elements")


def test_corrupted_coding_row_fails_the_basis_change_proof():
    u = build_universe(desk_strict())
    # an element with an image, no preimages and a nonzero row: its d*-unit
    # is the only one whose check reads that row
    gid = next(
        g
        for g in u.ids()
        if u.f_image_of(g) is not None and not u.f_preimages_of(g) and coding_rows(u).num[g]
    )
    h = next(
        h
        for h in u.ids()
        if u.element(h).rank < u.element(gid).rank and u.f_image_of(h) is not None
    )
    assert proof(verify._basis_change, u) == (True, f"exhaustive over {len(u)} elements")
    corrupt_row(u, gid, h)
    assert proof(verify._basis_change, u) == (False, violation(u, gid))
    assert proof(verify._adjoint, u)[0]  # the shift table is untouched


def test_preimage_table_out_of_step_with_the_images_fails_the_adjoint_proof():
    u = build_universe(desk_strict())
    gid = next(g for g in u.ids() if u.f_image_of(g) is not None)
    image = u.f_image_of(gid)
    u._f_image[gid] = None  # the preimage table still lists gid under its image
    assert proof(verify._adjoint, u) == (False, violation(u, image))


def shift_check(u, name):
    """The outcome of one single-outcome shift-suite check."""
    check = next(e for e in verify._SHIFT if getattr(e, "name", None) == name)
    [(_, _, ok, detail)] = check(u)
    return ok, detail


@pytest.mark.parametrize("corruption", ["stale", "missing"])
def test_preimage_table_out_of_step_with_the_images_fails_the_table_laws(corruption):
    u = build_universe(desk_strict())
    gid = next(g for g in u.ids() if u.f_image_of(g) is not None)
    image = u.f_image_of(gid)
    if corruption == "stale":
        u._f_image[gid] = None  # the preimage table still lists gid under its image
        expected = f"stale preimage {gid} recorded under {image}"
    else:
        u._f_preimages[image].remove(gid)
        expected = f"preimage table misses {gid} -> {image}"
    assert shift_check(u, "combinatorial table laws") == (False, expected)


@pytest.mark.parametrize("fault", ["keep", "drop"])
def test_tail_restriction_wrong_at_one_element_and_cut_fails_tail_commutation(
    fault, strict_universe, monkeypatch
):
    # For each element with an image, a faulty restriction keeps its
    # d*-coordinate at the cut equal to its rank, or drops it at the cut
    # just below.  The first witness is the element or one of its
    # preimages, whose pushforward lands on it.
    u = strict_universe
    name = "pushforward commutes with tail restriction"
    real = verify.project_star
    offset, sign = (0, 1) if fault == "keep" else (-1, -1)
    assert shift_check(u, name) == (True, "")
    for gid in u.ids():
        if u.f_image_of(gid) is None:
            continue
        cut = u.element(gid).rank + offset

        def project_star(universe, lo, hi, f, gid=gid, cut=cut):
            out = real(universe, lo, hi, f)
            d = f.coords if f.basis == D_BASIS else store_to_d(universe, f.coords)
            kept = d.get(gid)
            if lo != cut or not kept:
                return out
            extra = Functional(D_BASIS, {gid: sign * kept})
            return out.plus(extra if out.basis == D_BASIS else to_e_basis(universe, extra))

        monkeypatch.setattr(verify, "project_star", project_star)
        first = min((gid, *u.f_preimages_of(gid)))
        assert shift_check(u, name) == (False, f"element {first} at cut {cut}")


def test_convolution_wrong_on_one_unit_pair_fails_the_matrix_model(strict_universe, monkeypatch):
    u = strict_universe
    k = u.config.k
    units = [tuple(Fraction(int(i == t)) for i in range(k)) for t in range(k)]
    name = "scalar matrix model is multiplicative and nilpotent"
    real = verify.truncated_poly_product
    assert shift_check(u, name) == (True, "")
    for pair in [(a, b) for a in units for b in units]:

        def truncated_poly_product(a, b, k, pair=pair):
            out = real(a, b, k)
            return out if (tuple(a), tuple(b)) != pair else (out[0] + 1, *out[1:])

        monkeypatch.setattr(verify, "truncated_poly_product", truncated_poly_product)
        assert shift_check(u, name) == (False, "")


def compact_check(u):
    [(_, kind, ok, detail)] = verify._compact_differences(u)
    return kind, ok, detail


@st.composite
def singleton_universes(draw):
    """Small singleton-net universes under level caps that may lose
    witnesses, or uncapped up to horizon 3: k 2-4, horizon 2-5."""
    horizon = draw(st.integers(min_value=2, max_value=5))
    cfg = micro_config(
        k=draw(st.integers(min_value=2, max_value=4)),
        horizon=horizon,
        m_seq=(4, 16, 64, 256),
        n_seq=(16, 18, 20, 22),
        level_cap=draw(st.sampled_from([4, 12, 24] + [0] * (horizon <= 3))),
    )
    return build_universe(cfg)


@settings(
    max_examples=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(singleton_universes())
def test_compact_proof_agrees_with_the_sampled_sweep(u):
    kind, ok, detail = compact_check(u)
    available, sampled_ok, sampled_detail = sampled_compact_differences(u)
    event(f"available {available}, ok {ok}")
    assert (kind == verify.NET) == (not available)
    assert ok == sampled_ok
    if not available:
        assert detail == sampled_detail  # the same first missing witness
    else:
        k, pairs = u.config.k, max(u.max_rank - 2, 0)
        assert detail == f"{k * k * pairs} exact differences"


def test_compact_proof_calls_the_witness_once_per_unit_and_consecutive_pair(
    strict_universe, monkeypatch
):
    calls = []
    real = verify.compact_witness

    def counted(universe, j, rank_n, rank_m, lambdas):
        calls.append((j, rank_n, rank_m))
        return real(universe, j, rank_n, rank_m, lambdas)

    monkeypatch.setattr(verify, "compact_witness", counted)
    assert compact_check(strict_universe) == (IDENTITY, True, "18 exact differences")
    assert len(calls) == 18 and all(m == n + 1 for _, n, m in calls)


def test_compact_witness_wrong_at_one_consecutive_pair_fails_the_proof(
    strict_universe, monkeypatch
):
    u = strict_universe
    real = verify.compact_witness
    for j in range(u.config.k):
        for rank in range(2, u.max_rank):

            def compact_witness(universe, jj, rank_n, rank_m, lambdas, target=(j, rank)):
                out = real(universe, jj, rank_n, rank_m, lambdas)
                return out + 1 if (jj, rank_n) == target else out

            monkeypatch.setattr(verify, "compact_witness", compact_witness)
            detail = f"family {j}, ranks ({rank}, {rank + 1}), unit scalar 0: 3 != 2"
            assert compact_check(u) == (IDENTITY, False, detail)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_witness_orbit_cut_one_step_short_fails_the_proof(rank):
    # The family-j witnesses at one rank form one orbit, w_(k-1) -> ... ->
    # w_0 -> nothing, so cutting w_1's image shortens every family j >= 1
    # there; family 1 is the first to fail, at the first pair that holds
    # the rank.
    u = build_universe(desk_strict())
    assert compact_check(u) == (IDENTITY, True, "18 exact differences")
    u._f_image[witness_id(u, rank, 1)] = None
    pair = (rank, rank + 1) if rank == 2 else (rank - 1, rank)
    detail = f"family 1, ranks {pair}, unit scalar 1: 1 != 2"
    assert compact_check(u) == (IDENTITY, False, detail)


def test_passing_proofs_count_the_basis(relaxed_universe):
    u = relaxed_universe
    for check in (verify._adjoint, verify._basis_change, verify._preimage_sums):
        assert proof(check, u) == (True, "exhaustive over 208 elements")


def scaled(coords, t):
    return {g: v * t for g, v in coords.items()}


def assert_extensions_cover_every_cut(u):
    """The proof passes, and its argument holds: at every cut q >= rank g,
    synthesizing d_g up to q and extending to the top is extending e_g from
    rank g, and reads off as e_g."""
    assert proof(verify._extensions, u) == (True, f"exhaustive over {len(u)} elements")
    rows, top = coding_rows(u), u.max_rank
    for g in u.ids():
        want, wq = rows.extend({g: 1}, 1, rows.rank[g], top)
        for q in range(rows.rank[g], top + 1):
            x, xq = rows.extend(*rows.synthesize({g: 1}, 1, q), q, top)
            assert scaled(x, wq) == scaled(want, xq), (g, q)
            coords, cq = rows.read_off(x, xq, top)
            assert coords == {g: cq}, (g, q)


@pytest.mark.parametrize("factory", [desk_strict, desk_relaxed])
def test_extensions_proof_covers_every_cut(factory):
    assert_extensions_cover_every_cut(build_universe(factory()))


@settings(
    max_examples=20,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_universes())
def test_extensions_proof_covers_every_cut_on_small_configs(u):
    assert_extensions_cover_every_cut(u)


@pytest.mark.parametrize(
    "fault, cut", [("datum", 1), ("datum", 2), ("datum", 3), ("datum", 4), ("tail", 1),
                   ("tail", 2), ("tail", 3)]
)
def test_extend_wrong_at_one_cut_fails_the_extensions_proof(fault, cut, monkeypatch):
    # At the one cut, the store's extend doubles the data it keeps (datum)
    # or drops every value above the cut (tail); every other cut is right.
    u = build_universe(desk_strict())
    rows, top = coding_rows(u), u.max_rank
    at_cut = [g for g in u.ids() if rows.rank[g] == cut]
    if fault == "datum":
        bad = at_cut
    else:
        bad = [g for g in at_cut if any(rows.rank[h] > cut for h in rows.synthesize({g: 1}, 1, top)[0])]
    assert bad
    real = CodingRows.extend

    def extend(self, data, q, c, hi):
        x, xq = real(self, data, q, c, hi)
        if c != cut:
            return x, xq
        if fault == "datum":
            return {g: 2 * v if self.rank[g] <= c else v for g, v in x.items()}, xq
        return {g: v for g, v in x.items() if self.rank[g] <= c}, xq

    monkeypatch.setattr(CodingRows, "extend", extend)
    first = describe(u.element(bad[0]))
    detail = f"{len(bad)} of {len(u)} elements violate it; first {first}"
    assert proof(verify._extensions, u) == (False, detail)


def odd_weight_scan(u):
    """(odd-weight elements whose analysis carries a b, odd-weight elements)."""
    odd = [g for g in u.ids() if u.element(g).odd_weight]
    carrying = [g for g in odd if any(s.b.terms for s in evaluation_analysis(u, g).steps)]
    return len(carrying), len(odd)


def test_odd_weight_check_counts_the_elements_that_carry_a_weight():
    # The capped enumeration admits no weight index 4, so no odd-weight
    # element carries a b and the check has nothing to compare; hand-interned
    # weight-4 elements give the odd-weight pools supports, and the elements
    # built on them show up in the count.
    u = Universe(
        micro_config(
            k=2, horizon=6, m_seq=(4, 16, 64, 256), n_seq=(16, 18, 20, 22), level_cap=12
        )
    )
    for rank in range(1, 5):
        u.enumerate_level(rank)
    carrying, odd = odd_weight_scan(u)
    assert carrying == 0 < odd
    assert proof(verify._carried_weights, u) == (
        True, f"0 of {odd} odd-weight elements carry a weight"
    )
    for p in range(3):
        for eta in [g for g in u.ids() if p < u.element(g).rank <= 3]:
            if u.element(eta).weight_idx % 2 == 0 and u.element(eta).weight_idx:
                u.intern(t1_candidate(4, p, 4, BFunctional.singleton(eta)))
    for rank in (5, 6):
        u.enumerate_level(rank)
    carrying, odd = odd_weight_scan(u)
    assert carrying > 0
    assert proof(verify._carried_weights, u) == (
        True, f"{carrying} of {odd} odd-weight elements carry a weight"
    )


def test_chain_and_gamma_check_read_one_carried_weight_rule():
    # A chain of length two carries weight indices 4 and 4 sigma(xi_1) = 40:
    # increasing indices, decreasing weights 1/m.  The chain's clause and the
    # gamma check agree that this is the paper's order.
    u = build_universe(
        micro_config(
            k=2,
            horizon=2,
            m_seq=tuple(2 ** (2 * j + 1) for j in range(1, 65)),
            n_seq=tuple(16 + 2 * (j - 1) for j in range(1, 65)),
            level_cap=4,
        )
    )
    cert = build_dependent_sequence(u, length=2)
    assert cert.weight_indices == (4, 40) and cert.identity_ok
    check = next(c for c in run_gamma_suite(u).checks if c.name.startswith("odd-weight"))
    assert (check.status, check.detail) == ("PASS", "2 of 3 odd-weight elements carry a weight")


def test_missing_witness_on_a_singleton_net_advises_only_a_larger_cap():
    # A singleton net whose level cap hides a witness: naming a singleton-net
    # config there would send the reader to the config they already have.
    cfg = make_config(
        k=2, m_seq=(4, 8), n_seq=(3, 7), horizon=3, max_support=1, denominator_bound=1,
        level_cap=4, regime=RELAXED,
    )
    assert cfg.singleton_net
    kind, ok, detail = compact_check(build_universe(cfg))
    assert (kind, ok) == (verify.NET, False)
    assert detail.endswith("not materialized; use a larger level cap")
    kind, ok, detail = compact_check(build_universe(desk_relaxed()))
    assert (kind, ok) == (verify.NET, False)
    assert detail.endswith("not materialized; use a singleton-net config or a larger level cap")


@pytest.mark.parametrize("factory", [desk_strict, desk_relaxed])
def test_analysis_check_matches_the_per_form_oracle(factory):
    u = build_universe(factory())
    assert proof(verify._analysis_forms, u) == per_form_analysis_check(u) == (True, "")


@settings(
    max_examples=20,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_universes())
def test_analysis_check_matches_the_per_form_oracle_on_small_configs(u):
    assert proof(verify._analysis_forms, u) == per_form_analysis_check(u)


@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_corrupted_analysis_piece_names_the_last_affected_form(kind):
    # Corrupting the row of a chain element xi of age a changes d*_xi, the
    # last piece of xi's own analysis: both full forms of xi differ, and so
    # does every partial form, of which partial form a-1 is the last.  No
    # element below xi reads that row, so xi is the first witness.
    u = build_universe(desk_relaxed())
    xi = next(g for g in u.ids() if u.element(g).kind == kind)
    age = evaluation_analysis(u, xi).age
    h = next(g for g in u.ids() if u.element(g).kind == BASE)
    corrupt_row(u, xi, h)
    last = f"partial form {age - 1}" if age > 1 else "full form"
    expected = (False, f"{last} differs at element {xi}")
    assert per_form_analysis_check(u) == expected
    assert proof(verify._analysis_forms, u) == expected


@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_combination_above_its_cut_breaks_only_the_unwindowed_form(kind):
    # A combination term at an element eta above xi's own cut, with an empty
    # coding row, adds e*_eta to the unwindowed piece of xi and leaves the
    # windowed one alone, so only the unwindowed full form of xi differs.
    u = build_universe(desk_relaxed())
    xi = next(g for g in u.ids() if u.element(g).kind == kind)
    rows = coding_rows(u)  # rows are synced before the corruption
    el = u.element(xi)
    eta = next(g for g in u.ids() if u.element(g).rank > el.rank and not rows.num[g])
    u.elements[xi] = el._replace(b=BFunctional.from_dict({**dict(el.b.items()), eta: Fraction(1)}))
    expected = (False, f"full form differs at element {xi}")
    assert per_form_analysis_check(u) == expected
    assert proof(verify._analysis_forms, u) == expected


def test_sequence_suite_searches_the_base_vector_once(monkeypatch):
    # The guard's search on the base basis vector also feeds its estimate and
    # the witness outcome; the zero sequence's estimate makes the other call.
    searched = []
    search = sequences.lower_bound_search

    def counted(universe, xs, j):
        searched.append(bool(xs[0].coords))
        return search(universe, xs, j)

    monkeypatch.setattr(sequences, "lower_bound_search", counted)
    monkeypatch.setattr(verify, "lower_bound_search", counted)
    suite = run_sequence_suite(build_universe(desk_strict()))
    assert sorted(searched) == [False, True]
    assert any(c.name == "lower-bound witness search" for c in suite.checks)
