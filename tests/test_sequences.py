from __future__ import annotations

from fractions import Fraction

import pytest

from bdlab import sequences, verify
from bdlab.algebra import Vector, d_coords_of, d_vector, evaluation_analysis, synthesize
from bdlab.elements import BFunctional
from bdlab.sequences import (
    ConstructionFailure,
    SupplierExhausted,
    _step_pair,
    block_sequence,
    build_dependent_sequence,
    build_exact_pair,
    build_shifted_exact_pair,
    check_exact_pair,
    estimate_alternating_sums,
    estimate_dependent_average,
    estimate_interval_sums,
    estimate_lower_bound,
    estimate_ris_averages,
    estimate_ris_weighted_averages,
    greedy_j_seq,
    helper_pair_parts,
    lower_bound_search,
    minimal_ris_constant,
    shifted_sequence,
    validate_ris,
    worst_status,
)
from bdlab.cli import main
from bdlab.config import desk_strict
from bdlab.universe import build_universe
from conftest import micro_config
from oracles import scan_weight_decay_violations

F = Fraction

# m-ladder long enough for a two-step linked chain (the second step needs
# weight index 4 * sigma(first element) = 56) whose first step also clears
# the odd-weight magnitude bar m[4] > n[1]^2 = 256.
STEEP_M = (4, 16, 64, 257) + tuple(range(258, 320))
SHALLOW_M = tuple(range(4, 70))


def steep_universe():
    cfg = micro_config(
        m_seq=STEEP_M, n_seq=tuple(range(16, 16 + len(STEEP_M))), horizon=2
    )
    return build_universe(cfg)


# -- block sequences and the rapid-increase certificate ---------------------------


def test_block_structure_flags():
    u = build_universe(micro_config(horizon=3))
    rank3 = u.level(3)[15]
    seq = block_sequence(u, [d_vector(u, 3), d_vector(u, rank3)])
    assert seq.ranges == ((2, 2), (3, 3))
    assert seq.is_block and not seq.is_skipped
    single = block_sequence(u, [d_vector(u, 3)])
    assert single.is_skipped


def test_greedy_index_sequence_clears_each_range():
    u = build_universe(micro_config(horizon=3))
    seq = block_sequence(u, [d_vector(u, 3), d_vector(u, u.level(3)[15])])
    assert greedy_j_seq(seq) == (1, 3)


def test_ris_certificate_at_minimal_constant():
    u = build_universe(micro_config(horizon=3))
    seq = block_sequence(u, [d_vector(u, 3), d_vector(u, u.level(3)[15])])
    minimal = minimal_ris_constant(u, seq)
    assert minimal == 16
    assert validate_ris(u, seq, minimal).certifies
    squeezed = validate_ris(u, seq, minimal / 2)
    assert not squeezed.certifies
    assert any(v.startswith("(3) weight decay") for v in squeezed.violations)


def test_ris_weight_decay_violations_come_in_id_order(relaxed_universe):
    u = relaxed_universe
    weighted = [g for g in u.ids() if u.element(g).weight_idx]
    xs = [
        Vector({g: F(1) for g in weighted[::2]}, u.max_rank),
        Vector({g: F(-2, 3) for g in weighted[1::3]}, u.max_rank),
    ]
    constant, js = F(1, 10**6), (5, 6)
    cert = validate_ris(u, block_sequence(u, xs), constant, j_seq=js)
    decay = [v for v in cert.violations if v.startswith("(3)")]
    assert decay == scan_weight_decay_violations(u, xs, constant, js)
    # weight classes interleave in id order, so a per-class order would differ
    first = [u.element(g).weight_idx for g in sorted(xs[0].coords)]
    assert first != sorted(first) and len(decay) > 100


def test_ris_violations_name_structure_problems():
    u = build_universe(micro_config(horizon=3))
    out_of_order = [d_vector(u, u.level(3)[15]), d_vector(u, 3)]
    cert = validate_ris(u, block_sequence(u, out_of_order), 100, j_seq=(1, 2))
    assert any("block structure" in v for v in cert.violations)
    flat = validate_ris(
        u, block_sequence(u, [d_vector(u, 3), d_vector(u, 9)]), 100, j_seq=(2, 2)
    )
    assert any("index growth" in v for v in flat.violations)


def test_shifted_sequence_applies_the_operator():
    u = build_universe(micro_config(horizon=3))
    seq = block_sequence(u, [d_vector(u, 0)])
    shifted = shifted_sequence(u, seq)
    assert len(shifted.vectors) == 1
    preimage_sum = synthesize(u, {})
    for g in u.f_preimages_of(0):
        preimage_sum = preimage_sum.plus(d_vector(u, g))
    assert shifted.vectors[0].coords == preimage_sum.coords


@pytest.mark.parametrize("count", [1, 3])
def test_block_sequences_copy_and_compare_as_records(count):
    u = build_universe(micro_config(horizon=3))
    seq = block_sequence(u, [d_vector(u, g) for g in range(count)])
    assert len(seq.vectors) == count and len(seq) == len(seq._fields)
    assert seq._replace(ranges=seq.ranges) == seq
    shifted = shifted_sequence(u, seq)
    assert seq._replace(vectors=shifted.vectors).vectors == shifted.vectors


# -- exact pair construction ---------------------------------------------------------


def test_pair_construction_by_hand():
    u = build_universe(micro_config(horizon=3))
    xs, cuts, bs = helper_pair_parts(u, 1)
    built = build_exact_pair(u, xs, cuts, bs, 1)
    assert built.identity_ok
    assert built.cuts == (4, 6)
    assert built.chain == (48,) and built.eta == 48
    assert built.scale == 16  # m_2 divided by the chain length 1
    assert dict(built.z_d_coords) == {47: F(16)}
    assert all(c.status == "PASS" for c in built.clauses)
    # the element's recorded analysis echoes the construction verbatim
    analysis = evaluation_analysis(u, built.eta)
    assert analysis.p0 == cuts[0]
    assert [s.p for s in analysis.steps] == list(cuts[1:])
    assert [s.xi for s in analysis.steps] == list(built.chain)
    assert [s.b for s in analysis.steps] == bs


def test_pair_minimal_constant_by_hand():
    u = build_universe(micro_config(horizon=3))
    xs, cuts, bs = helper_pair_parts(u, 1)
    built = build_exact_pair(u, xs, cuts, bs, 1)
    minimal = check_exact_pair(u, built.z, built.eta, 0, built.j).minimal_constant
    # norm 16 forced through the biorthogonal-coefficient bound C / m_2
    assert minimal == 256
    assert check_exact_pair(u, built.z, built.eta, minimal, built.j).certifies
    assert not check_exact_pair(u, built.z, built.eta, minimal - 1, built.j).certifies


def test_pair_chain_of_length_two():
    u = build_universe(micro_config(horizon=3))
    xs, cuts, bs = helper_pair_parts(u, 2)
    built = build_exact_pair(u, xs, cuts, bs, 1)
    assert built.identity_ok
    assert len(built.chain) == 2
    assert built.scale == 8
    first, second = (u.element(g) for g in built.chain)
    assert first.kind == "t1" and second.kind == "t2"
    assert second.xi == built.chain[0]
    analysis = evaluation_analysis(u, built.eta)
    assert analysis.age == 2
    assert analysis.cut_points() == list(cuts)


def test_pair_orbit_clauses_name_the_failing_value():
    u = build_universe(micro_config(horizon=3))
    eta = 4  # an age-1 element of weight index 2 at rank 2
    x = d_vector(u, eta).scaled(F(-3, 2))  # -3/2 at eta, nothing down its orbit
    exact = check_exact_pair(u, x, eta, F(1), 2).clauses
    assert [(c.name, c.status) for c in exact] == [
        ("(1) norm bound", "FAIL"),
        ("(2) biorthogonal coefficients", "FAIL"),
        ("(3) weight", "PASS"),
        ("(4) value at the element", "FAIL"),
        ("(4) shifted orbit vanishes [power 1]", "PASS"),
        ("(4) shifted orbit vanishes [power 2]", "PASS"),
        ("(5) off-weight coordinates, lower indices", "PASS"),
        ("(5) off-weight coordinates, higher indices", "PASS"),
        ("windowed tail estimate (reported)", "INFO"),
    ]
    assert exact[3].witness == "coordinate is -3/2, wanted 0"
    assert exact[3].kind == "identity"

    weak = check_exact_pair(u, x, eta, F(1), 2, epsilon=F(1, 2)).clauses
    names = [c.name for c in weak]
    assert names[3:6] == [f"(4') weak orbit bound [power {p}]" for p in range(3)]
    assert names[:3] + names[6:] == [c.name for c in exact if not c.name.startswith("(4)")]
    orbit = weak[3]
    assert (orbit.status, orbit.kind) == ("FAIL", "magnitude")
    assert (orbit.lhs, orbit.rhs, orbit.margin) == ("3/2", "1/2", "-1")
    # the weak orbit term binds once epsilon is small: |-3/2| / (1/32) = 48
    # against 24 from the biorthogonal coefficient
    assert check_exact_pair(u, x, eta, F(1), 2, epsilon=F(1, 2)).minimal_constant == 24
    assert check_exact_pair(u, x, eta, F(1), 2, epsilon=F(1, 32)).minimal_constant == 48


@pytest.mark.parametrize("epsilon", [0, -1])
def test_weak_forms_refuse_a_non_positive_epsilon(epsilon):
    # a zero epsilon divided the least constant by zero, and a negative one
    # gave a minimal constant at which the pair did not certify
    u = build_universe(desk_strict())
    with pytest.raises(ConstructionFailure, match="not positive") as exc:
        check_exact_pair(u, d_vector(u, 0), 5, 1, 1, epsilon=epsilon)
    assert exc.value.clause == "hypothesis"
    for power in (2, 3):  # the weak form, and the special one that reads no epsilon
        with pytest.raises(ConstructionFailure, match="not positive") as exc:
            build_shifted_exact_pair(u, [d_vector(u, 0)], 1, power, epsilon=epsilon)
        assert exc.value.clause == "hypothesis"


@pytest.mark.parametrize(
    "mutate, clause",
    [
        (lambda u, xs, cuts, bs: ([], (cuts[0],), []), "length"),
        (lambda u, xs, cuts, bs: (xs, cuts[:1], bs), "cuts"),
        (lambda u, xs, cuts, bs: (xs, (cuts[0], cuts[0] + 1), bs), "cuts"),
        (lambda u, xs, cuts, bs: (xs, cuts, [BFunctional.zero()] * 2), "combinations"),
    ],
)
def test_pair_preconditions_name_their_clause(mutate, clause):
    u = build_universe(micro_config(horizon=3))
    xs, cuts, bs = helper_pair_parts(u, 1)
    with pytest.raises(ConstructionFailure) as exc:
        build_exact_pair(u, *mutate(u, xs, cuts, bs), 1)
    assert exc.value.clause == clause


def test_pair_weight_cap_and_age_cap():
    u = build_universe(micro_config(horizon=3))
    xs, cuts, bs = helper_pair_parts(u, 1)
    with pytest.raises(ConstructionFailure) as exc:
        build_exact_pair(u, xs, cuts, bs, 2)  # weight index 4 > configured 2
    assert exc.value.clause == "weight cap"

    tight = build_universe(micro_config(n_seq=(2, 3), horizon=2))
    zeros = [synthesize(tight, {})] * 4
    with pytest.raises(ConstructionFailure) as exc:
        build_exact_pair(tight, zeros, (0, 2, 4, 6, 8), [BFunctional.zero()] * 4, 1)
    assert exc.value.clause == "age cap"


def test_pair_vector_range_window_and_orthogonality_gates():
    u = build_universe(micro_config(horizon=3))
    with pytest.raises(ConstructionFailure) as exc:
        build_exact_pair(u, [d_vector(u, 0)], (1, 3), [BFunctional.zero()], 1)
    assert exc.value.clause == "vector ranges"

    with pytest.raises(ConstructionFailure) as exc:
        build_exact_pair(
            u, [d_vector(u, 7)], (1, 4), [BFunctional.singleton(0)], 1
        )
    assert exc.value.clause == "window"

    with pytest.raises(ConstructionFailure) as exc:
        build_exact_pair(
            u, [d_vector(u, 9)], (1, 4), [BFunctional.singleton(9)], 1
        )
    assert exc.value.clause == "orthogonality"


# -- step pairs and linked chains ------------------------------------------------------


def test_default_supplier_produces_a_certified_pair():
    u = build_universe(micro_config(horizon=2))
    x, eta = _step_pair(u, 1, 2)
    constant = check_exact_pair(u, x, eta, 0, 2).minimal_constant
    report = check_exact_pair(u, x, eta, constant, 2)
    assert report.identity_ok and report.certifies


@pytest.mark.parametrize("j", [0, 5])
def test_pair_report_refuses_a_weight_index_outside_the_ladder(j):
    # desk-strict has four weights; j = 0 used to grade against 1/m[4], j = 5 raised IndexError
    u = build_universe(desk_strict())
    with pytest.raises(ConstructionFailure) as exc:
        check_exact_pair(u, d_vector(u, 0), 5, 1, j)
    assert (exc.value.clause, exc.value.detail) == (
        "weight cap", f"weight index {j} outside configured 1..4"
    )


def test_default_supplier_refusals_are_named():
    u = build_universe(micro_config(horizon=2))
    with pytest.raises(SupplierExhausted) as exc:
        _step_pair(u, 3, 99)
    assert exc.value.clause == "weight cap"
    assert exc.value.detail == "step 3 needs weight index 99 but the config has only 2 weights"


def test_linked_chain_stops_honestly_on_short_weight_ladder():
    u = build_universe(micro_config(horizon=2))
    with pytest.raises(SupplierExhausted) as exc:
        build_dependent_sequence(u, j0=1, length=1)
    assert exc.value.clause == "weight cap"


def test_linked_chain_length_two_by_hand():
    u = steep_universe()
    cert = build_dependent_sequence(u, j0=1, length=2)
    assert cert.identity_ok
    # first step takes the smallest admissible 4j; the next one is forced
    # by the numbering of the previous chain element
    assert cert.weight_indices == (4, 56)
    assert cert.weight_indices[1] == 4 * u.sigma(cert.xi_chain[0])
    assert cert.p_seq == (0, 7, 59)
    assert len(cert.vectors) == len(cert.pair_reports) == 2
    assert all(c.status == "PASS" for c in cert.clauses)
    # the carried elements' weights strictly decrease along the chain
    w = [u.config.weight(u.element(g).weight_idx) for g in cert.eta_seq]
    assert w[0] > w[1]
    # while every chain element shares the requested odd weight
    assert {u.element(g).weight_idx for g in cert.xi_chain} == {2 * cert.j0 - 1}


def test_linked_chain_reports_magnitude_failure_honestly():
    cfg = micro_config(
        m_seq=SHALLOW_M, n_seq=tuple(range(16, 16 + len(SHALLOW_M))), horizon=2
    )
    cert = build_dependent_sequence(build_universe(cfg), j0=1, length=2)
    assert cert.identity_ok  # identities hold even though a magnitude fails
    bad = [c for c in cert.clauses if c.status == "FAIL"]
    assert [c.name for c in bad] == ["odd-weight magnitude"]
    assert (F(int(bad[0].rhs)), F(int(bad[0].lhs))) == (F(7), F(256))


def test_linked_chain_certificate_serializes():
    cert = build_dependent_sequence(steep_universe(), j0=1, length=1)
    payload = cert.to_json_dict()
    assert payload["weight_indices"] == [4]
    assert payload["clauses"] and payload["pair_reports"]
    assert isinstance(payload["vectors_d_coords"][0], dict)


# -- one evaluation per pair ------------------------------------------------------------


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


VERB_PAIRS = [["pair"], ["pair", "--count", "4", "--j", "2"], ["depseq"], ["depseq", "--weak"]]


@pytest.mark.parametrize("config", ["desk-strict", "desk-relaxed"])
@pytest.mark.parametrize("argv", VERB_PAIRS, ids=[" ".join(argv) for argv in VERB_PAIRS])
def test_a_verb_evaluates_its_pair_terms_once(argv, config, monkeypatch, capsys):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    calls = counting(monkeypatch, sequences, "_magnitude_terms")
    assert main([*argv, "--config", config]) == 0
    assert len(calls) == 1


def test_a_chain_evaluates_each_step_pair_once(monkeypatch):
    u = build_universe(
        micro_config(
            k=2,
            horizon=2,
            m_seq=tuple(2 ** (2 * j + 1) for j in range(1, 65)),
            n_seq=tuple(16 + 2 * (j - 1) for j in range(1, 65)),
            level_cap=4,
        )
    )
    calls = counting(monkeypatch, sequences, "_magnitude_terms")
    cert = build_dependent_sequence(u, length=2)
    assert cert.identity_ok
    assert [call[2] for call in calls] == list(cert.eta_seq)


def test_the_suites_constructed_pair_is_evaluated_once(monkeypatch):
    u = build_universe(micro_config(horizon=3))
    calls = counting(monkeypatch, sequences, "_magnitude_terms")
    ok, detail = verify._constructed_pair(u)
    assert ok and "certifies at constant" in detail
    assert len(calls) == 1


def test_pair_construction_reads_each_helper_range_once(monkeypatch):
    u = build_universe(micro_config(horizon=3))
    xs, cuts, bs = helper_pair_parts(u, 3)
    calls = counting(monkeypatch, sequences, "vector_range")
    assert build_exact_pair(u, xs, cuts, bs, 1).identity_ok
    assert [x for _, x in calls] == xs


# -- lower-bound witness search ---------------------------------------------------------


def test_lower_bound_search_by_hand():
    u = build_universe(micro_config(horizon=3))
    result = lower_bound_search(u, [d_vector(u, 0)], 1)
    assert result.witness == 5  # the carrier of +e*_0
    assert result.lhs == F(1, 16)
    assert result.rhs == F(1, 32)
    assert result.satisfied


def test_lower_bound_search_without_candidates():
    u = build_universe(micro_config(horizon=1))
    result = lower_bound_search(u, [d_vector(u, 0)], 1)
    assert result.witness is None and not result.satisfied


# -- shifted pairs ------------------------------------------------------------------------


def test_shifted_pair_at_the_nilpotency_degree():
    u = build_universe(micro_config(k=2, horizon=2))
    out = build_shifted_exact_pair(u, [d_vector(u, 0)], 1, hypothesis_power=2)
    assert out.found
    assert out.gamma == 6 and out.eta == 4  # witness steps back one rung
    assert out.eta == u.f_image_of(out.gamma)
    assert out.delta_bound == 1
    named = {c.name: c for c in out.clauses}
    assert named["witness value"].status == "PASS"
    assert (named["witness value"].lhs, named["witness value"].rhs) == ("1/2", "1")
    assert out.report is not None and out.report.identity_ok


def test_shifted_pair_below_the_degree_requires_epsilon():
    u = build_universe(micro_config(horizon=2))
    with pytest.raises(ConstructionFailure) as exc:
        build_shifted_exact_pair(u, [d_vector(u, 0)], 1, hypothesis_power=2)
    assert exc.value.clause == "hypothesis"
    out = build_shifted_exact_pair(
        u, [d_vector(u, 0)], 1, hypothesis_power=2, epsilon=F(1)
    )
    assert out.found and out.report is not None
    assert out.report.epsilon is not None


def test_shifted_pair_rejects_out_of_range_powers():
    u = build_universe(micro_config(horizon=2))
    for power in (1, 4):
        with pytest.raises(ConstructionFailure):
            build_shifted_exact_pair(u, [d_vector(u, 0)], 1, hypothesis_power=power)


def test_shifted_pair_refuses_a_weight_the_config_lacks():
    # power 2 < k reads the weight 1/m[2j] of its decay clause: one weight
    # has no index 2, which is refused before anything reads it
    u = build_universe(micro_config(horizon=3, m_seq=(4,), n_seq=(16,)))
    with pytest.raises(ConstructionFailure) as exc:
        build_shifted_exact_pair(u, [d_vector(u, 0)], 1, hypothesis_power=2, epsilon=F(1))
    assert exc.value.clause == "weight cap"


# -- inequality diagnostics ----------------------------------------------------------------


def test_ris_average_estimates_pass_with_margins():
    u = build_universe(micro_config(horizon=3))
    xs = (d_vector(u, 3), d_vector(u, u.level(3)[15]))
    report = estimate_ris_averages(u, xs, F(1), 1)
    assert worst_status(report.clauses) == "PASS"
    named = {c.name: c for c in report.clauses}
    assert named["average norm"].lhs == "1/2"
    assert named["average norm"].rhs == "5/2"
    assert any("substitutes for the configured" in n for n in report.notes)


def test_weighted_average_estimate_reports_its_hypothesis():
    u = build_universe(micro_config(horizon=3))
    xs = [d_vector(u, 3), d_vector(u, u.level(3)[15])]
    report = estimate_ris_weighted_averages(u, xs, [F(1, 2), F(1, 2)], F(2), 1)
    hyp, conclusion = report.clauses
    assert hyp.status == "INFO"  # evaluated, never assumed
    assert conclusion.status == "PASS"
    assert (conclusion.lhs, conclusion.rhs) == ("1/4", "5/4")


def test_interval_and_alternating_estimates():
    u = build_universe(micro_config(horizon=3))
    xs = [d_vector(u, 3), d_vector(u, u.level(3)[15])]
    interval = estimate_interval_sums(u, xs, F(2), 1)
    assert worst_status(interval.clauses) == "PASS"
    alternating = estimate_alternating_sums(u, xs, F(2), 1)
    assert worst_status(alternating.clauses) == "PASS"
    assert {c.name for c in alternating.clauses} == {
        "alternating interval sums at the chain weight",
        "average norm lower display",
        "alternating average norm",
    }


ESTIMATES = {
    "ris-averages": lambda u, xs, j0: estimate_ris_averages(u, xs, 1, j0),
    "ris-weighted-averages": lambda u, xs, j0: estimate_ris_weighted_averages(u, xs, [1], 1, j0),
    "interval-sums": lambda u, xs, j0: estimate_interval_sums(u, xs, 1, j0),
    "dependent-average": lambda u, xs, j0: estimate_dependent_average(u, xs, 1, j0),
    "alternating-sums": lambda u, xs, j0: estimate_alternating_sums(u, xs, 1, j0),
}


@pytest.mark.parametrize("name", sorted(ESTIMATES))
def test_estimates_refuse_a_weight_index_outside_the_ladder(name, strict_universe):
    # desk-strict has four weights.  The ris estimates read weight j0 and the
    # chain estimates weight 2 j0 - 1, so j0 runs over 1..4 and 1..2; beyond
    # either end four of them raised IndexError and interval sums graded PASS.
    u, xs = strict_universe, [d_vector(strict_universe, 3)]
    chain = name not in ("ris-averages", "ris-weighted-averages")
    label, top = ("chain weight index", 2) if chain else ("weight index", 4)
    assert ESTIMATES[name](u, xs, top).name == name
    for j0 in (0, top + 1):
        with pytest.raises(ConstructionFailure) as exc:
            ESTIMATES[name](u, xs, j0)
        widx = 2 * j0 - 1 if chain else j0
        assert (exc.value.clause, exc.value.detail) == (
            "weight cap", f"{label} {widx} outside configured 1..4"
        )


def test_lower_bound_estimate_requires_skipped_blocks():
    u = build_universe(micro_config(horizon=3))
    adjacent = [d_vector(u, 3), d_vector(u, u.level(3)[15])]
    report = estimate_lower_bound(u, adjacent, 1)
    assert worst_status(report.clauses) == "FAIL"
    named = {c.name: c for c in report.clauses}
    assert named["skipped-block structure"].status == "FAIL"
    assert named["witness search"].status == "PASS"

    single = estimate_lower_bound(u, [d_vector(u, 3)], 1)
    assert worst_status(single.clauses) == "PASS"


def test_estimates_of_a_chain_and_of_a_sequence():
    u = steep_universe()
    cert = build_dependent_sequence(u, j0=1, length=2)
    reports = [
        estimate_interval_sums(u, cert.vectors, cert.constant, cert.j0),
        estimate_dependent_average(u, cert.vectors, cert.constant, cert.j0),
    ]
    assert [r.name for r in reports] == ["interval-sums", "dependent-average"]

    u3 = build_universe(micro_config(horizon=3))
    xs = (d_vector(u3, 3), d_vector(u3, u3.level(3)[15]))
    reports = [estimate_ris_averages(u3, xs, F(1), 1), estimate_lower_bound(u3, xs, 1)]
    assert [r.name for r in reports] == ["ris-averages", "lower-bound-search"]


def test_worst_status_ordering():
    mk = lambda status: type("C", (), {"status": status})()
    assert worst_status([mk("PASS"), mk("INFO")]) == "PASS"
    assert worst_status([mk("PASS"), mk("WARN")]) == "WARN"
    assert worst_status([mk("WARN"), mk("FAIL")]) == "FAIL"
    assert worst_status([]) == "INFO"  # the neutral floor
