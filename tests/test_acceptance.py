"""Acceptance gate: thirteen end-to-end criteria over the bundled fixtures.

Each test covers exactly one criterion and prints one verdict line
(``criterion N: PASS/FAIL -- summary``); run with ``pytest
tests/test_acceptance.py -v -s`` to see the lines as they happen.  The
criteria deliberately re-derive everything from fresh universes instead of
reusing unit-test fixtures, so this module alone exercises the whole stack.
"""
from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from bdlab.algebra import (
    Functional,
    d_vector,
    e_star,
    evaluation_analysis,
    l1_norm,
    pairing,
    project_star,
    synthesize,
    to_e_basis,
)
from bdlab.cli import main
from bdlab.config import desk_relaxed, desk_strict
from bdlab.elements import BFunctional, t1_candidate
from bdlab.sequences import (
    build_dependent_sequence,
    build_exact_pair,
)
from bdlab.serialize import parse_rational, stable_json
from bdlab.shift import (
    compact_witness,
    nilpotency_index,
    s_apply,
    s_apply_power,
    s_star,
    shift_power_family_rank,
)
from bdlab.universe import build_universe
from bdlab.verify import _first_violation, _table_law_fault, run_verification
from conftest import micro_config
from oracles import (
    analysis_functional,
    dstar_matrix,
    functional_column,
    solve_exact,
    store_to_d,
    transpose,
    unit_column,
)

F = Fraction


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL -- {summary}")
        raise
    print(f"criterion {number}: PASS -- {summary}")


@pytest.fixture(scope="module")
def strict():
    return build_universe(desk_strict())


def pair_parts(u, count: int, j: int):
    """The helper-vector recipe: fresh scaffolding above the top rank."""
    base_rank = u.max_rank
    xs, bs, cuts = [], [], [base_rank + 1]
    for i in range(1, count + 1):
        rank = base_rank + 2 * i
        phi = u.intern(t1_candidate(rank, 0, 2, BFunctional.zero()))
        theta = u.intern(t1_candidate(rank, 0, 2, BFunctional.singleton(0)))
        xs.append(d_vector(u, theta))
        bs.append(BFunctional.singleton(phi))
        cuts.append(rank + 1)
    return xs, tuple(cuts), bs


def test_criterion_01_biorthogonality_at_scale():
    with criterion(1, "exhaustive exact biorthogonality on the dense-net fixture"):
        started = time.perf_counter()
        u = build_universe(desk_relaxed())
        assert 100 <= len(u) <= 1000
        functionals = {g: to_e_basis(u, Functional("d*", {g: F(1)})) for g in u.ids()}
        vectors = {g: d_vector(u, g) for g in u.ids()}
        for i in u.ids():
            fi = functionals[i]
            for j in u.ids():
                assert pairing(u, fi, vectors[j]) == (1 if i == j else 0)
        assert time.perf_counter() - started < 60.0


def test_criterion_02_initial_window_norms(strict):
    with criterion(2, "every initial-window projection has exact l1 norm <= 2"):
        ids = list(strict.ids())
        for q in range(1, strict.max_rank + 1):
            norm = max(l1_norm(strict, project_star(strict, 0, q, e_star(g))) for g in ids)
            assert norm <= 2


def test_criterion_03_nilpotency_across_orders():
    with criterion(3, "pullback power k annihilates; power k-1 reaches the bottom"):
        for k in (2, 3, 4):
            u = build_universe(micro_config(k=k))
            for gid in u.ids():
                f = e_star(gid)
                for _ in range(k):
                    f = s_star(u, f)
                assert not f.coords
            f = e_star(k - 1)
            for _ in range(k - 1):
                f = s_star(u, f)
            assert f == e_star(0)
            assert max(nilpotency_index(u, g) for g in u.ids()) == k
            assert shift_power_family_rank(u) == k


def test_criterion_04_structure_of_the_index_map(strict):
    with criterion(4, "index map preserves rank/weight, ages never grow"):
        assert _first_violation(_table_law_fault)(strict) == (True, "")
        for gid in strict.ids():
            el = strict.element(gid)
            img = strict.f_image_of(gid)
            if el.kind == "base":
                if el.index == 0:
                    assert img is None
                else:
                    assert img is not None
                    assert strict.element(img).index == el.index - 1
            if img is not None:
                mel = strict.element(img)
                assert mel.rank == el.rank
                assert mel.kind != "base" or el.kind == "base"
                assert mel.weight_idx == el.weight_idx
                assert mel.age <= el.age
                assert gid in strict.f_preimages_of(img)
            for pre in strict.f_preimages_of(gid):
                assert strict.f_image_of(pre) == gid


def test_criterion_05_numbering_laws(strict):
    with criterion(5, "numbering is injective, rank-separated, chain-monotone"):
        sig = {g: strict.sigma(g) for g in strict.ids()}
        assert len(set(sig.values())) == len(sig)
        for g in strict.ids():
            assert sig[g] > strict.element(g).rank
        for r in range(2, strict.max_rank + 1):
            below = max(sig[g] for g in strict.ids() if strict.element(g).rank < r)
            assert min(sig[g] for g in strict.level(r)) > below
        for g in strict.ids():
            img = strict.f_image_of(g)
            if img is not None:
                assert strict.sigma_set(g) < strict.sigma_set(img)


def test_criterion_06_evaluation_analysis(strict):
    with criterion(6, "every weighted element rebuilds from its analysis"):
        checked = 0
        for gid in strict.ids():
            if strict.element(gid).kind == "base":
                continue
            analysis = evaluation_analysis(strict, gid)
            for windowed in (False, True):
                for start in range(analysis.age):
                    got = analysis_functional(strict, analysis, windowed, start)
                    assert got == e_star(gid)
            checked += 1
        assert checked == len(strict) - 3


def test_criterion_07_duality_of_shift_and_pullback(strict):
    with criterion(7, "basis pushforward sums preimages; pairing is adjoint"):
        for delta in strict.ids():
            expected = synthesize(strict, {})
            for gamma in strict.f_preimages_of(delta):
                expected = expected.plus(d_vector(strict, gamma))
            got = s_apply(strict, d_vector(strict, delta))
            assert got.coords == expected.coords
        rng = random.Random(20260815)
        ids = list(strict.ids())
        for _ in range(1000):
            f = Functional(
                "e*",
                {
                    rng.choice(ids): F(rng.randint(-8, 8), rng.randint(1, 8))
                    for _ in range(rng.randint(1, 4))
                },
            )
            x = synthesize(
                strict,
                {
                    rng.choice(ids): F(rng.randint(-8, 8), rng.randint(1, 8))
                    for _ in range(rng.randint(1, 4))
                },
            )
            assert pairing(strict, s_star(strict, f), x) == pairing(
                strict, f, s_apply(strict, x)
            )


def test_criterion_08_compact_difference_family(strict):
    with criterion(8, "difference family exposes 2|lambda_j| scalar by scalar"):
        assert compact_witness(strict, 0, 2, 3, (F(5),)) == 10
        lam = (F(1), F(-3, 2), F(2))
        values = [compact_witness(strict, j, 2, 3, lam) for j in range(3)]
        assert values[0] == 2 * abs(lam[0])
        for j in (1, 2):
            assert values[j] - values[j - 1] == 2 * abs(lam[j])
        rng = random.Random(13)
        for _ in range(10):
            lam = tuple(
                F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)
            )
            if lam[0] == 0:
                continue
            witnessed = compact_witness(strict, 2, 2, 3, lam)
            assert witnessed == 2 * sum(abs(c) for c in lam)


def test_criterion_09_exact_pair_orbit():
    with criterion(9, "pair vector vanishes along the whole shift orbit"):
        u = build_universe(desk_strict())
        k = u.config.k
        xs, cuts, bs = pair_parts(u, 2, 1)
        built = build_exact_pair(u, xs, cuts, bs, 1)
        assert built.identity_ok
        for power in range(k):
            assert s_apply_power(u, built.z, power).at(built.eta) == 0
        analysis = evaluation_analysis(u, built.eta)
        assert analysis.cut_points() == list(built.cuts)
        assert [s.xi for s in analysis.steps] == list(built.chain)
        assert [s.b for s in analysis.steps] == bs


def test_criterion_10_linked_chain_structure():
    with criterion(10, "linked chains stay admissible with decreasing weights"):
        steep_m = (4, 16, 64, 257) + tuple(range(258, 320))
        cfg = micro_config(
            m_seq=steep_m, n_seq=tuple(range(16, 16 + len(steep_m))), horizon=2
        )
        u = build_universe(cfg)
        cert = build_dependent_sequence(u, j0=1, length=2)
        assert cert.identity_ok
        assert all(c.status == "PASS" for c in cert.clauses)
        for gid in cert.xi_chain + cert.eta_seq:
            assert gid in u.ids()
        assert cert.weight_indices[1] == 4 * u.sigma(cert.xi_chain[0])
        weights = [u.config.weight(u.element(g).weight_idx) for g in cert.eta_seq]
        assert weights[0] > weights[1]
        assert {u.element(g).weight_idx for g in cert.xi_chain} == {2 * cert.j0 - 1}


def test_criterion_11_estimates_are_honest():
    with criterion(11, "magnitude bounds: exact margins when met, WARN when not"):
        strict_u = build_universe(desk_strict())
        cert = build_dependent_sequence(strict_u, j0=1, length=1)
        assert cert.identity_ok
        for clause in cert.clauses:
            assert clause.status == "PASS"
            if clause.kind == "magnitude" and clause.margin:
                assert parse_rational(clause.margin) >= 0
        relaxed_report = run_verification(desk_relaxed())
        assert not relaxed_report.has_fail
        seq_suite = next(s for s in relaxed_report.suites if s.name == "sequence")
        flagged = next(
            c for c in seq_suite.checks if c.name == "linked chain of length one"
        )
        assert flagged.status == "WARN"
        assert "odd-weight magnitude" in flagged.detail


def test_criterion_12_oracle_cross_check(strict):
    with criterion(12, "sparse solver matches dense exact elimination"):
        assert 30 <= len(strict) <= 100
        matrix = dstar_matrix(strict)
        n = len(strict)
        for gid in strict.ids():
            expected = solve_exact(matrix, unit_column(n, gid))
            assert d_vector(strict, gid).coords == {
                g: c for g, c in enumerate(expected) if c != 0
            }
        mt = transpose(matrix)
        rng = random.Random(5)
        samples = [e_star(g) for g in strict.ids()]
        for _ in range(10):
            samples.append(
                Functional(
                    "e*",
                    {
                        rng.randrange(n): F(rng.randint(-6, 6), rng.randint(1, 6))
                        for _ in range(4)
                    },
                )
            )
        for f in samples:
            expected = solve_exact(mt, functional_column(strict, f))
            assert store_to_d(strict, f.coords) == {
                g: c for g, c in enumerate(expected) if c != 0
            }


def test_criterion_13_determinism(tmp_path):
    with criterion(13, "dumps, reports, and certificates are byte-identical"):
        dumps = [
            "\n".join(build_universe(desk_strict()).dump_lines()) for _ in range(2)
        ]
        assert dumps[0] == dumps[1]
        reports = [
            stable_json(run_verification(desk_relaxed()).to_json_dict())
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        certs = []
        for _ in range(2):
            u = build_universe(desk_strict())
            xs, cuts, bs = pair_parts(u, 2, 1)
            certs.append(stable_json(build_exact_pair(u, xs, cuts, bs, 1).to_json_dict()))
        assert certs[0] == certs[1]
        outs = []
        for name in ("first.json", "second.json"):
            target = tmp_path / name
            code = main(
                ["report", "--config", "desk-strict", "--format", "json", "--out", str(target)]
            )
            assert code == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]
