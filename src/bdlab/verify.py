"""Verification suites over a materialized universe.

Four suites, each a list of named checks with exact outcomes:

* ``gamma``      -- admissibility, level structure, the numbering and its
                    membership sets, shift closure, rebuild determinism;
* ``functional`` -- biorthogonality of the two coordinate systems, interval
                    projection norms, basis round trips, the step-by-step
                    evaluation identities, extension uniqueness;
* ``shift``      -- the operator's combinatorial table, nilpotency, duality
                    between pushforward and pullback, commutation with tail
                    restrictions, independence of the operator powers, the
                    scalar matrix model, compact difference families;
* ``sequence``   -- certificates and constructions from the sequence
                    laboratory evaluated on canned instances, with the
                    inequality diagnostics reported at exact constants.

Identity-level checks fail hard.  Magnitude checks degrade to warnings when
the configuration declares the relaxed regime, because their derivations
assume growth conditions a desk-sized configuration cannot satisfy.  The
sequence suite interns new elements, so it always runs last and its effect
is disclosed in the report notes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .algebra import (
    D_BASIS,
    E_BASIS,
    Functional,
    Vector,
    analysis_functional,
    c_star,
    d_coords_of,
    d_vector,
    e_star,
    evaluation_analysis,
    extend,
    pairing,
    project_star,
    synthesize,
    to_d_basis,
    to_e_basis,
)
from .config import RELAXED, ConstructionConfig
from .elements import BASE, BFunctional, candidate_of, t1_candidate
from .sequences import (
    IDENTITY,
    MAGNITUDE,
    DefaultPairSupplier,
    RISInstance,
    SupplierExhausted,
    build_dependent_sequence,
    build_exact_pair,
    check_exact_pair,
    evaluate_estimates,
    lower_bound_search,
    minimal_pair_constant,
    minimal_ris_constant,
    block_sequence,
    shifted_sequence,
    validate_ris,
)
from .serialize import format_rational
from .shift import (
    FMapTable,
    compact_witness,
    jordan_block,
    nilpotency_index,
    s_apply,
    s_star,
    shift_power_family_rank,
    toeplitz_repr,
    truncated_poly_product,
)
from .universe import Universe, UniverseError, build_universe

PASS = "PASS"
FAIL = "FAIL"
WARN = "WARN"
INFO = "INFO"

SUITE_ORDER = ("gamma", "functional", "shift", "sequence")

SCHEMA = "bdlab.verify/1"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def status(self) -> str:
        order = {INFO: 0, PASS: 1, WARN: 2, FAIL: 3}
        worst = PASS
        for check in self.checks:
            if order[check.status] > order[worst]:
                worst = check.status
        return worst

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "checks": [c.to_json_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class VerificationReport:
    config: dict[str, Any]
    element_count: int
    level_counts: dict[int, int]
    fingerprint: str
    suites: tuple[SuiteReport, ...]
    notes: tuple[str, ...]
    seed: int
    timings: Optional[dict[str, str]] = None

    @property
    def has_fail(self) -> bool:
        return any(s.status == FAIL for s in self.suites)

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema": SCHEMA,
            "config": self.config,
            "element_count": self.element_count,
            "level_counts": {str(r): c for r, c in sorted(self.level_counts.items())},
            "fingerprint": self.fingerprint,
            "suites": [s.to_json_dict() for s in self.suites],
            "notes": list(self.notes),
            "seed": self.seed,
            "result": FAIL if self.has_fail else PASS,
        }
        if self.timings is not None:
            out["timings"] = dict(self.timings)
        return out

    def text_lines(self) -> list[str]:
        lines = [f"elements: {self.element_count}"]
        lines.append(
            "levels: "
            + " ".join(f"{r}:{c}" for r, c in sorted(self.level_counts.items()))
        )
        lines.append(f"fingerprint: {self.fingerprint}")
        for suite in self.suites:
            lines.append(f"suite {suite.name}: {suite.status}")
            for check in suite.checks:
                tail = f" -- {check.detail}" if check.detail else ""
                lines.append(f"  [{check.status}] {check.name}{tail}")
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.timings is not None:
            for name, secs in self.timings.items():
                lines.append(f"timing {name}: {secs}s")
        lines.append(f"result: {'FAIL' if self.has_fail else 'PASS'}")
        return lines


def _graded(regime: str, kind: str = MAGNITUDE) -> str:
    """Status for a failed check of the given kind under the given regime."""
    if kind == IDENTITY:
        return FAIL
    return WARN if regime == RELAXED else FAIL


def _check(name: str, ok: bool, detail: str = "", fail_status: str = FAIL) -> CheckResult:
    return CheckResult(name, PASS if ok else fail_status, detail)


# -- seeded sampling helpers -----------------------------------------------------


def _random_functional(
    universe: Universe, rng: random.Random, basis: str, size: int = 4
) -> Functional:
    ids = list(universe.ids())
    chosen = rng.sample(ids, min(size, len(ids)))
    coords = {
        gid: Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for gid in chosen
    }
    return Functional(basis, {g: c for g, c in coords.items() if c != 0})


def _random_vector(universe: Universe, rng: random.Random, size: int = 4) -> Vector:
    ids = list(universe.ids())
    chosen = rng.sample(ids, min(size, len(ids)))
    coords = {
        gid: Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for gid in chosen
    }
    return synthesize(universe, coords)


# -- gamma suite -------------------------------------------------------------------


def run_gamma_suite(universe: Universe, rng: random.Random) -> SuiteReport:
    checks: list[CheckResult] = []
    cfg = universe.config

    bad = ""
    for gid in universe.ids():
        violations = universe.validate_candidate(candidate_of(universe.element(gid)))
        if violations:
            bad = f"element {gid}: {violations[0]}"
            break
    checks.append(_check("element revalidation", not bad, bad))

    base_level = universe.level(1)
    structure_ok = len(base_level) == cfg.k and all(
        universe.element(g).index == i for i, g in enumerate(base_level)
    )
    for rank in range(1, universe.max_rank + 1):
        level = universe.level(rank)
        if not level or any(universe.element(g).rank != rank for g in level):
            structure_ok = False
    checks.append(
        _check(
            "level structure",
            structure_ok,
            f"{universe.max_rank} levels, base width {len(base_level)}",
        )
    )

    above = all(universe.sigma(g) > universe.element(g).rank for g in universe.ids())
    checks.append(_check("numbering exceeds rank", above))

    values = [universe.sigma(g) for g in universe.ids()]
    checks.append(_check("numbering injective", len(set(values)) == len(values)))

    dominance_ok = True
    dominance_detail = ""
    running_max = 0
    for rank in range(1, universe.max_rank + 1):
        level_sigmas = [universe.sigma(g) for g in universe.level(rank)]
        if level_sigmas and running_max and min(level_sigmas) <= running_max:
            dominance_ok = False
            dominance_detail = f"rank {rank} numbering does not clear rank {rank - 1}"
            break
        running_max = max([running_max] + level_sigmas)
    if not dominance_ok and universe.interior_interns > 0:
        checks.append(
            CheckResult(
                "numbering dominates lower ranks",
                WARN,
                dominance_detail + " (universe grew out of enumeration order)",
            )
        )
    else:
        checks.append(_check("numbering dominates lower ranks", dominance_ok, dominance_detail))

    recomputed: dict[int, set[int]] = {g: set() for g in universe.ids()}
    for gid in universe.ids():
        cur: Optional[int] = gid
        for _ in range(cfg.k):
            if cur is None:
                break
            recomputed[cur].add(universe.sigma(gid))
            cur = universe.f_image_of(cur)
    sets_ok = all(
        frozenset(recomputed[g]) == universe.sigma_set(g) for g in universe.ids()
    )
    checks.append(_check("membership sets match the orbit definition", sets_ok))

    monotone_ok = True
    for gid in universe.ids():
        image = universe.f_image_of(gid)
        if image is not None and not universe.sigma_set(gid) <= universe.sigma_set(image):
            monotone_ok = False
            break
    checks.append(_check("membership monotone under the shift", monotone_ok))

    separated_ok = True
    separated_detail = ""
    running_sep = 0
    for rank in range(1, universe.max_rank + 1):
        spans = [universe.sigma_set(g) for g in universe.level(rank)]
        if spans:
            lo = min(min(s) for s in spans)
            hi = max(max(s) for s in spans)
            if running_sep and lo <= running_sep:
                separated_ok = False
                separated_detail = f"membership overlap between ranks at {rank}"
                break
            running_sep = max(running_sep, hi)
    if not separated_ok and universe.interior_interns > 0:
        checks.append(
            CheckResult(
                "membership separated by rank",
                WARN,
                separated_detail + " (universe grew out of enumeration order)",
            )
        )
    else:
        checks.append(_check("membership separated by rank", separated_ok, separated_detail))

    by_sigma = {universe.sigma(g): g for g in universe.ids()}
    chains_ok = True
    for delta in universe.ids():
        for value in universe.sigma_set(delta):
            gamma = by_sigma.get(value)
            if gamma is None:
                chains_ok = False
                break
            if gamma != delta and all(
                universe.f_iterate(gamma, j) != delta for j in range(1, cfg.k)
            ):
                chains_ok = False
                break
        if not chains_ok:
            break
    checks.append(_check("membership identifies chain position", chains_ok))

    decrease_ok = True
    decrease_detail = ""
    for gid in universe.ids():
        el = universe.element(gid)
        if not el.odd_weight or el.kind == BASE:
            continue
        carried = []
        for step in evaluation_analysis(universe, gid).steps:
            items = list(step.b.items())
            if items:
                carried.append(universe.element(items[0][0]).weight_idx)
        if any(carried[i] <= carried[i + 1] for i in range(len(carried) - 1)):
            decrease_ok = False
            decrease_detail = f"element {gid} carries non-decreasing weights"
            break
    checks.append(_check("odd-weight carried weights decrease", decrease_ok, decrease_detail))

    laws_ok = True
    laws_detail = ""
    for gid in universe.ids():
        image = universe.f_image_of(gid)
        if image is None:
            continue
        el, im = universe.element(gid), universe.element(image)
        if el.rank != im.rank or el.weight_idx != im.weight_idx or im.age > el.age:
            laws_ok = False
            laws_detail = f"element {gid} -> {image} breaks a preserved quantity"
            break
    checks.append(_check("shift image laws", laws_ok, laws_detail))

    if universe.interior_interns == 0:
        twin = build_universe(universe.config)
        same = twin.fingerprint() == universe.fingerprint() and len(twin) == len(universe)
        checks.append(
            _check("rebuild determinism", same, f"fingerprint {universe.fingerprint()[:16]}...")
        )
    else:
        checks.append(
            CheckResult(
                "rebuild determinism",
                INFO,
                "skipped: universe contains post-enumeration elements",
            )
        )

    return SuiteReport("gamma", tuple(checks))


# -- functional suite -----------------------------------------------------------------


def _widest_window_columns(universe: Universe) -> dict[tuple[int, int], tuple[Fraction, int]]:
    """Per rank window (lo, hi], the largest summable-side column mass of the
    window projection and the first element (by id) that attains it.

    Column gid is the e*-form of the window restriction of d-row
    ``to_d_basis(e*_gid)``.  Growing hi adds one rank's e*-contributions to a
    running sum whose l1 mass is updated entry by entry, so each column is
    one pass per window start instead of one basis change per window.
    """
    top = universe.max_rank
    best: dict[tuple[int, int], tuple[Fraction, int]] = {}
    for gid in universe.ids():
        by_rank: dict[int, list[tuple[int, Fraction]]] = {}
        for g, a in to_d_basis(universe, e_star(gid)).coords.items():
            part = by_rank.setdefault(universe.element(g).rank, [])
            part.append((g, a))
            part.extend((h, -a * c) for h, c in c_star(universe, g).coords.items())
        for lo in range(max(by_rank, default=0)):
            running: dict[int, Fraction] = {}
            mass = Fraction(0)
            for hi in range(lo + 1, top + 1):
                for h, v in by_rank.get(hi, ()):
                    old = running.get(h, 0)
                    running[h] = new = old + v
                    mass += abs(new) - abs(old)
                if mass > best.get((lo, hi), (0,))[0]:
                    best[(lo, hi)] = (mass, gid)
    return best


def run_functional_suite(universe: Universe, rng: random.Random) -> SuiteReport:
    checks: list[CheckResult] = []

    bad = ""
    for gid in universe.ids():
        coords = d_coords_of(universe, d_vector(universe, gid))
        if coords != {gid: Fraction(1)}:
            bad = f"row {gid} is not a unit row"
            break
    checks.append(
        _check(
            "biorthogonal pairing matrix is the identity",
            not bad,
            bad or f"{len(universe)} x {len(universe)} exact rows",
        )
    )

    widest = _widest_window_columns(universe)

    def window_mass(lo: int, hi: Optional[int]) -> tuple[Fraction, str]:
        worst, gid = widest.get((lo, universe.max_rank if hi is None else hi), (0, 0))
        if not worst:
            return Fraction(0), ""
        return worst, f"window ({lo}, {hi if hi is not None else 'top'}] at element {gid}"

    initial = Fraction(0)
    initial_note = ""
    for q in range(1, universe.max_rank + 1):
        mass, note = window_mass(0, q)
        if mass > initial:
            initial, initial_note = mass, note
    bound = 1 / (1 - 2 * universe.config.weight(1))
    checks.append(
        _check(
            "initial projections have summable-side norm within the bound",
            initial <= bound,
            f"max column mass {format_rational(initial)} <= {format_rational(bound)} "
            f"({initial_note})",
        )
    )

    general = Fraction(0)
    general_note = ""
    for lo in range(0, universe.max_rank + 1):
        for hi in [None, *range(lo + 1, universe.max_rank + 1)]:
            mass, note = window_mass(lo, hi)
            if mass > general:
                general, general_note = mass, note
    checks.append(
        CheckResult(
            "general window masses (reported)",
            INFO,
            f"max column mass {format_rational(general)} ({general_note}); "
            "tails on a truncation may exceed the initial-segment bound",
        )
    )

    round_ok = True
    for gid in universe.ids():
        if to_e_basis(universe, to_d_basis(universe, e_star(gid))) != e_star(gid):
            round_ok = False
            break
        one_d = Functional(D_BASIS, {gid: Fraction(1)})
        if to_d_basis(universe, to_e_basis(universe, one_d)) != one_d:
            round_ok = False
            break
    for _ in range(25):
        f = _random_functional(universe, rng, E_BASIS)
        if to_e_basis(universe, to_d_basis(universe, f)) != f:
            round_ok = False
        g = _random_functional(universe, rng, D_BASIS)
        if to_d_basis(universe, to_e_basis(universe, g)) != g:
            round_ok = False
    checks.append(_check("basis round trips", round_ok))

    analysis_ok = True
    analysis_detail = ""
    for gid in universe.ids():
        el = universe.element(gid)
        if el.kind == BASE:
            continue
        target = e_star(gid)
        analysis = evaluation_analysis(universe, gid)
        for windowed in (False, True):
            if analysis_functional(universe, analysis, windowed) != target:
                analysis_ok = False
                analysis_detail = f"full form differs at element {gid}"
        for start in range(1, analysis.age):
            if analysis_functional(universe, analysis, True, start) != target:
                analysis_ok = False
                analysis_detail = f"partial form {start} differs at element {gid}"
        if not analysis_ok:
            break
    checks.append(
        _check("evaluation analysis rebuilds every element", analysis_ok, analysis_detail)
    )

    extension_ok = True
    for q in range(1, universe.max_rank):
        pool = [g for g in universe.ids() if universe.element(g).rank <= q]
        for _ in range(3):
            chosen = rng.sample(pool, min(3, len(pool)))
            data = {g: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for g in chosen}
            x = extend(universe, dict(synthesize(universe, data, q).coords), q)
            back = d_coords_of(universe, x)
            if back != {g: c for g, c in data.items() if c != 0}:
                extension_ok = False
    checks.append(_check("extensions stay spanned below their cut", extension_ok))

    return SuiteReport("functional", tuple(checks))


# -- shift suite ------------------------------------------------------------------------


def run_shift_suite(
    universe: Universe, rng: random.Random, duality_samples: int = 1000
) -> SuiteReport:
    checks: list[CheckResult] = []
    cfg = universe.config
    k = cfg.k

    table = FMapTable.from_universe(universe)
    faults = table.check(universe)
    checks.append(_check("combinatorial table laws", not faults, "; ".join(faults[:3])))

    nil_ok = all(universe.f_iterate(g, k) is None for g in universe.ids())
    base_ids = universe.level(1)
    depth_ok = bool(base_ids) and nilpotency_index(universe, base_ids[-1]) == k
    checks.append(
        _check(
            "operator power k annihilates, power k-1 does not",
            nil_ok and depth_ok,
            f"degree {k} witnessed on the base level",
        )
    )

    dual_ok = True
    for _ in range(duality_samples):
        f = _random_functional(universe, rng, rng.choice((E_BASIS, D_BASIS)))
        x = _random_vector(universe, rng)
        if pairing(universe, s_star(universe, f), x) != pairing(
            universe, f, s_apply(universe, x)
        ):
            dual_ok = False
            break
    checks.append(
        _check(
            "pushforward and pullback are adjoint",
            dual_ok,
            f"{duality_samples} seeded pairs",
        )
    )

    preimage_ok = True
    for delta in universe.ids():
        lhs = s_apply(universe, d_vector(universe, delta))
        rhs: Vector = Vector({}, universe.max_rank)
        for gamma in universe.f_preimages_of(delta):
            rhs = rhs.plus(d_vector(universe, gamma))
        if lhs.coords != rhs.coords:
            preimage_ok = False
            break
    checks.append(
        _check(
            "pullback of a basis vector sums its preimages",
            preimage_ok,
            f"exhaustive over {len(universe)} elements",
        )
    )

    basis_ok = True
    for _ in range(25):
        f = _random_functional(universe, rng, D_BASIS)
        if to_e_basis(universe, s_star(universe, f)) != s_star(
            universe, to_e_basis(universe, f)
        ):
            basis_ok = False
    checks.append(_check("pushforward respects the basis change", basis_ok))

    commute_ok = True
    for p in range(0, universe.max_rank + 1):
        for _ in range(8):
            f = _random_functional(universe, rng, E_BASIS)
            left = s_star(universe, project_star(universe, p, None, f))
            right = project_star(universe, p, None, s_star(universe, f))
            if to_d_basis(universe, left) != to_d_basis(universe, right):
                commute_ok = False
    checks.append(_check("pushforward commutes with tail restriction", commute_ok))

    rank = shift_power_family_rank(universe)
    checks.append(
        _check(
            "operator powers are independent",
            rank == k,
            f"family rank {rank}, expected {k}",
        )
    )

    jordan = jordan_block(k)
    power = toeplitz_repr(tuple([Fraction(1)] + [Fraction(0)] * (k - 1)))
    for _ in range(k):
        power = power.multiply(jordan)
    matrix_ok = power.is_zero
    before = toeplitz_repr(tuple([Fraction(1)] + [Fraction(0)] * (k - 1)))
    for _ in range(k - 1):
        before = before.multiply(jordan)
    matrix_ok = matrix_ok and not before.is_zero
    for _ in range(20):
        a = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k))
        b = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k))
        prod = toeplitz_repr(a).multiply(toeplitz_repr(b))
        if prod != toeplitz_repr(truncated_poly_product(a, b, k)):
            matrix_ok = False
    checks.append(_check("scalar matrix model is multiplicative and nilpotent", matrix_ok))

    witness_checks_ok = True
    witness_detail = ""
    try:
        lam_sets = [tuple(Fraction(int(i == t)) for i in range(k)) for t in range(k)]
        for _ in range(5):
            lam_sets.append(
                tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k))
            )
        pairs = 0
        for j in range(k):
            for rank_n in range(2, universe.max_rank):
                for rank_m in range(rank_n + 1, universe.max_rank + 1):
                    for lams in lam_sets:
                        got = compact_witness(universe, j, rank_n, rank_m, lams)
                        want = 2 * sum(
                            (abs(lams[i]) for i in range(j + 1)), Fraction(0)
                        )
                        if got != want:
                            witness_checks_ok = False
                            witness_detail = (
                                f"family {j}, ranks ({rank_n}, {rank_m}): "
                                f"{format_rational(got)} != {format_rational(want)}"
                            )
                        pairs += 1
        if witness_checks_ok:
            witness_detail = f"{pairs} exact differences"
        checks.append(
            _check("compact difference family exposes each scalar", witness_checks_ok, witness_detail)
        )
    except UniverseError as err:
        singleton_net = cfg.max_support == 1 and cfg.denominator_bound == 1
        checks.append(
            CheckResult(
                "compact difference family exposes each scalar",
                FAIL if singleton_net else WARN,
                f"witness family unavailable: {err}",
            )
        )

    return SuiteReport("shift", tuple(checks))


# -- sequence suite -------------------------------------------------------------------


def run_sequence_suite(universe: Universe, rng: random.Random) -> SuiteReport:
    checks: list[CheckResult] = []
    cfg = universe.config
    regime = cfg.regime

    if universe.max_rank < 4:
        return SuiteReport(
            "sequence",
            (
                CheckResult(
                    "sequence laboratory",
                    INFO,
                    "universe too shallow for the canned instances (needs 4 levels)",
                ),
            ),
        )

    xs = [
        d_vector(universe, universe.level(2)[0]),
        d_vector(universe, universe.level(4)[0]),
    ]
    seq = block_sequence(universe, xs)
    constant = minimal_ris_constant(universe, seq)
    cert = validate_ris(universe, seq, constant)
    checks.append(
        _check(
            "rapid-increase certificate at its exact constant",
            cert.certifies,
            f"constant {format_rational(constant)}; " + "; ".join(cert.violations[:2]),
        )
    )

    shifted_cert = validate_ris(universe, shifted_sequence(universe, seq), constant, cert.j_seq)
    checks.append(
        _check(
            "certificates survive the shift",
            shifted_cert.certifies,
            "; ".join(shifted_cert.violations[:2]),
        )
    )

    checks.append(_constructed_pair_check(universe, regime))
    checks.extend(_linked_chain_checks(universe, regime))
    checks.extend(_estimate_checks(universe, regime))

    return SuiteReport("sequence", tuple(checks))


def _constructed_pair_check(universe: Universe, regime: str) -> CheckResult:
    base_rank = universe.max_rank
    r1 = base_rank + 2
    r2 = r1 + 2
    base0 = universe.level(1)[0]
    try:
        phi = [
            universe.intern(t1_candidate(r, 0, 2, BFunctional.zero())) for r in (r1, r2)
        ]
        theta = [
            universe.intern(t1_candidate(r, 0, 2, BFunctional.singleton(base0)))
            for r in (r1, r2)
        ]
        xs = [d_vector(universe, g) for g in theta]
        built = build_exact_pair(
            universe,
            xs,
            cuts=(r1 - 1, r1 + 1, r2 + 1),
            bs=[BFunctional.singleton(phi[0]), BFunctional.singleton(phi[1])],
            j=1,
        )
    except UniverseError as err:
        return CheckResult("constructed pair identities", FAIL, str(err))
    best = minimal_pair_constant(universe, built.z, built.eta, built.j)
    report = check_exact_pair(universe, built.z, built.eta, best, built.j)
    ok = built.identity_ok and report.identity_ok and report.certifies
    return _check(
        "constructed pair identities",
        ok,
        f"element {built.eta}, orbit exactly zero, certifies at constant "
        f"{format_rational(best)}",
    )


def _linked_chain_checks(universe: Universe, regime: str) -> list[CheckResult]:
    checks: list[CheckResult] = []
    try:
        cert = build_dependent_sequence(universe, DefaultPairSupplier(), j0=1, length=1)
    except UniverseError as err:
        return [CheckResult("linked chain of length one", FAIL, str(err))]
    magnitude_bad = [
        c.name
        for c in cert.clauses
        if c.kind == MAGNITUDE and c.status not in (PASS, INFO)
    ]
    if not cert.identity_ok:
        checks.append(
            CheckResult("linked chain of length one", FAIL, "identity clause failed")
        )
    elif magnitude_bad:
        checks.append(
            CheckResult(
                "linked chain of length one",
                _graded(regime),
                "magnitude clauses beyond this configuration: " + ", ".join(magnitude_bad),
            )
        )
    else:
        checks.append(
            CheckResult(
                "linked chain of length one",
                PASS,
                f"chain element {cert.xi_chain[-1]}, weight indices {list(cert.weight_indices)}",
            )
        )

    try:
        longer = build_dependent_sequence(universe, DefaultPairSupplier(), j0=1, length=2)
    except SupplierExhausted as err:
        checks.append(
            CheckResult(
                "chain extension stops honestly",
                PASS,
                f"stopped at clause '{err.clause}': {err.detail}",
            )
        )
    except UniverseError as err:
        checks.append(CheckResult("chain extension stops honestly", FAIL, str(err)))
    else:
        checks.append(
            _check(
                "chain extension stops honestly",
                longer.identity_ok,
                f"extended to length 2 with weights {list(longer.weight_indices)}",
            )
        )
    return checks


def _estimate_checks(universe: Universe, regime: str) -> list[CheckResult]:
    checks: list[CheckResult] = []
    zero = Vector({}, universe.max_rank)
    base0 = universe.level(1)[0]
    instances = [
        ("zero sequence", RISInstance((zero,), Fraction(1), 1)),
        ("base basis vector", RISInstance((d_vector(universe, base0),), Fraction(1), 1)),
    ]
    for label, instance in instances:
        cert = validate_ris(
            universe,
            block_sequence(universe, list(instance.vectors)),
            instance.constant,
        )
        reports = evaluate_estimates(universe, instance)
        bad: list[str] = []
        for report in reports:
            for clause in report.clauses:
                if clause.status == FAIL:
                    bad.append(f"{report.name}/{clause.name}")
        name = f"inequality diagnostics ({label})"
        if not cert.certifies:
            checks.append(CheckResult(name, FAIL, "instance fails its certificate"))
        elif bad:
            checks.append(CheckResult(name, _graded(regime), ", ".join(bad[:3])))
        else:
            margins = [
                f"{r.name}: margin {clause.margin}"
                for r in reports
                for clause in r.clauses
                if clause.margin
            ]
            checks.append(CheckResult(name, PASS, "; ".join(margins[:3])))

    search = lower_bound_search(universe, [d_vector(universe, base0)], 1)
    checks.append(
        _check(
            "lower-bound witness search",
            search.satisfied,
            (
                f"witness {search.witness}, value {format_rational(search.lhs)} "
                f">= {format_rational(search.rhs)}"
                if search.witness is not None
                else "no witness of the required weight"
            ),
            fail_status=_graded(regime),
        )
    )
    return checks


# -- top level ---------------------------------------------------------------------------


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "gamma": run_gamma_suite,
    "functional": run_functional_suite,
    "shift": run_shift_suite,
    "sequence": run_sequence_suite,
}


def run_verification(
    config: ConstructionConfig,
    suites: Optional[Sequence[str]] = None,
    seed: int = 0,
    timings: bool = False,
) -> VerificationReport:
    """Build a fresh universe from the config and run the selected suites."""
    import time

    chosen = list(SUITE_ORDER) if not suites else [s for s in SUITE_ORDER if s in suites]
    unknown = [] if not suites else [s for s in suites if s not in SUITES]
    if unknown:
        raise UniverseError(f"unknown suites: {', '.join(sorted(unknown))}")
    universe = build_universe(config)
    level_counts = universe.level_counts()
    fingerprint = universe.fingerprint()
    element_count = len(universe)
    reports: list[SuiteReport] = []
    clock: dict[str, str] = {}
    for name in chosen:
        rng = random.Random(seed if seed else 0)
        started = time.perf_counter()
        reports.append(SUITES[name](universe, rng))
        clock[name] = f"{time.perf_counter() - started:.3f}"
    notes = list(universe.notes)
    if universe.interior_interns:
        notes.append(
            f"constructions interned {universe.interior_interns} elements below the top rank"
        )
    if "sequence" in chosen and len(universe) != element_count:
        notes.append(
            f"sequence suite grew the universe from {element_count} to {len(universe)} elements"
        )
    return VerificationReport(
        config=config.to_json_dict(),
        element_count=element_count,
        level_counts=level_counts,
        fingerprint=fingerprint,
        suites=tuple(reports),
        notes=tuple(notes),
        seed=seed,
        timings=clock if timings else None,
    )
