"""Verification suites over a materialized universe.

Four suites, each a table of named checks with exact outcomes:

* ``gamma``      -- admissibility, level structure, the numbering and its
                    membership sets, shift closure, rebuild determinism;
* ``functional`` -- biorthogonality of the two coordinate systems, interval
                    projection norms, basis round trips, the step-by-step
                    evaluation identities, extension uniqueness;
* ``shift``      -- the operator's combinatorial table, nilpotency, duality
                    between pushforward and pullback and its agreement with
                    the basis change, commutation with tail restrictions,
                    independence of the operator powers, the scalar matrix
                    model, compact difference families;
* ``sequence``   -- certificates and constructions from the sequence
                    laboratory evaluated on canned instances, with the
                    inequality diagnostics reported at exact constants.

A table entry is a ``Check(name, kind, run)`` whose ``run`` returns
``(ok, detail)``, or a function that returns several
``(name, kind, ok, detail)`` outcomes computed from shared work.  Entries run
in table order and take only the universe: no check draws from a generator.

A linear identity that holds on a basis holds everywhere, so the basis round
trips, the extensions, the duality of pushforward and pullback, its
agreement with the basis change, the pullback of basis vectors, tail
commutation and the scalar matrix model are checked on every basis element,
which proves them; the extension, duality, basis-change and preimage-sum
checks count the elements they covered, or the violations with the first of
them.  The shift table has one owner, the universe's image and preimage
maps, with one push rule (``Universe.push``); the table laws are read off
the maps, and the power rank and the compact-difference family are proved
from the map's orbits.

Every per-element identity runs on integers.  The shift proofs feed integer
units to the real pushforward, pullback and tail restriction; the functional
proofs run on the coding-row store's integer kernels.
Both compare integer numerators over a common denominator by
cross-multiplication and build a ``Fraction`` only for a value they report.
The preimage sums follow from the duality, basis-change and unit-row proofs,
but stay a check of their own, so that they hold whichever suites run.

One rule grades every outcome, ``sequences.grade``, the rule that grades the
certificates' clauses too: an info-kind check is INFO, a check that holds is
PASS, and a check that fails is FAIL unless its kind has an excuse that holds
for the universe (``_grade``), which makes it WARN.  Identity checks
have no excuse.  Magnitude checks are excused under the relaxed regime,
because their derivations assume growth conditions a desk-sized
configuration cannot satisfy, and the ``net`` check (the compact-difference
witness family) on any net but the singleton one.  The sequence suite
interns new elements, so it always runs last and its effect is disclosed in
the report notes.
"""

from fractions import Fraction
from itertools import product
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from .algebra import (
    D_BASIS,
    E_BASIS,
    Functional,
    IntCoords,
    Vector,
    coding_rows,
    d_vector,
    evaluation_analysis,
    project_star,
    to_integers,
)
from .config import RELAXED, ConstructionConfig
from .elements import BASE, BFunctional, describe, t1_candidate
from .sequences import (
    FAIL,
    IDENTITY,
    INFO_KIND,
    MAGNITUDE,
    PASS,
    STATUS_ORDER,
    ConstructionFailure,
    SupplierExhausted,
    build_dependent_sequence,
    build_exact_pair,
    carried_weights_decrease,
    estimate_lower_bound,
    estimate_ris_averages,
    grade,
    lower_bound_search,
    minimal_ris_constant,
    block_sequence,
    shifted_sequence,
    validate_ris,
    worst_status,
)
from .serialize import format_rational
from .shift import (
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

# A check kind beyond the sequence laboratory's; the module docstring gives its excuse.
NET = "net"

SUITE_ORDER = ("gamma", "functional", "shift", "sequence")

SCHEMA = "bdlab.verify/1"


class CheckResult(NamedTuple):
    name: str
    status: str
    detail: str = ""

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        return out


class SuiteReport(NamedTuple):
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def status(self) -> str:
        """The most severe check status; a suite of INFO checks is PASS."""
        return max(worst_status(self.checks), PASS, key=STATUS_ORDER.index)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "checks": [c.to_json_dict() for c in self.checks],
        }


class VerificationReport(NamedTuple):
    config: dict[str, Any]
    element_count: int
    level_counts: dict[int, int]
    fingerprint: str
    suites: tuple[SuiteReport, ...]
    notes: tuple[str, ...]
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
        lines.append(f"result: {FAIL if self.has_fail else PASS}")
        return lines


Outcome = tuple[str, str, bool, str]  # check name, kind, ok, detail
Run = Callable[[Universe], tuple[bool, str]]


class Check(NamedTuple):
    """A table entry with a single outcome: ``run`` returns ``(ok, detail)``."""

    name: str
    kind: str
    run: Run

    def __call__(self, universe: Universe) -> list[Outcome]:
        ok, detail = self.run(universe)
        return [(self.name, self.kind, ok, detail)]


# A table entry: a Check, or a function returning several outcomes computed
# from shared work.
Entry = Callable[[Universe], Iterable[Outcome]]

# A failed check whose kind has an excuse that holds for the universe is WARN.
_EXCUSES: dict[str, Callable[[Universe], bool]] = {
    MAGNITUDE: lambda u: u.config.regime == RELAXED,
    NET: lambda u: not u.config.singleton_net,
}


def _grade(universe: Universe, kind: str, ok: bool) -> str:
    """``grade``, with the excuse of the check's kind, if any, for the universe."""
    excused = _EXCUSES.get(kind)
    return grade(kind, ok, excused is not None and excused(universe))


def _run_table(name: str, table: Sequence[Entry], universe: Universe) -> SuiteReport:
    results = [
        CheckResult(check, _grade(universe, kind, ok), detail)
        for entry in table
        for check, kind, ok, detail in entry(universe)
    ]
    return SuiteReport(name, tuple(results))


def _first_violation(probe: Callable[[Universe, int], str]) -> Run:
    """A check that holds when ``probe`` reports nothing for any element;
    its detail is the first report, in id order."""

    def run(universe: Universe) -> tuple[bool, str]:
        found = next(filter(None, (probe(universe, g) for g in universe.ids())), "")
        return not found, found

    return run


def _exhaustive(universe: Universe, violated: Callable[[int], bool]) -> tuple[bool, str]:
    """A basis identity checked at every element: the detail counts the
    elements, or the violations with the first of them, in id order."""
    bad = [g for g in universe.ids() if violated(g)]
    if not bad:
        return True, f"exhaustive over {len(universe)} elements"
    first = describe(universe.element(bad[0]))
    return False, f"{len(bad)} of {len(universe)} elements violate it; first {first}"


# -- gamma suite -------------------------------------------------------------------


def _revalidation_fault(universe: Universe, gid: int) -> str:
    violations = universe.validate_candidate(universe.element(gid))
    return f"element {gid}: {violations[0]}" if violations else ""


def _level_structure(universe: Universe) -> tuple[bool, str]:
    base_level = universe.level(1)
    ok = len(base_level) == universe.config.k and all(
        universe.element(g).index == i for i, g in enumerate(base_level)
    )
    for rank in range(1, universe.max_rank + 1):
        level = universe.level(rank)
        if not level or any(universe.element(g).rank != rank for g in level):
            ok = False
    return ok, f"{universe.max_rank} levels, base width {len(base_level)}"


def _ranks_climb(members: Callable[[Universe, int], Iterable[int]], offence: str) -> Run:
    """A check that each rank's members lie above every member of the ranks
    below it.  ``offence`` names the first rank that does not (``{rank}``
    and ``{below}`` are filled in)."""

    def run(universe: Universe) -> tuple[bool, str]:
        top = 0
        for rank in range(1, universe.max_rank + 1):
            values = set().union(*(members(universe, g) for g in universe.level(rank)))
            if values and top and min(values) <= top:
                return False, offence.format(rank=rank, below=rank - 1)
            top = max([top, *values])
        return True, ""

    return run


def _membership(universe: Universe) -> list[Outcome]:
    """The four membership-set checks, on each element's sigma-set read once."""
    sets = {g: universe.sigma_set(g) for g in universe.ids()}
    recomputed: dict[int, set[int]] = {g: set() for g in sets}
    for gid in sets:
        cur: Optional[int] = gid
        for _ in range(universe.config.k):
            if cur is None:
                break
            recomputed[cur].add(universe.sigma(gid))
            cur = universe.f_image_of(cur)
    orbits = all(frozenset(recomputed[g]) == members for g, members in sets.items())

    def monotone(gid: int) -> bool:
        image = universe.f_image_of(gid)
        return image is None or sets[gid] <= sets[image]

    by_sigma = {universe.sigma(g): g for g in sets}

    def identifies(delta: int) -> bool:
        """Each member names an element whose orbit reaches delta."""
        for value in sets[delta]:
            gamma = by_sigma.get(value)
            if gamma is None or delta not in (
                universe.f_iterate(gamma, j) for j in range(universe.config.k)
            ):
                return False
        return True

    overlap = "membership overlap between ranks at {rank}"
    separated = _ranks_climb(lambda u, g: sets[g], overlap)(universe)
    return [
        ("membership sets match the orbit definition", IDENTITY, orbits, ""),
        ("membership monotone under the shift", IDENTITY, all(map(monotone, sets)), ""),
        ("membership separated by rank", IDENTITY, *separated),
        ("membership identifies chain position", IDENTITY, all(map(identifies, sets)), ""),
    ]


def _carried_weights(universe: Universe) -> tuple[bool, str]:
    """The weights carried along each odd-weight element's analysis decrease;
    the detail counts the elements that carry any, so vacuity shows."""
    odd = [g for g in universe.ids() if universe.element(g).odd_weight]
    carrying = 0
    for gid in odd:
        steps = evaluation_analysis(universe, gid).steps
        carried = [universe.element(s.b.terms[0][0]).weight_idx for s in steps if s.b.terms]
        if not carried_weights_decrease(carried):
            return False, f"element {gid} carries non-decreasing weights"
        carrying += bool(carried)
    return True, f"{carrying} of {len(odd)} odd-weight elements carry a weight"


def _image_law_fault(universe: Universe, gid: int) -> str:
    image = universe.f_image_of(gid)
    if image is None:
        return ""
    el, im = universe.element(gid), universe.element(image)
    if el.rank != im.rank or el.weight_idx != im.weight_idx or im.age > el.age:
        return f"element {gid} -> {image} breaks a preserved quantity"
    return ""


def _rebuild_determinism(universe: Universe) -> tuple[bool, str]:
    fingerprint = universe.fingerprint()
    twin = build_universe(universe.config)
    same = twin.fingerprint() == fingerprint and len(twin) == len(universe)
    return same, f"fingerprint {fingerprint[:16]}..."


_GAMMA: tuple[Entry, ...] = (
    Check("element revalidation", IDENTITY, _first_violation(_revalidation_fault)),
    Check("level structure", IDENTITY, _level_structure),
    Check(
        "numbering exceeds rank",
        IDENTITY,
        lambda u: (all(u.sigma(g) > u.element(g).rank for g in u.ids()), ""),
    ),
    Check(
        "numbering injective",
        IDENTITY,
        lambda u: (len({u.sigma(g) for g in u.ids()}) == len(u), ""),
    ),
    Check(
        "numbering dominates lower ranks",
        IDENTITY,
        _ranks_climb(
            lambda u, g: {u.sigma(g)}, "rank {rank} numbering does not clear rank {below}"
        ),
    ),
    _membership,
    Check("odd-weight carried weights decrease", IDENTITY, _carried_weights),
    Check("shift image laws", IDENTITY, _first_violation(_image_law_fault)),
    Check("rebuild determinism", IDENTITY, _rebuild_determinism),
)


def run_gamma_suite(universe: Universe) -> SuiteReport:
    return _run_table("gamma", _GAMMA, universe)


# -- functional suite -----------------------------------------------------------------


# A column as (denominator, rank -> (e*-id, numerator) entries).
Column = tuple[int, dict[int, list[tuple[int, int]]]]


def _window_column(universe: Universe, gid: int) -> Column:
    """Column gid, the e*-form of the d-row that ``CodingRows.to_d`` gives
    for e*_gid, split by the rank of the d-coordinate that contributes each
    entry; the e*-form of the window (lo, hi] restriction sums the entries of
    the ranks in (lo, hi].
    All entries are numerators over the d-row's denominator, since each
    numerator of a d-row is a multiple of its own row's denominator."""
    rows = coding_rows(universe)
    rank, num, den = rows.rank, rows.num, rows.den
    d, q = rows.to_d({gid: 1}, 1)
    column: dict[int, list[tuple[int, int]]] = {}
    for g, a in d.items():
        part = column.setdefault(rank[g], [])
        part.append((g, a))
        part.extend((h, -(a // den[g]) * c) for h, c in num[g].items())
    return q, column


def _heaviest_windows(
    columns: Iterable[tuple[int, Column]],
) -> tuple[tuple[Fraction, str], tuple[Fraction, str]]:
    """The largest l1 mass of a column's window restriction over the initial
    windows (0, q] and over all windows (lo, hi], each with a note naming the
    first window, in report order, and then the smallest gid that attain it
    (0 and no note when every mass is 0).  Columns come in ascending gid.

    A column's mass only changes where a window bound crosses one of its own
    ranks r_1 < ... < r_m.  The windows that keep ranks r_i..r_j form one
    block, lo in [r_(i-1), r_i) and hi in [r_j, r_(j+1)) (up to the top for
    j = m), and within a block only the window that comes first in report
    order (lo ascending, then hi = top, then lo+1..top) can be the witness.
    So each column is one pass over pairs of its ranks, streamed into the two
    running maxima, whose masses are compared by cross-multiplication.
    """
    # (mass numerator, its denominator, first window's position in report order, gid)
    initial: tuple[int, int, int, int] = (0, 1, 0, -1)
    general: tuple[int, int, tuple[int, int], int] = (0, 1, (-1, 0), -1)
    for gid, (scale, column) in columns:
        ranks = sorted(column)
        parts = [column[r] for r in ranks]
        for i in range(len(ranks)):
            lo = ranks[i - 1] if i else 0
            running: dict[int, int] = {}
            total = 0
            for j in range(i, len(ranks)):
                for h, v in parts[j]:
                    old = running.get(h, 0)
                    running[h] = new = old + v
                    total += abs(new) - abs(old)
                # hi = top comes first for each lo; 0 stands for it
                hi = 0 if j + 1 == len(ranks) else ranks[j]
                versus = total * general[1] - general[0] * scale
                if versus > 0 or (versus == 0 and (lo, hi) < general[2]):
                    general = (total, scale, (lo, hi), gid)
                if not i:
                    versus = total * initial[1] - initial[0] * scale
                    if versus > 0 or (versus == 0 and ranks[j] < initial[2]):
                        initial = (total, scale, ranks[j], gid)
    initial_note = general_note = ""
    if initial[0]:
        initial_note = f"window (0, {initial[2]}] at element {initial[3]}"
    if general[0]:
        (lo, hi), gid = general[2], general[3]
        general_note = f"window ({lo}, {hi or 'top'}] at element {gid}"
    return (
        (Fraction(initial[0], initial[1]), initial_note),
        (Fraction(general[0], general[1]), general_note),
    )


def _scaled(coords: IntCoords, t: int) -> IntCoords:
    return {g: v * t for g, v in coords.items()}


def _unit_row_fault(universe: Universe, gid: int) -> str:
    rows, top = coding_rows(universe), universe.max_rank
    coords, q = rows.read_off(*rows.synthesize({gid: 1}, 1, top), top)
    return "" if coords == {gid: q} else f"row {gid} is not a unit row"


def _unit_rows(universe: Universe) -> tuple[bool, str]:
    ok, bad = _first_violation(_unit_row_fault)(universe)
    return ok, bad or f"{len(universe)} x {len(universe)} exact rows"


def _window_masses(universe: Universe) -> list[Outcome]:
    """The initial-segment bound 1/(1 - 2/m_1) on the column masses of the
    window projections, a magnitude check, and the largest mass over all
    windows, reported; both from one streamed pass over the columns."""
    (initial, initial_note), (general, general_note) = _heaviest_windows(
        (gid, _window_column(universe, gid)) for gid in universe.ids()
    )
    bound = 1 / (1 - 2 * universe.config.weight(1))
    return [
        (
            "initial projections have summable-side norm within the bound",
            MAGNITUDE,
            initial <= bound,
            f"max column mass {format_rational(initial)} <= {format_rational(bound)} "
            f"({initial_note})",
        ),
        (
            "general window masses (reported)",
            INFO_KIND,
            True,
            f"max column mass {format_rational(general)} ({general_note}); "
            "tails on a truncation may exceed the initial-segment bound",
        ),
    ]


def _round_trips(universe: Universe) -> tuple[bool, str]:
    """Both conversions are linear, so round trips of every e*- and d*-unit
    functional prove them mutually inverse."""
    rows = coding_rows(universe)

    def round_trip(gid: int, there: Callable, back: Callable) -> bool:
        coords, q = back(*there({gid: 1}, 1))
        return coords == {gid: q}

    ok = all(
        round_trip(g, rows.to_d, rows.to_e) and round_trip(g, rows.to_e, rows.to_d)
        for g in universe.ids()
    )
    return ok, ""


def _analysis_fault(universe: Universe, gid: int) -> str:
    """The last form of the element's analysis that differs from e*_gid.

    Along the chain xi_0, ..., xi_(a-1) = gid with cuts p_(-1) < p_0 < ...,
    step r contributes the piece d*_(xi_r) plus beta times its combination
    projected on (p_(r-1), p_r] (windowed) or on (p_(r-1), infinity).  The
    full forms sum every step's piece; partial form t (1 <= t < a) puts
    e*_(xi_(t-1)) in place of the first t steps and sums the windowed
    pieces of the rest.  Each form should be e*_gid.

    The forms telescope, so all of them hold exactly when each chain
    element's own piece, windowed and unwindowed, is e*_(xi_r) minus
    e*_(xi_(r-1)) (minus nothing at age 1); as d*_gid = e*_gid - c*_gid,
    that is beta times the projected combination equal to c*_gid minus
    e*_(xi_(a-2)).  Every chain element comes before gid in id order and is
    itself checked, so the first element whose own piece differs is the
    first whose forms differ, and its last differing form is partial form
    a-1 when the windowed piece differs (age a > 1), else a full form.
    """
    if universe.element(gid).kind == BASE:
        return ""
    rows = coding_rows(universe)
    analysis = evaluation_analysis(universe, gid)
    beta = universe.config.weight(analysis.weight_idx)
    step, lo = analysis.steps[-1], analysis.cut_points()[-2]
    b, q = rows.to_d(*to_integers(dict(step.b.items())))
    # c*_gid - e*_(xi_(a-2)) as numerators over the row's denominator
    row, den = dict(rows.num[gid]), rows.den[gid]
    if analysis.age > 1:
        previous = analysis.steps[-2].xi
        row[previous] = row.get(previous, 0) - den
    row = {g: v for g, v in row.items() if v}
    checked = None
    for hi in (step.p, None):
        kept = rows.restrict(b, lo, hi)
        if kept == checked:
            continue  # the unwindowed piece is the windowed one, already checked
        checked = kept
        tail, tq = rows.to_e(kept, q)
        if _scaled(tail, beta.numerator * den) != _scaled(row, tq * beta.denominator):
            if hi is not None and analysis.age > 1:
                return f"partial form {analysis.age - 1} differs at element {gid}"
            return f"full form differs at element {gid}"
    return ""


_analysis_forms = _first_violation(_analysis_fault)


def _extensions(universe: Universe) -> tuple[bool, str]:
    """Data up to a cut q, synthesized, extended to the top and read off
    again is the data, at every cut: proved by checking at every element g
    that extending e_g from rank g to the top is the synthesis of d_g.

    The kernels are linear, so it suffices that the identity holds for each
    e_g and each cut q >= rank g.  Each kernel is one forward substitution in
    (rank, id) order, setting each id it reaches to its datum plus the
    pairing of its row, which mentions only lower ranks, with the values set
    so far; an id it does not reach pairs to zero.  Synthesizing d_g up to q
    sets g to 1 and then substitutes over (rank g, q] with zero data, which
    is extending e_g from rank g to q, and extending on to the top continues
    the same substitution.  So every cut gives the extension from rank g,
    checked here to be the synthesis of d_g, which the unit-row proof reads
    off as e_g."""
    rows, top = coding_rows(universe), universe.max_rank

    def violated(gid: int) -> bool:
        x, xq = rows.extend({gid: 1}, 1, rows.rank[gid], top)
        y, yq = rows.synthesize({gid: 1}, 1, top)
        return _scaled(x, yq) != _scaled(y, xq)

    return _exhaustive(universe, violated)


_FUNCTIONAL: tuple[Entry, ...] = (
    Check("biorthogonal pairing matrix is the identity", IDENTITY, _unit_rows),
    _window_masses,
    Check("basis round trips", IDENTITY, _round_trips),
    Check("evaluation analysis rebuilds every element", IDENTITY, _analysis_forms),
    Check("extensions stay spanned below their cut", IDENTITY, _extensions),
)


def run_functional_suite(universe: Universe) -> SuiteReport:
    return _run_table("functional", _FUNCTIONAL, universe)


# -- shift suite ------------------------------------------------------------------------


def _table_law_fault(universe: Universe, gid: int) -> str:
    """The element's image lists it among its preimages, each of its own
    preimages maps to it, and its image keeps rank, weight and age."""
    image = universe.f_image_of(gid)
    if image is not None and gid not in universe.f_preimages_of(image):
        return f"preimage table misses {gid} -> {image}"
    for pre in universe.f_preimages_of(gid):
        if universe.f_image_of(pre) != gid:
            return f"stale preimage {pre} recorded under {gid}"
    return _image_law_fault(universe, gid)


def _nilpotency(universe: Universe) -> tuple[bool, str]:
    k = universe.config.k
    base_ids = universe.level(1)
    ok = (
        all(universe.f_iterate(g, k) is None for g in universe.ids())
        and bool(base_ids)
        and nilpotency_index(universe, base_ids[-1]) == k
    )
    return ok, f"degree {k} witnessed on the base level"


def _adjoint(universe: Universe) -> tuple[bool, str]:
    """The pushforward sends each e*_gamma to e*_F(gamma), or to zero where F
    is undefined, and the pullback sends each unit vector e_gamma to the sum
    of e_pi over the preimages pi of gamma under F.  So the pullback is the
    transpose of the pushforward on the unit bases, and with the basis-change
    check <S* f, x> = <f, S x> holds for every f in either basis and every x.
    """
    top = universe.max_rank
    preimages: dict[int, list[int]] = {}
    for g in universe.ids():
        image = universe.f_image_of(g)
        if image is not None:
            preimages.setdefault(image, []).append(g)

    def violated(gid: int) -> bool:
        image = universe.f_image_of(gid)
        pushed = Functional(E_BASIS, {} if image is None else {image: 1})
        pulled = dict.fromkeys(preimages.get(gid, ()), 1)
        return (
            s_star(universe, Functional(E_BASIS, {gid: 1})) != pushed
            or s_apply(universe, Vector({gid: 1}, top)).coords != pulled
        )

    return _exhaustive(universe, violated)


def _preimage_sums(universe: Universe) -> tuple[bool, str]:
    """The pullback of each d_delta is the sum of d_gamma over the preimages
    gamma of delta: both sides synthesized on the integer kernel (the sum at
    once, from the preimages' unit data) and cross-multiplied."""
    rows, top = coding_rows(universe), universe.max_rank

    def violated(delta: int) -> bool:
        x, q = rows.synthesize({delta: 1}, 1, top)
        lhs, lq = to_integers(s_apply(universe, Vector(x, top)).coords)
        rhs, rq = rows.synthesize(dict.fromkeys(universe.f_preimages_of(delta), 1), 1, top)
        return _scaled(lhs, rq) != _scaled(rhs, lq * q)

    return _exhaustive(universe, violated)


def _basis_change(universe: Universe) -> tuple[bool, str]:
    """to_e(S* d*_gid) = S* to_e(d*_gid) on every d*-unit, hence on every
    functional: both sides on ``CodingRows.to_e``, cross-multiplied; what the
    pushforward returns enters the kernel through ``to_integers``."""
    rows = coding_rows(universe)

    def violated(gid: int) -> bool:
        pushed = s_star(universe, Functional(D_BASIS, {gid: 1}))
        left, lq = rows.to_e(*to_integers(pushed.coords))
        unit, uq = rows.to_e({gid: 1}, 1)
        right, rq = to_integers(s_star(universe, Functional(E_BASIS, unit)).coords)
        return _scaled(left, rq * uq) != _scaled(right, lq)

    return _exhaustive(universe, violated)


def _tail_fault(universe: Universe, gid: int) -> str:
    """Both sides of S* P*_(p,inf) = P*_(p,inf) S* are linear, and the tail
    restriction keeps or drops a d*-unit whole: d*_gid survives exactly the
    cuts below its rank.  With the basis-change proof, S* d*_gid is d*_F(gid)
    (or zero), and F keeps rank, so on d*_gid both sides are constant on the
    cuts below rank gid and on the cuts from rank gid up.  Checking one cut
    from each range, with the real operators on the integer unit, proves the
    identity for every functional and every cut."""
    unit = Functional(D_BASIS, {gid: 1})
    pushed = s_star(universe, unit)
    rank = universe.element(gid).rank
    for p in (rank - 1, rank):
        left = s_star(universe, project_star(universe, p, None, unit))
        if left != project_star(universe, p, None, pushed):
            return f"element {gid} at cut {p}"
    return ""


def _powers_independent(universe: Universe) -> tuple[bool, str]:
    rank, k = shift_power_family_rank(universe), universe.config.k
    return rank == k, f"family rank {rank}, expected {k}"


def _matrix_model(universe: Universe) -> tuple[bool, str]:
    """The Jordan block has nilpotency degree exactly k, and the Toeplitz
    product agrees with the truncated convolution.  Both products are
    bilinear, so agreement on the k^2 pairs of unit Toeplitz matrices (the
    powers of the Jordan block) proves it on every pair."""
    k = universe.config.k
    units = [tuple(Fraction(int(i == t)) for i in range(k)) for t in range(k)]
    powers = [toeplitz_repr(units[0])]
    for _ in range(k):
        powers.append(powers[-1].multiply(jordan_block(k)))
    agree = all(
        toeplitz_repr(a).multiply(toeplitz_repr(b))
        == toeplitz_repr(truncated_poly_product(a, b, k))
        for a in units
        for b in units
    )
    return powers[k].is_zero and not powers[k - 1].is_zero and agree, ""


def _compact_differences(universe: Universe) -> list[Outcome]:
    """S*^i sends e*_a to e*_(F^i a) or to zero.  F keeps rank, so two
    witnesses' images never cancel, and a nilpotent orbit never repeats, so
    the mass is the sum of |lambda_i| ([F^i a defined] + [F^i b defined]).
    The unit scalars on consecutive ranks pin each family-j orbit at j + 1
    elements, which proves 2 sum(|lambda_i|, i <= j) for all ranks and all
    lambda."""
    name = "compact difference family exposes each scalar"
    k, ranks = universe.config.k, range(2, universe.max_rank)
    try:
        for j, rank, t in product(range(k), ranks, range(k)):
            got = compact_witness(universe, j, rank, rank + 1, [int(i == t) for i in range(k)])
            if got != 2 * (t <= j):
                where = f"family {j}, ranks ({rank}, {rank + 1}), unit scalar {t}"
                detail = f"{where}: {format_rational(got)} != {2 * (t <= j)}"
                return [(name, IDENTITY, False, detail)]
    except UniverseError as err:
        return [(name, NET, False, f"witness family unavailable: {err}")]
    return [(name, IDENTITY, True, f"{k * k * len(ranks)} exact differences")]


_SHIFT: tuple[Entry, ...] = (
    Check("combinatorial table laws", IDENTITY, _first_violation(_table_law_fault)),
    Check("operator power k annihilates, power k-1 does not", IDENTITY, _nilpotency),
    Check("pushforward and pullback are adjoint", IDENTITY, _adjoint),
    Check("pullback of a basis vector sums its preimages", IDENTITY, _preimage_sums),
    Check("pushforward respects the basis change", IDENTITY, _basis_change),
    Check(
        "pushforward commutes with tail restriction", IDENTITY, _first_violation(_tail_fault)
    ),
    Check("operator powers are independent", IDENTITY, _powers_independent),
    Check("scalar matrix model is multiplicative and nilpotent", IDENTITY, _matrix_model),
    _compact_differences,
)


def run_shift_suite(universe: Universe) -> SuiteReport:
    return _run_table("shift", _SHIFT, universe)


# -- sequence suite -------------------------------------------------------------------


def _ris_certificates(universe: Universe) -> list[Outcome]:
    xs = [
        d_vector(universe, universe.level(2)[0]),
        d_vector(universe, universe.level(4)[0]),
    ]
    seq = block_sequence(universe, xs)
    constant = minimal_ris_constant(universe, seq)
    cert = validate_ris(universe, seq, constant)
    shifted = validate_ris(universe, shifted_sequence(universe, seq), constant, cert.j_seq)
    return [
        (
            "rapid-increase certificate at its exact constant",
            IDENTITY,
            cert.certifies,
            f"constant {format_rational(constant)}; " + "; ".join(cert.violations[:2]),
        ),
        (
            "certificates survive the shift",
            IDENTITY,
            shifted.certifies,
            "; ".join(shifted.violations[:2]),
        ),
    ]


def _constructed_pair(universe: Universe) -> tuple[bool, str]:
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
        return False, str(err)
    # the pair certifies at its minimal constant exactly when its identities hold
    return built.identity_ok and built.report.identity_ok, (
        f"element {built.eta}, orbit exactly zero, certifies at constant "
        f"{format_rational(built.report.minimal_constant)}"
    )


def _linked_chains(universe: Universe) -> list[Outcome]:
    name = "linked chain of length one"
    try:
        cert = build_dependent_sequence(universe, j0=1, length=1)
    except UniverseError as err:
        return [(name, IDENTITY, False, str(err))]
    magnitude_bad = [c.name for c in cert.clauses if c.kind == MAGNITUDE and c.status != PASS]
    if not cert.identity_ok:
        first = (name, IDENTITY, False, "identity clause failed")
    elif magnitude_bad:
        detail = "magnitude clauses beyond this configuration: " + ", ".join(magnitude_bad)
        first = (name, MAGNITUDE, False, detail)
    else:
        detail = f"chain element {cert.xi_chain[-1]}, weight indices {list(cert.weight_indices)}"
        first = (name, IDENTITY, True, detail)

    name = "chain extension stops honestly"
    try:
        longer = build_dependent_sequence(universe, j0=1, length=2)
    except SupplierExhausted as err:
        ok, detail = True, f"stopped at clause '{err.clause}': {err.detail}"
    except UniverseError as err:
        ok, detail = False, str(err)
    else:
        ok = longer.identity_ok
        detail = f"extended to length 2 with weights {list(longer.weight_indices)}"
    return [first, (name, IDENTITY, ok, detail)]


def _estimates(universe: Universe) -> list[Outcome]:
    base = (d_vector(universe, universe.level(1)[0]),)
    try:
        # weight index 2 guard; the base vector's estimate and outcome read it
        search = lower_bound_search(universe, base, 1)
    except ConstructionFailure as err:
        return [("inequality diagnostics", IDENTITY, False, str(err))]
    outcomes: list[Outcome] = []
    zero = (Vector({}, universe.max_rank),)
    for label, xs, found in (("zero sequence", zero, None), ("base basis vector", base, search)):
        name = f"inequality diagnostics ({label})"
        cert = validate_ris(universe, block_sequence(universe, xs), 1)
        reports = (estimate_ris_averages(universe, xs, 1, 1), estimate_lower_bound(universe, xs, 1, found))
        bad = [f"{r.name}/{c.name}" for r in reports for c in r.clauses if c.status == FAIL]
        if not cert.certifies:
            outcomes.append((name, IDENTITY, False, "instance fails its certificate"))
        elif bad:
            outcomes.append((name, MAGNITUDE, False, ", ".join(bad[:3])))
        else:
            margins = [
                f"{r.name}: margin {clause.margin}"
                for r in reports
                for clause in r.clauses
                if clause.margin
            ]
            outcomes.append((name, IDENTITY, True, "; ".join(margins[:3])))

    outcomes.append(
        (
            "lower-bound witness search",
            MAGNITUDE,
            search.satisfied,
            (
                f"witness {search.witness}, value {format_rational(search.lhs)} "
                f">= {format_rational(search.rhs)}"
                if search.witness is not None
                else "no witness of the required weight"
            ),
        )
    )
    return outcomes


_SEQUENCE: tuple[Entry, ...] = (
    _ris_certificates,
    Check("constructed pair identities", IDENTITY, _constructed_pair),
    _linked_chains,
    _estimates,
)

_SHALLOW_SEQUENCE: tuple[Entry, ...] = (
    Check(
        "sequence laboratory",
        INFO_KIND,
        lambda u: (True, "universe too shallow for the canned instances (needs 4 levels)"),
    ),
)


def run_sequence_suite(universe: Universe) -> SuiteReport:
    table = _SEQUENCE if universe.max_rank >= 4 else _SHALLOW_SEQUENCE
    return _run_table("sequence", table, universe)


# -- top level ---------------------------------------------------------------------------


SUITES: dict[str, Callable[[Universe], SuiteReport]] = {
    "gamma": run_gamma_suite,
    "functional": run_functional_suite,
    "shift": run_shift_suite,
    "sequence": run_sequence_suite,
}


def run_verification(
    config: ConstructionConfig, suites: Optional[Sequence[str]] = None, timings: bool = False
) -> VerificationReport:
    """Build a fresh universe from the config and run the selected suites."""
    import time

    unknown = sorted(set(suites or ()) - set(SUITES))
    if unknown:
        raise UniverseError(f"unknown suites: {', '.join(s or repr(s) for s in unknown)}")
    chosen = [s for s in SUITE_ORDER if not suites or s in suites]
    universe = build_universe(config)
    level_counts = universe.level_counts()
    fingerprint = universe.fingerprint()
    element_count = len(universe)
    reports: list[SuiteReport] = []
    clock: dict[str, str] = {}
    for name in chosen:
        started = time.perf_counter()
        reports.append(SUITES[name](universe))
        clock[name] = f"{time.perf_counter() - started:.3f}"
    notes = list(config.notes)
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
        timings=clock if timings else None,
    )
