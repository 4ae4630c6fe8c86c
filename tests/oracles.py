"""Independent oracles used by the tests.

Everything here is deliberately naive: dense matrices of Fractions and
textbook Gaussian elimination over the coding rows as stored (``stored_row``
reads ``CodingRows.num`` and ``den``), sharing no code with the package's
sparse back-substitution.  Slow is fine; independent is the point.  The one
exception is ``store_to_d``, which calls ``CodingRows.to_d`` itself, so that
tests can hold the store's basis change against these references.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Optional, Sequence
from weakref import WeakKeyDictionary

from bdlab.algebra import (
    D_BASIS,
    E_BASIS,
    AlgebraError,
    Coords,
    EvaluationAnalysis,
    Functional,
    Vector,
    b_as_functional,
    coding_rows,
    d_coords_of,
    d_vector,
    e_star,
    evaluation_analysis,
    l1_norm,
    project_star,
    sup_norm,
    to_e_basis,
    to_integers,
)
from bdlab.config import STRICT
from bdlab.elements import BASE, TYPE1, TYPE2, GammaElement, describe
from bdlab.sequences import (
    INFO,
    INFO_KIND,
    ClauseResult,
    EstimateReport,
    SearchResult,
    _bound_clause,
    block_sequence,
    greedy_j_seq,
)
from bdlab.serialize import format_rational
from bdlab.shift import compact_witness, s_apply, s_star
from bdlab.universe import Universe, UniverseError

Matrix = list[list[Fraction]]

# Coding rows as Fractions, one read per stored row: a stored row never
# changes, and a row replaced in the store is read again.
_ROW_READS: "WeakKeyDictionary[Universe, dict[int, tuple[object, Coords]]]" = WeakKeyDictionary()


def stored_row(universe: Universe, gid: int) -> Coords:
    """The coding row of gid in e*-coordinates, each stored numerator over
    the row's denominator, memoized per stored row."""
    store = coding_rows(universe)
    num = store.num[gid]
    reads = _ROW_READS.setdefault(universe, {})
    read = reads.get(gid)
    if read is None or read[0] is not num:
        den = store.den[gid]
        read = reads[gid] = (num, {h: Fraction(v, den) for h, v in num.items()})
    return read[1]


def store_to_d(universe: Universe, coords: Coords) -> Coords:
    """d*-coordinates of e*-coordinates by the store's own kernel,
    ``CodingRows.to_d``, in its output order."""
    d, q = coding_rows(universe).to_d(*to_integers(coords))
    return {g: Fraction(v, q) for g, v in d.items()}


def dstar_matrix(universe: Universe) -> Matrix:
    """Dense matrix M with M[i][j] = coefficient of e*_j in d*_i.

    Row i is e*_i minus the coding functional of element i, so M is
    unitriangular when ids are ordered by rank (which interning guarantees).
    """
    n = len(universe)
    rows: Matrix = []
    for gid in range(n):
        row = [Fraction(0)] * n
        row[gid] = Fraction(1)
        for h, c in stored_row(universe, gid).items():
            row[h] -= c
        rows.append(row)
    return rows


def solve_exact(matrix: Matrix, rhs: list[Fraction]) -> list[Fraction]:
    """Solve matrix * x = rhs by Gaussian elimination with exact pivoting."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError(f"singular matrix at column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def transpose(matrix: Matrix) -> Matrix:
    return [list(col) for col in zip(*matrix)]


def functional_column(universe: Universe, f: Functional) -> list[Fraction]:
    col = [Fraction(0)] * len(universe)
    for gid, c in f.coords.items():
        col[gid] = c
    return col


def unit_column(n: int, gid: int) -> list[Fraction]:
    col = [Fraction(0)] * n
    col[gid] = Fraction(1)
    return col


# -- enumerate records ------------------------------------------------------------


def element_record(universe: Universe, el: GammaElement) -> dict:
    """One element's ``enumerate --format json`` record as a dict, which
    ``stable_json`` turns into the text the CLI writes from its templates."""
    kind = el.kind
    anchor, value = ("index", el.index) if kind == BASE else ("p", el.p) if kind == TYPE1 else ("xi", el.xi)
    return {
        "id": el.gid,
        "rank": el.rank,
        "kind": kind,
        anchor: value,
        "weight_index": el.weight_idx,
        "age": el.age,
        "b": {str(g): format_rational(c) for g, c in el.b.terms},
        "sigma": universe.sigma(el.gid),
        "image": universe.f_image_of(el.gid),
    }


# -- full sweeps ------------------------------------------------------------------
#
# The package's vector routines visit only the elements a sparse solve can
# reach.  These references sweep every element in (rank, id) order instead,
# so their results -- key order included -- are what the sparse routines
# must reproduce.


def _ids_by_rank(universe: Universe, lo: int, hi: int) -> Iterable[int]:
    for rank in range(lo, hi + 1):
        for gid in sorted(universe.level(rank)):
            yield gid


def sweep_synthesize(
    universe: Universe, d_coords: Coords, horizon: Optional[int] = None
) -> Vector:
    top = universe.max_rank if horizon is None else horizon
    coords: Coords = {}
    for gid in _ids_by_rank(universe, 1, top):
        value = d_coords.get(gid, Fraction(0))
        for h, c in stored_row(universe, gid).items():
            if c != 0:
                hv = coords.get(h)
                if hv is not None:
                    value += c * hv
        if value != 0:
            coords[gid] = value
    return Vector(coords, top)


def sweep_extend(
    universe: Universe, data: Coords, q: int, horizon: Optional[int] = None
) -> Vector:
    top = universe.max_rank if horizon is None else horizon
    coords: Coords = {}
    for gid in _ids_by_rank(universe, 1, q):
        v = data.get(gid, Fraction(0))
        if v != 0:
            coords[gid] = v
    for gid in _ids_by_rank(universe, q + 1, top):
        value = Fraction(0)
        for h, c in stored_row(universe, gid).items():
            hv = coords.get(h)
            if hv is not None:
                value += c * hv
        if value != 0:
            coords[gid] = value
    return Vector(coords, top)


def sweep_d_coords_of(universe: Universe, x: Vector) -> Coords:
    out: Coords = {}
    for gid in _ids_by_rank(universe, 1, x.horizon):
        value = x.at(gid)
        for h, c in stored_row(universe, gid).items():
            hv = x.coords.get(h)
            if hv is not None:
                value -= c * hv
        if value != 0:
            out[gid] = value
    return out


def sweep_to_d(
    universe: Universe, coords: Coords, rows: Optional[Sequence[Coords]] = None
) -> Coords:
    """d*-coordinates of an e*-functional by back-substitution in Fractions
    over every element, from the top rank down (ids ascending within a
    rank).  ``rows`` are the coding rows to use, the stored ones by default."""
    if rows is None:
        rows = [stored_row(universe, g) for g in universe.ids()]
    work = dict(coords)
    out: Coords = {}
    for gid in sorted(range(len(rows)), key=lambda g: (-universe.element(g).rank, g)):
        a = work.get(gid, Fraction(0))
        if a != 0:
            out[gid] = a
            for h, c in rows[gid].items():
                work[h] = work.get(h, Fraction(0)) + a * c
    return out


def sweep_to_e(
    universe: Universe, coords: Coords, rows: Optional[Sequence[Coords]] = None
) -> Coords:
    """e*-coordinates of a d*-functional: each d*_g is e*_g minus row g."""
    if rows is None:
        rows = [stored_row(universe, g) for g in universe.ids()]
    out: Coords = {}
    for gid, a in coords.items():
        out[gid] = out.get(gid, Fraction(0)) + a
        for h, c in rows[gid].items():
            out[h] = out.get(h, Fraction(0)) - a * c
    return {g: c for g, c in out.items() if c != 0}


def definition_rows(universe: Universe) -> list[Coords]:
    """Every coding row from its definition, in Fractions and in id order:
    beta times the e*-form of the combination's d*-coordinates on ranks above
    the window start, plus e*_xi for a type-2 element, each computed over
    the rows before it."""
    rows: list[Coords] = []
    for el in universe.elements:
        if el.kind == BASE:
            rows.append({})
            continue
        beta = universe.config.weight(el.weight_idx)
        lo = el.p if el.kind == TYPE1 else universe.element(el.xi).rank
        d = sweep_to_d(universe, dict(el.b.items()), rows)
        kept = {g: c for g, c in d.items() if universe.element(g).rank > lo}
        row: Coords = {el.xi: Fraction(1)} if el.kind == TYPE2 else {}
        for g, c in sweep_to_e(universe, kept, rows).items():
            row[g] = row.get(g, Fraction(0)) + beta * c
        rows.append({g: c for g, c in row.items() if c != 0})
    return rows


def sweep_unit_rows(universe: Universe) -> tuple[bool, str]:
    """The pairing-matrix check in Fractions: every basis vector synthesized
    and read off by the sweeps; the first row that is not a unit row."""
    for gid in universe.ids():
        one = {gid: Fraction(1)}
        if sweep_d_coords_of(universe, sweep_synthesize(universe, one)) != one:
            return False, f"row {gid} is not a unit row"
    return True, f"{len(universe)} x {len(universe)} exact rows"


def sweep_round_trips(universe: Universe) -> tuple[bool, str]:
    """The round trips of every e*- and d*-unit functional in Fractions."""
    ok = True
    for gid in universe.ids():
        one = {gid: Fraction(1)}
        there = sweep_to_e(universe, sweep_to_d(universe, one))
        ok = ok and there == one and sweep_to_d(universe, sweep_to_e(universe, one)) == one
    return ok, ""


def project_vector(universe: Universe, lo: int, hi: int, x: Vector) -> Vector:
    """Restrict the d-coordinates of x to ranks in (lo, hi] and resynthesize."""
    d = sweep_d_coords_of(universe, x)
    kept = {g: c for g, c in d.items() if lo < universe.element(g).rank <= hi}
    return sweep_synthesize(universe, kept, x.horizon)


def sweep_s_apply(universe: Universe, x: Vector) -> Vector:
    coords: Coords = {}
    for gid in universe.ids():
        if universe.element(gid).rank > x.horizon:
            continue
        img = universe.f_image_of(gid)
        if img is None:
            continue
        value = x.at(img)
        if value != 0:
            coords[gid] = value
    return Vector(coords, x.horizon)


def sweep_window_mass(universe: Universe, lo: int, hi: Optional[int]) -> tuple[Fraction, int]:
    """Largest l1 mass, over columns gid, of the e*-form of the (lo, hi]
    restriction of the d*-coordinates of e*_gid, and the first gid attaining
    it; one basis change per column and window (0 and -1 when every mass is
    0)."""
    worst, at = Fraction(0), -1
    for gid in universe.ids():
        row = store_to_d(universe, {gid: Fraction(1)})
        kept = {
            g: c
            for g, c in row.items()
            if lo < universe.element(g).rank
            and (hi is None or universe.element(g).rank <= hi)
        }
        mass = l1_norm(universe, Functional(D_BASIS, kept))
        if mass > worst:
            worst, at = mass, gid
    return worst, at


def sweep_heaviest_windows(universe: Universe) -> tuple[tuple[Fraction, str], tuple[Fraction, str]]:
    """The initial-segment and the general window maxima with their notes, the
    way the functional suite reports them: every window in report order (lo
    ascending, then hi = top, then lo+1..top), the first window that attains
    the maximum and the first gid attaining it there, one sweep_window_mass
    per window."""
    top = universe.max_rank

    def heaviest(windows: Iterable[tuple[int, Optional[int]]]) -> tuple[Fraction, str]:
        mass, note = Fraction(0), ""
        for lo, hi in windows:
            found, gid = sweep_window_mass(universe, lo, hi)
            if found > mass:
                mass = found
                note = f"window ({lo}, {'top' if hi is None else hi}] at element {gid}"
        return mass, note

    return (
        heaviest((0, q) for q in range(1, top + 1)),
        heaviest((lo, hi) for lo in range(top + 1) for hi in [None, *range(lo + 1, top + 1)]),
    )


def scan_argmax_weighted(
    universe: Universe,
    xs: Sequence[Vector],
    weight_ok: Callable[[int], bool],
    score: Callable[[int, int], Fraction],
) -> tuple[Fraction, Optional[int]]:
    """Largest score over every weighted element within the vectors' horizon
    whose weight index passes weight_ok, with the first id attaining it; one
    score per element, in id order ((0, None) when none passes)."""
    horizon = min((x.horizon for x in xs), default=universe.max_rank)
    best: tuple[Fraction, Optional[int]] = (Fraction(0), None)
    for gid in universe.ids():
        el = universe.element(gid)
        if el.weight_idx > 0 and weight_ok(el.weight_idx) and el.rank <= horizon:
            value = score(el.weight_idx, gid)
            if best[1] is None or value > best[0]:
                best = (value, gid)
    return best


def scan_weight_decay_violations(
    universe: Universe, xs: Sequence[Vector], constant: Fraction, js: Sequence[int]
) -> list[str]:
    """The rapid-increase clause (3) messages of validate_ris, one pass over
    every id per vector, in id order."""
    out = []
    for k, (x, jk) in enumerate(zip(xs, js)):
        for gid in universe.ids():
            widx = universe.element(gid).weight_idx
            if 0 < widx < jk:
                bound = constant * universe.config.weight(widx)
                value = abs(x.at(gid))
                if value > bound:
                    out.append(
                        f"(3) weight decay: vector {k + 1} at element {gid} "
                        f"(weight index {widx}) has |coordinate| {format_rational(value)} "
                        f"> {format_rational(bound)}"
                    )
    return out


def scan_ids_by_weight(universe: Universe) -> dict[int, list[int]]:
    """Every id under its weight index (0 included), ascending."""
    out: dict[int, list[int]] = {}
    for el in universe.elements:
        out.setdefault(el.weight_idx, []).append(el.gid)
    return out


def scan_extension_roots(universe: Universe, rank: int) -> tuple[list[int], list[int]]:
    """Ids that admit an age extension at this rank, split by weight parity:
    one pass over every level below rank - 1."""
    roots: tuple[list[int], list[int]] = ([], [])
    for p in range(1, rank - 1):
        for xi in universe.level(p):
            el = universe.element(xi)
            if el.weight_idx == 0:
                continue
            if el.age + 1 > universe.config.n(el.weight_idx):
                continue
            roots[el.weight_idx % 2].append(xi)
    for part in roots:
        part.sort()
    return roots


def scan_odd_support_pool(universe: Universe, pool: Iterable[int], widx: int) -> list[int]:
    """Support choices for odd-weight singletons within a window pool: one
    pass over the pool."""
    cfg = universe.config
    out = []
    for eta in pool:
        el = universe.element(eta)
        if el.weight_idx == 0 or el.weight_idx % 4 != 0:
            continue
        if cfg.regime == STRICT and not cfg.m(el.weight_idx) > cfg.n(widx) ** 2:
            continue
        out.append(eta)
    return out


def every_cut_tail_estimate(universe: Universe, x: Vector, j: int, C: Fraction) -> ClauseResult:
    """The windowed tail estimate of an exact pair with one tail projection
    and one full weighted scan per cut 0..horizon."""
    cfg = universe.config
    bound = {w: 6 * C * cfg.weight(min(w, j)) for w in range(1, cfg.num_weights + 1)}
    worst_ratio, worst_note = Fraction(0), ""
    for s in range(0, x.horizon + 1) if C else ():
        tail = project_vector(universe, s, x.horizon, x)
        ratio, gid = scan_argmax_weighted(
            universe, [x], lambda w: w != j, lambda w, g: abs(tail.at(g)) / bound[w]
        )
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_note = (
                f"|tail past {s} at element {gid}| = {format_rational(abs(tail.at(gid)))} "
                f"vs {format_rational(bound[universe.element(gid).weight_idx])}"
            )
    held = worst_ratio <= 1
    return ClauseResult(
        name="windowed tail estimate (reported)",
        status=INFO,
        kind=INFO_KIND,
        lhs=format_rational(worst_ratio),
        rhs="1",
        witness=(worst_note + ("" if held else " [exceeded]")) or "no instances",
    )


def analysis_functional(
    universe: Universe,
    analysis: EvaluationAnalysis,
    windowed: bool,
    start: int = 0,
) -> Functional:
    """Rebuild e*_gamma from analysis data.

    With ``start == t > 0`` the first t steps collapse into e* of the t-th
    chain element (the partial form).  ``windowed`` selects bounded rank
    windows (p_{r-1}, p_r] for the carried combinations instead of
    (p_{r-1}, infinity); the two agree because each step's combination is
    supported strictly below its own cut.
    """
    if not 0 <= start < analysis.age:
        raise AlgebraError(f"partial index {start} outside 0..{analysis.age - 1}")
    beta = universe.config.weight(analysis.weight_idx)
    cuts = analysis.cut_points()
    if start == 0:
        total = Functional(E_BASIS)
    else:
        total = e_star(analysis.steps[start - 1].xi)
    for r in range(start, analysis.age):
        step = analysis.steps[r]
        # d*_xi = e*_xi minus the stored coding row of xi
        row = Functional(E_BASIS, stored_row(universe, step.xi))
        total = total.plus(e_star(step.xi)).plus(row.scaled(-1))
        hi = cuts[r + 1] if windowed else None
        piece = project_star(universe, cuts[r], hi, b_as_functional(step.b))
        total = total.plus(piece.scaled(beta))
    return total


def per_form_analysis_fault(universe: Universe, gid: int) -> str:
    """The last form of the element's analysis that differs from e*_gid,
    each form rebuilt from scratch by ``analysis_functional``."""
    if universe.element(gid).kind == BASE:
        return ""
    target = e_star(gid)
    analysis = evaluation_analysis(universe, gid)
    bad = ""
    for windowed in (False, True):
        if analysis_functional(universe, analysis, windowed) != target:
            bad = f"full form differs at element {gid}"
    for start in range(1, analysis.age):
        if analysis_functional(universe, analysis, True, start) != target:
            bad = f"partial form {start} differs at element {gid}"
    return bad


def per_form_analysis_check(universe: Universe) -> tuple[bool, str]:
    """The analysis check as ``(ok, detail)``: the first faulty element's
    report, in id order."""
    found = next(filter(None, (per_form_analysis_fault(universe, g) for g in universe.ids())), "")
    return not found, found


# -- the shift's power family and compact differences -----------------------------


def elimination_rank(universe: Universe) -> int:
    """Rank of {S^0, ..., S^(k-1)} by exact elimination: each power's
    unit-coordinate matrix (a 1 at (gamma, l-th iterate of gamma)) is
    flattened to a sparse vector and reduced against the earlier pivots."""
    k = universe.config.k
    pivots: dict[tuple[int, int], dict[tuple[int, int], Fraction]] = {}
    rank = 0
    for power in range(k):
        entries: dict[tuple[int, int], Fraction] = {}
        for gid in universe.ids():
            img = universe.f_iterate(gid, power)
            if img is not None:
                entries[(gid, img)] = Fraction(1)
        for key, row in pivots.items():
            c = entries.get(key)
            if c:
                for kk, vv in row.items():
                    nv = entries.get(kk, Fraction(0)) - c * vv
                    if nv == 0:
                        entries.pop(kk, None)
                    else:
                        entries[kk] = nv
        if not entries:
            continue
        pivot_key = min(entries)
        pivot_val = entries[pivot_key]
        pivots[pivot_key] = {kk: vv / pivot_val for kk, vv in entries.items()}
        rank += 1
    return rank


def sampled_compact_differences(universe: Universe, seed: int = 0) -> tuple[bool, bool, str]:
    """The compact-difference family over every pair of witness ranks, with
    the k unit scalars and five seeded rational ones, as
    ``(available, ok, detail)``: an unavailable family names the first
    missing witness; otherwise the detail is the last mismatch or the count
    of differences."""
    rng = random.Random(seed)
    k, top = universe.config.k, universe.max_rank
    lam_sets = [tuple(Fraction(int(i == t)) for i in range(k)) for t in range(k)]
    for _ in range(5):
        lam_sets.append(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)))
    ok, detail, pairs = True, "", 0
    try:
        for j in range(k):
            for rank_n in range(2, top):
                for rank_m in range(rank_n + 1, top + 1):
                    for lams in lam_sets:
                        got = compact_witness(universe, j, rank_n, rank_m, lams)
                        want = 2 * sum((abs(lams[i]) for i in range(j + 1)), Fraction(0))
                        if got != want:
                            ok = False
                            detail = (
                                f"family {j}, ranks ({rank_n}, {rank_m}): "
                                f"{format_rational(got)} != {format_rational(want)}"
                            )
                        pairs += 1
    except UniverseError as err:
        return False, False, f"witness family unavailable: {err}"
    return True, ok, detail if not ok else f"{pairs} exact differences"


# -- Fraction references for the integer shift proofs and extensions ----------------
#
# The checks as they read before they moved onto integer numerators: every
# unit, image and basis vector is built as Fractions through the package's
# Fraction API.  Each returns ``(ok, detail)`` as the suite's check does.


def _exhaustive_reference(universe: Universe, violated: Callable[[int], bool]) -> tuple[bool, str]:
    bad = [g for g in universe.ids() if violated(g)]
    if not bad:
        return True, f"exhaustive over {len(universe)} elements"
    first = describe(universe.element(bad[0]))
    return False, f"{len(bad)} of {len(universe)} elements violate it; first {first}"


def fraction_adjoint(universe: Universe) -> tuple[bool, str]:
    top = universe.max_rank
    preimages: dict[int, list[int]] = {}
    for g in universe.ids():
        image = universe.f_image_of(g)
        if image is not None:
            preimages.setdefault(image, []).append(g)

    def violated(gid: int) -> bool:
        image = universe.f_image_of(gid)
        pushed = Functional(E_BASIS, {} if image is None else {image: Fraction(1)})
        pulled = {pi: Fraction(1) for pi in preimages.get(gid, ())}
        return (
            s_star(universe, e_star(gid)) != pushed
            or s_apply(universe, Vector({gid: Fraction(1)}, top)).coords != pulled
        )

    return _exhaustive_reference(universe, violated)


def fraction_preimage_sums(universe: Universe) -> tuple[bool, str]:
    def violated(delta: int) -> bool:
        lhs = s_apply(universe, d_vector(universe, delta))
        rhs = reduce(
            Vector.plus,
            (d_vector(universe, gamma) for gamma in universe.f_preimages_of(delta)),
            Vector({}, universe.max_rank),
        )
        return lhs.coords != rhs.coords

    return _exhaustive_reference(universe, violated)


def fraction_basis_change(universe: Universe) -> tuple[bool, str]:
    def violated(gid: int) -> bool:
        f = Functional(D_BASIS, {gid: Fraction(1)})
        return to_e_basis(universe, s_star(universe, f)) != s_star(
            universe, to_e_basis(universe, f)
        )

    return _exhaustive_reference(universe, violated)


def fraction_tail_commutation(universe: Universe) -> tuple[bool, str]:
    for gid in universe.ids():
        unit = Functional(D_BASIS, {gid: Fraction(1)})
        pushed = s_star(universe, unit)
        rank = universe.element(gid).rank
        for p in (rank - 1, rank):
            left = s_star(universe, project_star(universe, p, None, unit))
            if left != project_star(universe, p, None, pushed):
                return False, f"element {gid} at cut {p}"
    return True, ""


def fraction_extensions(universe: Universe) -> tuple[bool, str]:
    """The extensions proof on the Fraction sweeps: extending e_g from rank g
    to the top gives the synthesis of d_g up to the top, at every element."""

    def violated(gid: int) -> bool:
        unit = {gid: Fraction(1)}
        extended = sweep_extend(universe, unit, universe.element(gid).rank)
        return extended.coords != sweep_synthesize(universe, unit).coords

    return _exhaustive_reference(universe, violated)


# -- Fraction references for the weighted scans ---------------------------------------
#
# The sequence laboratory's scans as they read before they compared integer
# numerators: Fraction scores read through ``Vector.at`` at every weighted
# element (``scan_argmax_weighted``).


def _total(xs: Sequence[Vector], gid: int) -> Fraction:
    return sum((x.at(gid) for x in xs), Fraction(0))


def fraction_minimal_ris_constant(universe: Universe, xs: Sequence[Vector]) -> Fraction:
    best = max((sup_norm(x) for x in xs), default=Fraction(0))
    for x, jk in zip(xs, greedy_j_seq(block_sequence(universe, xs))):
        worst, _ = scan_argmax_weighted(
            universe, [x], lambda w: w < jk, lambda w, g: abs(x.at(g)) / universe.config.weight(w)
        )
        best = max(best, worst)
    return best


def fraction_off_weight_clauses(
    universe: Universe, x: Vector, C: Fraction, j: int
) -> tuple[ClauseResult, ClauseResult]:
    """The two off-weight clauses (5) of ``check_exact_pair``."""
    cfg = universe.config
    lo_worst, lo_id = scan_argmax_weighted(
        universe, [x], lambda w: w < j, lambda w, g: abs(x.at(g)) / cfg.weight(w)
    )
    hi_worst, hi_id = scan_argmax_weighted(
        universe, [x], lambda w: w > j, lambda w, g: abs(x.at(g))
    )
    return (
        _bound_clause("(5) off-weight coordinates, lower indices", lo_worst, C, lo_id),
        _bound_clause(
            "(5) off-weight coordinates, higher indices", hi_worst, C * cfg.weight(j), hi_id
        ),
    )


def fraction_minimal_pair_constant(universe: Universe, x: Vector, j: int) -> Fraction:
    """``ExactPairReport.minimal_constant`` for the exact form (no epsilon)."""
    cfg = universe.config
    need = sup_norm(x)
    for coeff in d_coords_of(universe, x).values():
        need = max(need, abs(coeff) / cfg.weight(j))
    worst, _ = scan_argmax_weighted(
        universe, [x], lambda w: w != j, lambda w, g: abs(x.at(g)) / cfg.weight(min(w, j))
    )
    return max(need, worst)


def fraction_lower_bound_search(universe: Universe, xs: Sequence[Vector], j: int) -> SearchResult:
    cfg = universe.config
    widx = 2 * j
    rhs = cfg.weight(widx) / 2 * sum((sup_norm(x) for x in xs), Fraction(0))
    lhs, witness = scan_argmax_weighted(
        universe, xs, lambda w: w == widx, lambda w, g: _total(xs, g)
    )
    return SearchResult(witness=witness, lhs=lhs, rhs=rhs)


def fraction_ris_averages(
    universe: Universe, xs: Sequence[Vector], C: Fraction, j0: int
) -> EstimateReport:
    cfg = universe.config
    a = len(xs)

    def average(gid: int) -> Fraction:
        return abs(_total(xs, gid)) / a

    cases = [
        ("weights below the sequence index", lambda w: w < j0,
         lambda w: 16 * C * cfg.weight(j0) * cfg.weight(w)),
        ("weights at or above the sequence index", lambda w: w >= j0,
         lambda w: 4 * C / cfg.n(j0) + 6 * C * cfg.weight(w)),
        ("weights strictly above the sequence index", lambda w: w > j0,
         lambda w: 10 * C * cfg.weight(j0) ** 2),
    ]
    clauses = []
    for name, weight_ok, bound in cases:
        _, gid = scan_argmax_weighted(universe, xs, weight_ok, lambda w, g: average(g) - bound(w))
        if gid is None:
            lhs = rhs = Fraction(0)
        else:
            lhs, rhs = average(gid), bound(universe.element(gid).weight_idx)
        clauses.append(_bound_clause(name, lhs, rhs, gid))
    total = reduce(Vector.plus, xs, Vector({}, min(x.horizon for x in xs)))
    clauses.append(_bound_clause("average norm", sup_norm(total.scaled(Fraction(1, a))),
                                 10 * C * cfg.weight(j0)))
    return EstimateReport("ris-averages", tuple(clauses))
