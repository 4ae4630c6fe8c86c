"""Block-sequence laboratory: certificates, calibrated pairs, linked chains.

Everything here is evaluated over a materialized universe, exactly:

* rapid-increase certificates for block sequences (uniform bound, cut
  growth, weight decay), checked exhaustively over the materialized
  elements, with the minimal certifying constant computable;
* calibrated vector/element pairs: a full per-condition report for a
  claimed pair, and a constructor that interns a chain of same-weight
  elements over prescribed rank cuts and returns the weighted sum with
  its element, asserting the shifted-orbit vanishing identities with no
  tolerance;
* linked chains of odd-weight elements, each step carrying a fresh helper
  pair interned above the previous cut, where each step's required weight
  index is dictated by the numbering of the previous chain element;
* the inequality-type diagnostics: each left-hand side is evaluated over
  every materialized element and compared against the configured bound,
  reporting exact rational margins and witnesses, never rounding.

Constructors report structured failures naming the first clause they
cannot satisfy; nothing is ever silently weakened.
"""

import heapq
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .algebra import (
    AlgebraError,
    IntCoords,
    Vector,
    b_as_functional,
    coding_rows,
    d_coords_of,
    d_vector,
    evaluation_analysis,
    extend_vector,
    pairing,
    sup_norm,
    to_integers,
    vector_range,
)
from .config import STRICT, ConstructionConfig
from .elements import BFunctional, t1_candidate, t2_candidate
from .serialize import format_rational
from .shift import s_apply, s_apply_power
from .universe import InadmissibleElement, InvariantFault, Universe, UniverseError

PASS = "PASS"
FAIL = "FAIL"
WARN = "WARN"
INFO = "INFO"

# Least to most severe; a collection of results takes its most severe status.
STATUS_ORDER = (INFO, PASS, WARN, FAIL)

IDENTITY = "identity"
MAGNITUDE = "magnitude"
INFO_KIND = "info"


def grade(kind: str, ok: bool, excused: bool = False) -> str:
    """The one grading rule for every clause and check: an info-kind outcome
    is INFO, one that holds is PASS, and one that fails is FAIL, or WARN when
    its failure is excused."""
    if kind == INFO_KIND:
        return INFO
    if ok:
        return PASS
    return WARN if excused else FAIL


class ConstructionFailure(UniverseError):
    """A constructor could not satisfy a clause; the clause is named."""

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        self.detail = detail
        super().__init__(f"{clause}: {detail}" if detail else clause)


class SupplierExhausted(ConstructionFailure):
    """A linked chain cannot get the pair its next step needs."""


class ClauseResult(NamedTuple):
    """One evaluated condition with its exact numbers.

    ``kind`` separates identity-level conditions (exact equalities that
    must hold on any truncation) from magnitude conditions (inequalities
    whose derivations assume uncapped parameters) and from report-only
    quantities, which are always INFO.
    """

    name: str
    status: str
    kind: str = MAGNITUDE
    lhs: str = ""
    rhs: str = ""
    margin: str = ""
    witness: str = ""

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "status": self.status, "kind": self.kind}
        for key in ("lhs", "rhs", "margin", "witness"):
            value = getattr(self, key)
            if value:
                out[key] = value
        return out


def _clause(
    name: str, kind: str, ok: bool, lhs: Fraction | int | None = None,
    rhs: Fraction | int | None = None, margin: Fraction | None = None, witness: str = "",
) -> ClauseResult:
    """The one way a clause is made: ``grade`` gives its status, and each
    number given is written as exact rational text."""
    numbers = ("" if v is None else format_rational(v) for v in (lhs, rhs, margin))
    return ClauseResult(name, grade(kind, ok), kind, *numbers, witness)


def _identity_clause(name: str, ok: bool, detail: str = "") -> ClauseResult:
    return _clause(name, IDENTITY, ok, witness=detail if not ok else "")


def _bound_clause(
    name: str, lhs: Fraction, rhs: Fraction, witness: Optional[int] = -1
) -> ClauseResult:
    """The bound lhs <= rhs, at the element ``witness``.

    A scan that found no instance passes None and the bound holds vacuously;
    a bound that names no element keeps the default -1.
    """
    if witness is None:
        return _clause(name, MAGNITUDE, True, witness="no instances")
    at = "" if witness < 0 else f"element {witness}"
    return _clause(name, MAGNITUDE, lhs <= rhs, lhs, rhs, rhs - lhs, at)


def _identities_hold(clauses: Iterable[ClauseResult]) -> bool:
    return all(c.status == PASS for c in clauses if c.kind == IDENTITY)


def worst_status(results: Iterable[Any]) -> str:
    """The most severe status among the results; INFO when there are none."""
    return max((r.status for r in results), key=STATUS_ORDER.index, default=INFO)


# -- block sequences ---------------------------------------------------------


class BlockSequence(NamedTuple):
    """Vectors with their rank ranges; zero vectors are tolerated (range None)."""

    vectors: tuple[Vector, ...]
    ranges: tuple[Optional[tuple[int, int]], ...]

    def _ranges_apart(self, gap: int) -> bool:
        """Each range starts at least ``gap`` ranks above the previous range's top."""
        ranges = [r for r in self.ranges if r is not None]
        return all(nxt[0] >= prev[1] + gap for prev, nxt in zip(ranges, ranges[1:]))

    @property
    def is_block(self) -> bool:
        return self._ranges_apart(1)

    @property
    def is_skipped(self) -> bool:
        """Block with at least one untouched rank between consecutive ranges."""
        return self._ranges_apart(2)


def block_sequence(universe: Universe, vectors: Sequence[Vector]) -> BlockSequence:
    vecs = tuple(vectors)
    return BlockSequence(vecs, tuple(vector_range(universe, x) for x in vecs))


def shifted_sequence(universe: Universe, seq: BlockSequence) -> BlockSequence:
    return block_sequence(universe, [s_apply(universe, x) for x in seq.vectors])


# -- rapid-increase certificates -----------------------------------------------


class RISCertificate(NamedTuple):
    constant: Fraction
    j_seq: tuple[int, ...]
    violations: tuple[str, ...] = ()

    @property
    def certifies(self) -> bool:
        return not self.violations


def greedy_j_seq(seq: BlockSequence) -> tuple[int, ...]:
    """The minimal increasing index sequence compatible with the cut-growth rule."""
    out: list[int] = []
    prev = 0
    for rng in seq.ranges:
        out.append(prev + 1)
        prev = max(prev + 1, rng[1] if rng else 0)
    return tuple(out)


def _argmax_weighted(
    universe: Universe,
    xs: Sequence[Vector],
    weight_ok: Callable[[int], bool],
    score: Callable[[int, int], Any],
) -> tuple[Any, Optional[int]]:
    """Largest ``score(weight index, id)`` over the weighted elements whose
    weight index passes ``weight_ok`` and whose rank is within every vector's
    horizon, with the first id, in id order, that attains it; (0, None) when
    no element passes.

    ``score`` may read only the weight index and the values of ``xs`` at the
    id, so every element outside their supports scores like the first such
    element of its weight index.  Only the supports, plus that first
    off-support id per weight index within the horizon, are scored, in id
    order.  Scores are compared as they are: the laboratory's scorers return
    integer numerators over one positive denominator per scan, which the
    caller divides out once.
    """
    horizon = min((x.horizon for x in xs), default=universe.max_rank)
    elements = universe.elements
    support = {g for x in xs for g in x.coords if 0 <= g < len(elements)}
    candidates = set(support)
    for widx, ids in universe._by_weight.items():
        if widx > 0 and weight_ok(widx):
            off = (g for g in ids if g not in support and elements[g].rank <= horizon)
            first = next(off, None)
            if first is not None:
                candidates.add(first)
    best: tuple[Any, Optional[int]] = (0, None)
    for gid in sorted(candidates):
        el = elements[gid]
        if el.weight_idx > 0 and weight_ok(el.weight_idx) and el.rank <= horizon:
            value = score(el.weight_idx, gid)
            if best[1] is None or value > best[0]:
                best = (value, gid)
    return best


def _numerators(xs: Sequence[Vector]) -> tuple[list[IntCoords], int]:
    """The vectors' coordinates, read once, as integer numerators over one
    common denominator."""
    parts = [to_integers(x.coords) for x in xs]
    q = lcm(*(d for _, d in parts))
    return [{g: v * (q // d) for g, v in c.items()} for c, d in parts], q


def _weighted_sup(
    universe: Universe,
    x: Vector,
    weight_ok: Callable[[int], bool],
    factor: Callable[[int], Fraction],
) -> tuple[Fraction, Optional[int]]:
    """The largest |x_g| * factor(weight index of g) over the weighted scan
    of ``_argmax_weighted``, with its first witness.  Scores are integers
    over one denominator; a ``Fraction`` is built only for the result."""
    values, vq = to_integers(x.coords)
    weights = range(1, universe.config.num_weights + 1)
    f, fq = to_integers({w: factor(w) for w in weights if weight_ok(w)})
    best, gid = _argmax_weighted(
        universe, [x], weight_ok, lambda w, g: abs(values.get(g, 0)) * f[w]
    )
    return Fraction(best, vq * fq), gid


def _vector_sum(xs: Iterable[Vector]) -> Vector:
    """Sum of one or more vectors, on the smallest of their horizons."""
    xs = list(xs)
    return reduce(Vector.plus, xs, Vector({}, min(x.horizon for x in xs)))


def validate_ris(
    universe: Universe,
    seq: BlockSequence,
    constant: Fraction | int,
    j_seq: Optional[Sequence[int]] = None,
) -> RISCertificate:
    """Exhaustive rapid-increase check; violations are named, never raised."""
    constant = Fraction(constant)
    js = tuple(j_seq) if j_seq is not None else greedy_j_seq(seq)
    bad: list[str] = []
    if len(js) != len(seq.vectors):
        bad.append("index sequence length mismatch")
        return RISCertificate(constant, js, tuple(bad))
    if not seq.is_block:
        bad.append("block structure: ranges out of order")
    if any(js[i] >= js[i + 1] for i in range(len(js) - 1)):
        bad.append("index growth: sequence not strictly increasing")
    for k, (x, rng) in enumerate(zip(seq.vectors, seq.ranges)):
        norm = sup_norm(x)
        if norm > constant:
            bad.append(f"(1) uniform bound: vector {k + 1} has norm {format_rational(norm)}")
        if k + 1 < len(js) and rng is not None and js[k + 1] <= rng[1]:
            bad.append(f"(2) cut growth: index {js[k + 1]} not beyond range top {rng[1]}")
    elements, top = universe.elements, max(js, default=0)
    bounds = {w: constant * universe.config.weight(w) for w in universe._by_weight if 0 < w < top}
    for k, x in enumerate(seq.vectors):
        values, q = to_integers(x.coords)
        for gid in heapq.merge(*(universe._by_weight[w] for w in bounds if w < js[k])):
            widx = elements[gid].weight_idx
            bound, value = bounds[widx], abs(values.get(gid, 0))
            if value * bound.denominator > bound.numerator * q:
                bad.append(
                    f"(3) weight decay: vector {k + 1} at element {gid} "
                    f"(weight index {widx}) has |coordinate| "
                    f"{format_rational(Fraction(value, q))} > {format_rational(bounds[widx])}"
                )
    return RISCertificate(constant, js, tuple(bad))


def minimal_ris_constant(universe: Universe, seq: BlockSequence) -> Fraction:
    """Smallest constant under which the sequence certifies at its greedy
    index sequence (structure permitting)."""
    best = max((sup_norm(x) for x in seq.vectors), default=Fraction(0))
    for x, jk in zip(seq.vectors, greedy_j_seq(seq)):
        best = max(best, _weighted_sup(universe, x, lambda w: w < jk, universe.config.m)[0])
    return best


# -- exact pairs -----------------------------------------------------------------


def _orbit_value(universe: Universe, x: Vector, eta: int, power: int) -> Fraction:
    """Coordinate of the power-shifted vector at an element, via the pullback."""
    target = universe.f_iterate(eta, power)
    if target is None:
        return Fraction(0)
    if universe.element(target).rank > x.horizon:
        raise AlgebraError("pair element beyond vector horizon")
    return x.at(target)


class ExactPairReport(NamedTuple):
    constant: Fraction
    j: int
    epsilon: Optional[Fraction]
    clauses: tuple[ClauseResult, ...]
    # The least constant at which every magnitude clause holds, so the pair
    # certifies there exactly when its identities hold (``identity_ok``):
    # every magnitude term has a positive factor (1, a weight, or a positive
    # epsilon), the tail estimate is INFO, and no identity reads the constant.
    minimal_constant: Fraction

    @property
    def identity_ok(self) -> bool:
        return _identities_hold(self.clauses)

    @property
    def certifies(self) -> bool:
        return all(c.status in (PASS, INFO) for c in self.clauses)

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "constant": format_rational(self.constant),
            "j": self.j,
            "delta": 0,
            "clauses": [c.to_json_dict() for c in self.clauses],
            "certifies": self.certifies,
        }
        if self.epsilon is not None:
            out["epsilon"] = format_rational(self.epsilon)
        return out


MagnitudeTerms = list[tuple[str, Fraction, Fraction, Optional[int]]]


def _magnitude_terms(
    universe: Universe, x: Vector, eta: int, j: int, epsilon: Optional[Fraction]
) -> MagnitudeTerms:
    """The pair's magnitude conditions in report order, each as (name, lhs,
    factor, witness): it holds at constant C when lhs <= C * factor, at the
    element ``witness`` (as ``_bound_clause`` reads it).  The weak orbit
    bounds are among them only when ``epsilon`` is given."""
    cfg = universe.config
    worst, worst_id = Fraction(0), -1
    for gid, coeff in d_coords_of(universe, x).items():
        if abs(coeff) > worst:
            worst, worst_id = abs(coeff), gid
    terms = [
        ("(1) norm bound", sup_norm(x), Fraction(1), -1),
        ("(2) biorthogonal coefficients", worst, cfg.weight(j), worst_id),
    ]
    if epsilon is not None:
        for power in range(cfg.k):
            value = abs(_orbit_value(universe, x, eta, power))
            terms.append((f"(4') weak orbit bound [power {power}]", value, epsilon, -1))
    # lower indices compare against C * m_widx^{-1}: scan the normalized value
    lo_worst, lo_id = _weighted_sup(universe, x, lambda w: w < j, cfg.m)
    terms.append(("(5) off-weight coordinates, lower indices", lo_worst, Fraction(1), lo_id))
    hi_worst, hi_id = _weighted_sup(universe, x, lambda w: w > j, lambda w: 1)
    terms.append(("(5) off-weight coordinates, higher indices", hi_worst, cfg.weight(j), hi_id))
    return terms


def _weak_epsilon(epsilon: Optional[Fraction]) -> Optional[Fraction]:
    """The weak form's epsilon (None for the exact form), refused unless positive."""
    if epsilon is not None and epsilon <= 0:
        raise ConstructionFailure("hypothesis", f"epsilon {epsilon} is not positive")
    return None if epsilon is None else Fraction(epsilon)


def _least_constant(terms: MagnitudeTerms) -> Fraction:
    """The largest lhs / factor: the least constant at which every term holds."""
    return max(lhs / factor for _, lhs, factor, _ in terms)


def check_exact_pair(
    universe: Universe,
    x: Vector,
    eta: int,
    constant: Fraction | int,
    j: int,
    epsilon: Optional[Fraction] = None,
) -> ExactPairReport:
    """Evaluate every pair condition exactly over the materialized elements.

    ``epsilon``, positive, switches the orbit-vanishing condition to its
    weak form (orbit values bounded by constant * epsilon, not exactly zero).
    The windowed tail estimates that follow the definition are evaluated
    report-only and never affect certification.
    """
    _require_weight(universe.config, j, "weight index")
    eps = _weak_epsilon(epsilon)
    terms = _magnitude_terms(universe, x, eta, j, eps)
    return _graded_pair(universe, x, eta, Fraction(constant), j, eps, terms)


def _graded_pair(
    universe: Universe, x: Vector, eta: int, C: Fraction, j: int, eps: Optional[Fraction],
    terms: MagnitudeTerms,
) -> ExactPairReport:
    """``check_exact_pair`` at constant C over the pair's evaluated terms."""
    graded = [_bound_clause(name, lhs, C * factor, witness) for name, lhs, factor, witness in terms]
    eta_widx = universe.element(eta).weight_idx
    identities = [
        _identity_clause(
            "(3) weight", eta_widx == j, f"element {eta} has weight index {eta_widx}, wanted {j}"
        )
    ]
    if eps is None:
        value = _orbit_value(universe, x, eta, 0)
        identities.append(
            _identity_clause(
                "(4) value at the element",
                value == 0,
                f"coordinate is {format_rational(value)}, wanted 0",
            )
        )
        for power in range(1, universe.config.k):
            value = _orbit_value(universe, x, eta, power)
            identities.append(
                _identity_clause(
                    f"(4) shifted orbit vanishes [power {power}]",
                    value == 0,
                    f"coordinate is {format_rational(value)}",
                )
            )
    # (3) and (4) come after the norm and biorthogonal bounds, as numbered
    clauses = graded[:2] + identities + graded[2:]
    clauses.append(_tail_estimate_clause(universe, x, j, C))
    return ExactPairReport(C, j, eps, tuple(clauses), _least_constant(terms))


def _tail_estimate_clause(universe: Universe, x: Vector, j: int, C: Fraction) -> ClauseResult:
    """Report-only: tail projections against six times the pair bounds."""
    cfg = universe.config
    bound = {w: 6 * C * cfg.weight(min(w, j)) for w in range(1, cfg.num_weights + 1)}
    worst_ratio = Fraction(0)
    worst_note = ""
    rows, top = coding_rows(universe), x.horizon
    d, q = rows.read_off(*to_integers(x.coords), top)
    # The tail past s only changes where s passes a rank of x's d-support, so
    # the first cut of each stretch stands for the stretch.  A zero constant
    # leaves every ratio undefined and the estimate without instances.
    cuts = sorted({0, *(rows.rank[g] for g in d)}) if C else []
    for s in cuts:
        tail, tq = rows.synthesize(rows.restrict(d, s, top), q, top)
        # the tail's numerators are the tail times tq
        ratio, gid = _weighted_sup(
            universe, Vector(tail, top), lambda w: w != j, lambda w: 1 / (tq * bound[w])
        )
        if ratio > worst_ratio:
            worst_ratio = ratio
            value = Fraction(abs(tail.get(gid, 0)), tq)
            worst_note = (
                f"|tail past {s} at element {gid}| = {format_rational(value)} "
                f"vs {format_rational(bound[universe.element(gid).weight_idx])}"
            )
    held = worst_ratio <= 1
    return _clause(
        "windowed tail estimate (reported)",
        INFO_KIND,
        held,
        worst_ratio,
        1,
        witness=(worst_note + ("" if held else " [exceeded]")) or "no instances",
    )


# -- pair construction over prescribed cuts ---------------------------------------


class PairConstruction(NamedTuple):
    z: Vector
    eta: int
    chain: tuple[int, ...]
    cuts: tuple[int, ...]
    scale: Fraction
    j: int
    clauses: tuple[ClauseResult, ...]
    report: ExactPairReport
    # d-coordinates of z, so the certificate is replayable without the universe
    z_d_coords: tuple[tuple[int, Fraction], ...] = ()

    @property
    def identity_ok(self) -> bool:
        return _identities_hold(self.clauses)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "element": self.eta,
            "chain": list(self.chain),
            "cuts": list(self.cuts),
            "scale": format_rational(self.scale),
            "j": self.j,
            "vector_d_coords": _coords_json(dict(self.z_d_coords)),
            "clauses": [c.to_json_dict() for c in self.clauses],
            "pair_report": self.report.to_json_dict(),
        }


def _coords_json(coords: dict[int, Fraction]) -> dict[str, str]:
    return {str(gid): format_rational(c) for gid, c in sorted(coords.items())}


def _window_offences(
    universe: Universe,
    cuts: Sequence[int],
    ranges: Sequence[Optional[tuple[int, int]]],
    bs: Sequence[BFunctional],
) -> Iterator[tuple[str, str]]:
    """(clause, detail) for each way a step leaves its window (cuts[i-1],
    cuts[i]), open at both ends, in step order: the step's vector range
    ("vector ranges"), then each rank its carried combination touches
    ("window")."""
    for idx, (rng, b) in enumerate(zip(ranges, bs), start=1):
        lo, hi = cuts[idx - 1], cuts[idx]
        if rng is not None and not (lo < rng[0] and rng[1] < hi):
            yield "vector ranges", f"vector {idx} has range {rng}, not inside ({lo}, {hi})"
        for rank in (universe.element(gid).rank for gid, _ in b.items()):
            if not lo < rank < hi:
                yield "window", f"combination {idx} touches rank {rank} outside ({lo}, {hi - 1}]"


def _require_weight(cfg: ConstructionConfig, widx: int, label: str) -> None:
    """Refuse a weight index outside the configured sequence, as "weight cap"."""
    if not 1 <= widx <= cfg.num_weights:
        raise ConstructionFailure(
            "weight cap", f"{label} {widx} outside configured 1..{cfg.num_weights}"
        )


def _extend_chain(
    universe: Universe, chain: list[int], rank: int, p0: int, widx: int, b: BFunctional
) -> None:
    """Intern the next chain element of the given rank and append its id: an
    age-1 element over (p0, rank] first, then age extensions of the last one."""
    if chain:
        cand = t2_candidate(rank, chain[-1], widx, b)
    else:
        cand = t1_candidate(rank, p0, widx, b)
    try:
        chain.append(universe.intern(cand))
    except InadmissibleElement as err:
        raise ConstructionFailure("chain admissibility", "; ".join(err.violations)) from err


def _echoes_chain(
    universe: Universe, chain: Sequence[int], cuts: Sequence[int], bs: Sequence[BFunctional]
) -> bool:
    """The analysis of the chain's last element records exactly its cuts,
    chain elements and carried combinations."""
    analysis = evaluation_analysis(universe, chain[-1])
    return (
        analysis.p0 == cuts[0]
        and analysis.age == len(chain)
        and all(
            step.p == cuts[idx + 1] and step.xi == chain[idx] and step.b == bs[idx]
            for idx, step in enumerate(analysis.steps)
        )
    )


def build_exact_pair(
    universe: Universe,
    xs: Sequence[Vector],
    cuts: Sequence[int],
    bs: Sequence[BFunctional],
    j: int,
) -> PairConstruction:
    """Intern the chain over the given rank cuts and return the weighted pair.

    Preconditions are checked before anything is interned: the cuts bracket
    the vector ranges with room for the chain, each carried combination is
    supported strictly inside its window, and each combination annihilates
    its vector together with the vector's whole shifted orbit.  The
    construction then asserts -- exactly, no tolerance -- that the weighted
    sum vanishes at the final element through every shift power.
    """
    a = len(xs)
    if a == 0:
        raise ConstructionFailure("length", "no vectors supplied")
    if len(cuts) != a + 1:
        raise ConstructionFailure("cuts", f"need {a + 1} cuts for {a} vectors")
    if len(bs) != a:
        raise ConstructionFailure("combinations", f"need {a} carried combinations")
    cfg = universe.config
    widx = 2 * j
    _require_weight(cfg, widx, "weight index")
    if a > cfg.n(widx):
        raise ConstructionFailure(
            "age cap", f"chain length {a} exceeds the cap {cfg.n(widx)}"
        )
    cuts = tuple(int(q) for q in cuts)
    if cuts[0] < 0 or any(cuts[i + 1] < cuts[i] + 2 for i in range(a)):
        raise ConstructionFailure(
            "cuts", "cuts must increase with room for a rank strictly between"
        )
    seq = block_sequence(universe, xs)
    offence = next(_window_offences(universe, cuts, seq.ranges, bs), None)
    if offence is not None:
        raise ConstructionFailure(*offence)
    for idx, (x, b) in enumerate(zip(xs, bs), start=1):
        f = b_as_functional(b)
        for power in range(cfg.k):
            value = pairing(universe, f, s_apply_power(universe, x, power))
            if value != 0:
                raise ConstructionFailure(
                    "orthogonality",
                    f"combination {idx} pairs to {format_rational(value)} "
                    f"with shift power {power} of its vector",
                )

    chain: list[int] = []
    for idx in range(1, a + 1):
        _extend_chain(universe, chain, cuts[idx], cuts[0], widx, bs[idx - 1])
    eta = chain[-1]

    top = universe.max_rank
    scale = cfg.m(widx) / a
    z = _vector_sum(extend_vector(universe, x, top) for x in xs).scaled(scale)

    clauses: list[ClauseResult] = []
    for power in range(cfg.k):
        value = _orbit_value(universe, z, eta, power)
        if value != 0:
            raise InvariantFault(
                f"weighted sum fails to vanish at shift power {power}: "
                f"{format_rational(value)}"
            )
        clauses.append(
            _identity_clause(f"orbit vanishing [power {power}]", True)
        )
    clauses.append(
        _identity_clause(
            "analysis echo",
            _echoes_chain(universe, chain, cuts, bs),
            "recorded chain data differs from the element's analysis",
        )
    )

    constant = 16 * minimal_ris_constant(universe, seq)
    report = check_exact_pair(universe, z, eta, constant, widx)
    return PairConstruction(
        z=z,
        eta=eta,
        chain=tuple(chain),
        cuts=cuts,
        scale=scale,
        j=widx,
        clauses=tuple(clauses),
        report=report,
        z_d_coords=tuple(sorted(d_coords_of(universe, z).items())),
    )


def helper_pair_parts(
    universe: Universe, count: int
) -> tuple[list[Vector], tuple[int, ...], list[BFunctional]]:
    """Fresh helper vectors, cuts, and carried combinations above the top rank,
    ready for ``build_exact_pair``.  A helper the config cannot hold (no
    weight index 2) is refused as "helper admissibility"."""
    base_rank = universe.max_rank
    base0 = universe.level(1)[0]
    xs = []
    bs = []
    cuts = [base_rank + 1]
    for i in range(1, count + 1):
        rank = base_rank + 2 * i
        try:
            phi = universe.intern(t1_candidate(rank, 0, 2, BFunctional.zero()))
            theta = universe.intern(t1_candidate(rank, 0, 2, BFunctional.singleton(base0)))
        except InadmissibleElement as err:
            raise ConstructionFailure("helper admissibility", "; ".join(err.violations)) from err
        xs.append(d_vector(universe, theta))
        bs.append(BFunctional.singleton(phi))
        cuts.append(rank + 1)
    return xs, tuple(cuts), bs


# -- dependent chains -----------------------------------------------------------------


def _step_pair(universe: Universe, step: int, weight_index: int) -> tuple[Vector, int]:
    """The vector and element of a fresh exact pair for a chain step,
    interned above the current top rank.

    The element is an age-1 carrier of the requested weight with an empty
    combination (so its whole shift orbit is undefined), and the vector is
    the biorthogonal vector of a one-rank-higher helper; the pair
    conditions then hold with the orbit values identically zero.
    """
    cfg = universe.config
    if weight_index > cfg.num_weights:
        raise SupplierExhausted(
            "weight cap",
            f"step {step} needs weight index {weight_index} but the config has only "
            f"{cfg.num_weights} weights",
        )
    rank_eta = max(universe.max_rank, weight_index, 1) + 1
    try:
        eta = universe.intern(t1_candidate(rank_eta, 0, weight_index, BFunctional.zero()))
        theta = universe.intern(t1_candidate(rank_eta + 1, 0, 2, BFunctional.zero()))
    except InadmissibleElement as err:
        raise SupplierExhausted(
            "helper admissibility", "; ".join(err.violations)
        ) from err
    return d_vector(universe, theta), eta


def carried_weights_decrease(weight_indices: Sequence[int]) -> bool:
    """The weights 1/m carried along a chain strictly decrease: their indices
    strictly increase.  Each next index is 4 sigma(xi) with sigma(xi) above
    the rank of xi, so admissibility forces them up."""
    return all(a < b for a, b in zip(weight_indices, weight_indices[1:]))


class DependentSequenceCertificate(NamedTuple):
    j0: int
    epsilon: Optional[Fraction]  # the weak form's epsilon; None for the exact form
    constant: Fraction
    p_seq: tuple[int, ...]          # p_0 .. p_L
    xi_chain: tuple[int, ...]
    eta_seq: tuple[int, ...]
    weight_indices: tuple[int, ...]  # the 4j weight index used at each step
    vectors: tuple[Vector, ...]
    clauses: tuple[ClauseResult, ...]
    pair_reports: tuple[ExactPairReport, ...]
    # d-coordinates of the vectors, so the certificate is replayable later
    raw_d_coords: tuple[tuple[tuple[int, Fraction], ...], ...] = ()

    @property
    def weak(self) -> bool:
        return self.epsilon is not None

    @property
    def identity_ok(self) -> bool:
        return _identities_hold(self.clauses) and all(r.identity_ok for r in self.pair_reports)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "j0": self.j0,
            "delta": 0,
            "weak": self.weak,
            "epsilon": None if self.epsilon is None else format_rational(self.epsilon),
            "constant": format_rational(self.constant),
            "p_seq": list(self.p_seq),
            "xi_chain": list(self.xi_chain),
            "eta_seq": list(self.eta_seq),
            "weight_indices": list(self.weight_indices),
            "vectors_d_coords": [_coords_json(dict(d)) for d in self.raw_d_coords],
            "clauses": [c.to_json_dict() for c in self.clauses],
            "pair_reports": [r.to_json_dict() for r in self.pair_reports],
        }


def build_dependent_sequence(
    universe: Universe, j0: int = 1, length: int = 1, weak: bool = False
) -> DependentSequenceCertificate:
    """Build a linked chain of odd-weight elements over fresh helper pairs.

    The first step picks the smallest admissible weight index of the form
    4*j; every later step is forced: its weight index is four times the
    numbering of the previous chain element.  Each step interns its pair
    above the previous cut and its chain element one rank above the pair.
    Chain elements must be admissible; every clause of the chain definition
    is recorded in the certificate with exact values.  The weak form bounds
    the orbit values by C/n instead of requiring them to vanish, n the age
    cap of the chain weight; the constant C is the least at which every
    pair's magnitude conditions hold.
    """
    cfg = universe.config
    odd_widx = 2 * j0 - 1
    _require_weight(cfg, odd_widx, "chain weight index")
    if length < 1:
        raise ConstructionFailure("length", "chain length must be positive")
    if length > cfg.n(odd_widx):
        raise ConstructionFailure(
            "age cap", f"length {length} exceeds the cap {cfg.n(odd_widx)}"
        )
    epsilon = Fraction(1, cfg.n(odd_widx)) if weak else None

    for j1 in range(1, cfg.num_weights // 4 + 1):
        if cfg.regime != STRICT or cfg.odd_weight_magnitude(odd_widx, 4 * j1):
            break
    else:
        raise SupplierExhausted(
            "odd-weight magnitude" if cfg.num_weights >= 4 else "weight cap",
            "no weight index of the form 4j is admissible for the first step",
        )

    p_seq = [0]
    xi_chain: list[int] = []
    eta_seq: list[int] = []
    weight_indices: list[int] = []
    vectors: list[Vector] = []
    for i in range(1, length + 1):
        w = 4 * j1 if i == 1 else 4 * universe.sigma(xi_chain[-1])
        x, eta = _step_pair(universe, i, w)
        # x is the d-vector of the new top element and eta lies below it
        p_i = universe.max_rank + 1
        _extend_chain(universe, xi_chain, p_i, 0, odd_widx, BFunctional.singleton(eta))
        p_seq.append(p_i)
        eta_seq.append(eta)
        weight_indices.append(w)
        vectors.append(x)

    top = universe.max_rank
    vectors = [extend_vector(universe, x, top) for x in vectors]
    steps = list(zip(vectors, eta_seq, weight_indices))
    terms = [_magnitude_terms(universe, x, eta, w, epsilon) for x, eta, w in steps]
    C = max(_least_constant(t) for t in terms)

    clauses: list[ClauseResult] = []
    clauses.append(
        _identity_clause(
            "cut ordering",
            all(p_seq[i] < p_seq[i + 1] for i in range(length)) and p_seq[0] == 0,
        )
    )
    carried = [BFunctional.singleton(eta) for eta in eta_seq]
    ranges = block_sequence(universe, vectors).ranges
    offences = {clause for clause, _ in _window_offences(universe, p_seq, ranges, carried)}
    clauses.append(_identity_clause("(1) vector ranges", "vector ranges" not in offences))
    clauses.append(_identity_clause("element windows", "window" not in offences))
    tail = universe.element(xi_chain[-1])
    clauses.append(
        _identity_clause(
            "(2) chain weight",
            tail.weight_idx == odd_widx and tail.rank == p_seq[-1],
        )
    )
    clauses.append(
        _identity_clause("analysis echo", _echoes_chain(universe, xi_chain, p_seq, carried))
    )
    linkage_ok = all(
        weight_indices[i] == 4 * universe.sigma(xi_chain[i - 1])
        for i in range(1, length)
    )
    clauses.append(_identity_clause("(4) numbering linkage", linkage_ok))
    clauses.append(
        _identity_clause(
            "decreasing element weights",
            carried_weights_decrease(weight_indices),
            "carried element weights do not strictly decrease",
        )
    )
    n_bound = Fraction(cfg.n(odd_widx)) ** 2
    worst_m = min(cfg.m(w) for w in weight_indices)
    ok = all(cfg.odd_weight_magnitude(odd_widx, w) for w in weight_indices)
    met = "bound met with equality; strict inequality required" if n_bound == worst_m else ""
    clauses.append(
        _clause("odd-weight magnitude", MAGNITUDE, ok, n_bound, worst_m, worst_m - n_bound, met)
    )

    reports = tuple(
        _graded_pair(universe, x, eta, C, w, epsilon, t) for (x, eta, w), t in zip(steps, terms)
    )
    cert = DependentSequenceCertificate(
        j0=j0,
        epsilon=epsilon,
        constant=C,
        p_seq=tuple(p_seq),
        xi_chain=tuple(xi_chain),
        eta_seq=tuple(eta_seq),
        weight_indices=tuple(weight_indices),
        vectors=tuple(vectors),
        clauses=tuple(clauses),
        pair_reports=reports,
        raw_d_coords=tuple(
            tuple(sorted(d_coords_of(universe, x).items())) for x in vectors
        ),
    )
    return cert


# -- lower-bound witness search ----------------------------------------------------


class SearchResult(NamedTuple):
    witness: Optional[int]
    lhs: Fraction
    rhs: Fraction

    @property
    def satisfied(self) -> bool:
        return self.witness is not None and self.lhs >= self.rhs


def lower_bound_search(
    universe: Universe, xs: Sequence[Vector], j: int
) -> SearchResult:
    """Exhaustively search the materialized elements of the given even weight
    for one where the plain sum of the vectors attains the lower bound
    (half the weight times the summed norms)."""
    cfg = universe.config
    widx = 2 * j
    _require_weight(cfg, widx, "weight index")
    rhs = cfg.weight(widx) / 2 * sum((sup_norm(x) for x in xs), Fraction(0))
    values, q = _numerators(xs)
    lhs, witness = _argmax_weighted(
        universe, xs, lambda w: w == widx, lambda w, g: sum(v.get(g, 0) for v in values)
    )
    return SearchResult(witness=witness, lhs=Fraction(lhs, q), rhs=rhs)


# -- shifted pairs ------------------------------------------------------------------


class ShiftedPairOutcome(NamedTuple):
    found: bool
    gamma: Optional[int]
    eta: Optional[int]
    shifted: Optional[Vector]
    delta_bound: Fraction
    clauses: tuple[ClauseResult, ...]
    report: Optional[ExactPairReport]


def build_shifted_exact_pair(
    universe: Universe,
    xs: Sequence[Vector],
    j: int,
    hypothesis_power: int,
    epsilon: Optional[Fraction] = None,
) -> ShiftedPairOutcome:
    """Locate a witness for the shifted-pair construction and evaluate it.

    ``hypothesis_power`` is the m of the hypothesis: the witness element is
    pulled back m-1 steps.  With m = k the resulting pair is checked in its
    special form; for 2 <= m < k the weak form applies and the decay of the
    m-th shifted orbit is evaluated as a hypothesis clause.  Hypotheses are
    evaluated and reported, never assumed.
    """
    cfg = universe.config
    k = cfg.k
    m = hypothesis_power
    if not 2 <= m <= k:
        raise ConstructionFailure("hypothesis", f"power {m} outside 2..{k}")
    eps = _weak_epsilon(epsilon)
    _require_weight(cfg, 2 * j, "weight index")
    a = len(xs)
    if a == 0:
        raise ConstructionFailure("length", "no vectors supplied")
    seq = block_sequence(universe, xs)
    C = minimal_ris_constant(universe, seq)

    clauses: list[ClauseResult] = []
    clauses.append(_identity_clause("skipped-block structure", seq.is_skipped))
    second_min = seq.ranges[1][0] if a >= 2 and seq.ranges[1] else None
    clauses.append(
        _identity_clause(
            "weight below second range",
            second_min is None or 2 * j < second_min,
            f"2j = {2 * j} not below {second_min}",
        )
    )
    shifted_once = [s_apply_power(universe, x, m - 1) for x in xs]
    delta_bound = min((sup_norm(sx) for sx in shifted_once), default=Fraction(0))
    clauses.append(
        _clause(
            f"orbit norms at power {m - 1}",
            MAGNITUDE,
            delta_bound > 0,
            delta_bound,
            0,
            witness="uniform lower bound over the sequence",
        )
    )
    if m < k:
        if eps is None:
            raise ConstructionFailure(
                "hypothesis", "epsilon is required for powers below the nilpotency degree"
            )
        decay = max(
            (sup_norm(s_apply_power(universe, x, m)) for x in xs), default=Fraction(0)
        )
        clauses.append(
            _bound_clause(
                f"orbit decay at power {m}", decay, C * cfg.weight(2 * j) * eps
            )
        )
    else:
        eps = None

    def outcome(
        gamma: Optional[int],
        eta: Optional[int],
        sx: Optional[Vector],
        report: Optional[ExactPairReport],
    ) -> ShiftedPairOutcome:
        return ShiftedPairOutcome(
            report is not None, gamma, eta, sx, delta_bound, tuple(clauses), report
        )

    search = lower_bound_search(universe, shifted_once, j)
    scale = cfg.m(2 * j) / a
    if search.witness is None:
        return outcome(None, None, None, None)
    gamma = search.witness
    clauses.append(_bound_clause("witness value", delta_bound / 2, search.lhs * scale, gamma))
    eta = universe.f_iterate(gamma, m - 1)
    clauses.append(
        _identity_clause(
            "pulled-back element defined",
            eta is not None,
            f"element {gamma} dies before {m - 1} steps",
        )
    )
    if eta is None:
        return outcome(gamma, None, None, None)
    sx = s_apply(universe, _vector_sum(xs).scaled(scale))
    return outcome(gamma, eta, sx, check_exact_pair(universe, sx, eta, 16 * C, 2 * j, eps))


# -- inequality diagnostics ----------------------------------------------------------


class EstimateReport(NamedTuple):
    name: str
    clauses: tuple[ClauseResult, ...]


def estimate_ris_averages(
    universe: Universe, xs: Sequence[Vector], constant: Fraction | int, j0: int
) -> EstimateReport:
    """Average-coordinate bounds for rapid-increase sequences, by weight case."""
    C = Fraction(constant)
    cfg = universe.config
    _require_weight(cfg, j0, "weight index")
    a = len(xs)
    values, q = _numerators(xs)

    def total(gid: int) -> int:
        """a * q times the average coordinate's absolute value at gid."""
        return abs(sum(v.get(gid, 0) for v in values))

    cases: list[tuple[str, Callable[[int], bool], Callable[[int], Fraction]]] = [
        (
            "weights below the sequence index",
            lambda w: w < j0,
            lambda w: 16 * C * cfg.weight(j0) * cfg.weight(w),
        ),
        (
            "weights at or above the sequence index",
            lambda w: w >= j0,
            lambda w: 4 * C / cfg.n(j0) + 6 * C * cfg.weight(w),
        ),
        (
            "weights strictly above the sequence index",
            lambda w: w > j0,
            lambda w: 10 * C * cfg.weight(j0) ** 2,
        ),
    ]
    clauses, weights = [], range(1, cfg.num_weights + 1)
    for name, weight_ok, bound in cases:
        # the worst element is the one with the least margin average - bound,
        # scored as its numerator over a * q * bq
        b, bq = to_integers({w: a * q * bound(w) for w in weights if weight_ok(w)})
        _, gid = _argmax_weighted(
            universe, xs, weight_ok, lambda w, g: total(g) * bq - b.get(w, 0)
        )
        if gid is None:
            lhs = rhs = Fraction(0)
        else:
            lhs, rhs = Fraction(total(gid), a * q), bound(universe.element(gid).weight_idx)
        clauses.append(_bound_clause(name, lhs, rhs, gid))
    clauses.append(
        _bound_clause(
            "average norm",
            Fraction(max(map(total, set().union(*values)), default=0), a * q),
            10 * C * cfg.weight(j0),
        )
    )
    return EstimateReport(name="ris-averages", clauses=tuple(clauses))


def estimate_lower_bound(
    universe: Universe, xs: Sequence[Vector], j: int, search: Optional[SearchResult] = None
) -> EstimateReport:
    """Witness search for the skipped-block lower norm estimate; ``search``
    is ``lower_bound_search(universe, xs, j)`` when the caller has run it."""
    if search is None:
        search = lower_bound_search(universe, xs, j)
    seq = block_sequence(universe, xs)
    cfg = universe.config
    clauses: list[ClauseResult] = [
        _identity_clause("skipped-block structure", seq.is_skipped),
        _identity_clause(
            "length within cap",
            len(xs) <= cfg.n(2 * j),
            f"length {len(xs)} exceeds {cfg.n(2 * j)}",
        ),
    ]
    if len(xs) >= 2 and seq.ranges[1] is not None:
        clauses.append(
            _identity_clause(
                "weight below second range",
                2 * j < seq.ranges[1][0],
                f"2j = {2 * j} not below {seq.ranges[1][0]}",
            )
        )
    found = search.witness is not None
    at = f"element {search.witness}" if found else "no materialized element of the required weight"
    lhs, margin = (search.lhs, search.lhs - search.rhs) if found else (None, None)
    clauses.append(
        _clause("witness search", MAGNITUDE, search.satisfied, lhs, search.rhs, margin, at)
    )
    clauses.append(_bound_clause("norm lower display", search.rhs, sup_norm(_vector_sum(xs))))
    return EstimateReport(name="lower-bound-search", clauses=tuple(clauses))

