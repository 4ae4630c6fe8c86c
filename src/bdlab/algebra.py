"""Exact sparse linear algebra over the two dual coordinate systems.

Functionals live in one of two bases: the unit coordinates ``e*`` (one per
element) or the biorthogonal coordinates ``d*`` given by
``d*_gamma = e*_gamma - c*_gamma`` where ``c*_gamma`` is the coding
functional determined by the element's shape.  The change of basis is
unitriangular in rank order, so conversions are back-substitutions, never
general solves.  Rank-window projections act as coordinate restrictions in
the ``d*`` basis; a window ``(p, q)`` always means ranks r with p < r <= q.

The coding rows ``c*`` of a universe live in one append-only store,
``CodingRows``, which this module owns and keys by universe.  It holds per
element the rank, the row, and the reverse "users" index (the elements whose
rows mention it).  The store is synced on read: every entry point first
appends rows for ids it has not seen yet, which is sound because a row only
mentions ids of lower rank interned earlier.  Building or growing a universe
therefore computes no rows.  Rows are immutable once stored; ``c_star``
hands out the stored row itself, with a read-only coordinate mapping.

Vectors are coordinate arrays over the materialized universe up to a stated
horizon.  They are synthesized from prescribed ``d``-coordinates by forward
substitution (each new coordinate is the pairing of the element's coding
functional with the part already built), which is also how local data on a
rank-window extends to the whole truncation.  The substitution visits only
the elements reachable from the data through the users index, in (rank, id)
order (Gilbert and Peierls, SIAM J. Sci. Stat. Comput. 9(5), 1988); every
other coordinate is zero.

Everything is a Fraction; there is no tolerance anywhere in this module.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional
from weakref import WeakKeyDictionary

from .elements import BASE, TYPE1, TYPE2, BFunctional, GammaElement
from .universe import Universe

E_BASIS = "e*"
D_BASIS = "d*"

Coords = dict[int, Fraction]

_ZERO = Fraction(0)


class AlgebraError(ValueError):
    pass


def _clean(coords: Coords) -> Coords:
    return {gid: c for gid, c in coords.items() if c != 0}


@dataclass
class Functional:
    """A finitely supported functional tagged with its coordinate basis."""

    basis: str
    coords: Coords = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.basis not in (E_BASIS, D_BASIS):
            raise AlgebraError(f"unknown basis {self.basis!r}")
        self.coords = _clean(self.coords)

    def support(self) -> list[int]:
        return sorted(self.coords)

    def scaled(self, factor: Fraction | int) -> "Functional":
        factor = Fraction(factor)
        return Functional(self.basis, {g: c * factor for g, c in self.coords.items()})

    def plus(self, other: "Functional") -> "Functional":
        if other.basis != self.basis:
            raise AlgebraError("cannot add functionals in different bases")
        out = dict(self.coords)
        for g, c in other.coords.items():
            out[g] = out.get(g, Fraction(0)) + c
        return Functional(self.basis, out)

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Functional)
            and self.basis == other.basis
            and self.coords == other.coords
        )


@dataclass
class Vector:
    """Coordinates over the materialized elements of rank <= horizon."""

    coords: Coords
    horizon: int

    def __post_init__(self) -> None:
        self.coords = _clean(self.coords)

    def at(self, gid: int) -> Fraction:
        return self.coords.get(gid, Fraction(0))

    def scaled(self, factor: Fraction | int) -> "Vector":
        factor = Fraction(factor)
        return Vector({g: c * factor for g, c in self.coords.items()}, self.horizon)

    def plus(self, other: "Vector") -> "Vector":
        out = dict(self.coords)
        for g, c in other.coords.items():
            out[g] = out.get(g, Fraction(0)) + c
        return Vector(out, min(self.horizon, other.horizon))


def e_star(gid: int) -> Functional:
    return Functional(E_BASIS, {gid: Fraction(1)})


def b_as_functional(b: BFunctional) -> Functional:
    return Functional(E_BASIS, dict(b.items()))


# -- the coding-row store -------------------------------------------------------


class CodingRows:
    """Append-only coding rows of one universe, indexed by element id.

    ``rank[g]`` is the element's rank, ``rows[g]`` its coding row as an
    e*-``Functional`` whose coordinate mapping is read-only, and ``users[g]``
    the ascending ids whose rows mention ``g``.  Entry g depends only on
    entries below g, so entries are appended in id order and never change.
    """

    __slots__ = ("rank", "rows", "users")

    def __init__(self) -> None:
        self.rank: list[int] = []
        self.rows: list[Functional] = []
        self.users: list[list[int]] = []

    def __len__(self) -> int:
        return len(self.rank)

    def sync(self, universe: Universe) -> None:
        """Append the rows of every element interned since the last sync."""
        for el in universe.elements[len(self.rank):]:
            coords = _compute_cstar(self, universe, el)
            row = Functional(E_BASIS)
            row.coords = MappingProxyType(coords)
            for h in coords:
                self.users[h].append(el.gid)
            self.rank.append(el.rank)
            self.rows.append(row)
            self.users.append([])


_STORES: "WeakKeyDictionary[Universe, CodingRows]" = WeakKeyDictionary()


def row_store(universe: Universe) -> CodingRows:
    """The universe's coding-row store as synced so far (empty until first read)."""
    store = _STORES.get(universe)
    if store is None:
        store = _STORES[universe] = CodingRows()
    return store


def _rows(universe: Universe) -> CodingRows:
    """The universe's store, synced up to its newest element."""
    store = _STORES.get(universe)
    if store is None or len(store.rank) < len(universe.elements):
        store = row_store(universe)
        store.sync(universe)
    return store


def _checked(universe: Universe, store: CodingRows, ids: Iterable[int]) -> None:
    n = len(store.rank)
    for gid in ids:
        if gid >= n:
            universe.element(gid)  # raises DanglingReference


def _ascending(rank: list[int], ids: Iterable[int]) -> list[int]:
    """Ids in (rank, id) order."""
    out = sorted(ids)
    out.sort(key=rank.__getitem__)
    return out


def _reach(store: CodingRows, seeds: Iterable[int], lo: int, hi: int) -> set[int]:
    """Ids with lo < rank <= hi reachable from seeds through the users index.

    Users outrank the rows they mention, so a search that stops above ``hi``
    misses nothing below it.
    """
    rank, users = store.rank, store.users
    seen: set[int] = set()
    stack = list(seeds)
    while stack:
        for u in users[stack.pop()]:
            if u not in seen and lo < rank[u] <= hi:
                seen.add(u)
                stack.append(u)
    return seen


# -- coding functionals and the basis change ---------------------------------


def c_star(universe: Universe, gid: int) -> Functional:
    """The coding functional of an element, in e*-coordinates (the stored row)."""
    store = _rows(universe)
    _checked(universe, store, (gid,))
    return store.rows[gid]


def _compute_cstar(store: CodingRows, universe: Universe, el: GammaElement) -> Coords:
    if el.kind == BASE:
        return {}
    beta = universe.config.weight(el.weight_idx)
    if el.kind == TYPE1:
        lo = el.p
        out: Coords = {}
    else:
        lo = store.rank[el.xi]
        out = {el.xi: Fraction(1)}
    tail = _to_e(store, _restrict(store, _to_d(store, dict(el.b.items())), lo, None))
    for g, c in tail.items():
        out[g] = out.get(g, _ZERO) + c * beta
    return _clean(out)


def d_star(universe: Universe, gid: int) -> Functional:
    """e*_gid minus the coding functional, in e*-coordinates."""
    return e_star(gid).plus(c_star(universe, gid).scaled(-1))


def _to_d(store: CodingRows, coords: Mapping[int, Fraction]) -> Coords:
    """Back-substitute from the top rank down (unitriangular system).

    Rows only mention lower ranks, so the work set is bucketed by rank once
    and each bucket is final when its rank is reached.  Output order: rank
    descending, id ascending within a rank.
    """
    rank, rows = store.rank, store.rows
    work = dict(coords)
    buckets: dict[int, list[int]] = {}
    for g in work:
        buckets.setdefault(rank[g], []).append(g)
    out: Coords = {}
    for r in range(max(buckets, default=0), 0, -1):
        layer = buckets.get(r)
        if not layer:
            continue
        layer.sort()
        for gid in layer:
            a = work.pop(gid)
            if a == 0:
                continue
            out[gid] = a
            for h, c in rows[gid].coords.items():
                if h in work:
                    work[h] += a * c
                else:
                    work[h] = a * c
                    buckets.setdefault(rank[h], []).append(h)
    return out


def _to_e(store: CodingRows, coords: Mapping[int, Fraction]) -> Coords:
    rows = store.rows
    out: Coords = {}
    for gid, a in coords.items():
        out[gid] = out.get(gid, _ZERO) + a
        for h, c in rows[gid].coords.items():
            out[h] = out.get(h, _ZERO) - a * c
    return _clean(out)


def _restrict(
    store: CodingRows, coords: Mapping[int, Fraction], lo: int, hi: Optional[int]
) -> Coords:
    rank = store.rank
    return {
        g: c
        for g, c in coords.items()
        if lo < rank[g] and (hi is None or rank[g] <= hi)
    }


def to_d_basis(universe: Universe, f: Functional) -> Functional:
    """Back-substitute from the top rank down (unitriangular system)."""
    if f.basis == D_BASIS:
        return Functional(D_BASIS, dict(f.coords))
    store = _rows(universe)
    _checked(universe, store, f.coords)
    return Functional(D_BASIS, _to_d(store, f.coords))


def to_e_basis(universe: Universe, f: Functional) -> Functional:
    if f.basis == E_BASIS:
        return Functional(E_BASIS, dict(f.coords))
    store = _rows(universe)
    _checked(universe, store, f.coords)
    return Functional(E_BASIS, _to_e(store, f.coords))


def project_star(
    universe: Universe, lo: int, hi: Optional[int], f: Functional
) -> Functional:
    """Restrict to ranks in (lo, hi] in d*-coordinates; hi=None means no top."""
    store = _rows(universe)
    _checked(universe, store, f.coords)
    d = f.coords if f.basis == D_BASIS else _to_d(store, f.coords)
    kept = _restrict(store, d, lo, hi)
    if f.basis == E_BASIS:
        return Functional(E_BASIS, _to_e(store, kept))
    return Functional(D_BASIS, kept)


# -- vectors ------------------------------------------------------------------


def _below(store: CodingRows, ids: Iterable[int], top: int) -> list[int]:
    """The ids that are elements of rank <= top; others are ignored."""
    rank = store.rank
    n = len(rank)
    return [g for g in ids if 0 <= g < n and rank[g] <= top]


def synthesize(universe: Universe, d_coords: Coords, horizon: Optional[int] = None) -> Vector:
    """Vector with the given d-coordinates, materialized up to horizon.

    Forward substitution: the coordinate at each element is its prescribed
    d-coordinate plus the pairing of its coding functional with the part of
    the vector already built.  Only elements reachable from the nonzero
    data through the users index can be nonzero; each visited element's row
    is read through ``c_star``, so its call count is the number visited.
    """
    top = universe.max_rank if horizon is None else horizon
    store = _rows(universe)
    seeds = _below(store, (g for g, v in d_coords.items() if v != 0), top)
    coords: Coords = {}
    for gid in _ascending(store.rank, _reach(store, seeds, 0, top).union(seeds)):
        value = d_coords.get(gid, _ZERO)
        for h, c in c_star(universe, gid).coords.items():
            hv = coords.get(h)
            if hv is not None:
                value += c * hv
        if value != 0:
            coords[gid] = value
    return Vector(coords, top)


def d_vector(universe: Universe, gid: int, horizon: Optional[int] = None) -> Vector:
    """The biorthogonal basis vector of an element, as a coordinate array."""
    return synthesize(universe, {gid: Fraction(1)}, horizon)


def extend(universe: Universe, data: Coords, q: int, horizon: Optional[int] = None) -> Vector:
    """Extend coordinates prescribed on ranks <= q to the truncation.

    Returns the unique vector supported by biorthogonal vectors of rank <= q
    whose restriction to ranks <= q equals ``data``.
    """
    top = universe.max_rank if horizon is None else horizon
    store = _rows(universe)
    rows = store.rows
    coords: Coords = {}
    for gid in _ascending(store.rank, _below(store, data, q)):
        v = data[gid]
        if v != 0:
            coords[gid] = v
    for gid in _ascending(store.rank, _reach(store, list(coords), q, top)):
        value = _ZERO
        for h, c in rows[gid].coords.items():
            hv = coords.get(h)
            if hv is not None:
                value += c * hv
        if value != 0:
            coords[gid] = value
    return Vector(coords, top)


def extend_vector(universe: Universe, x: Vector, horizon: int) -> Vector:
    """Re-extend a vector upward after the universe grew past its horizon."""
    if horizon <= x.horizon:
        return Vector(dict(x.coords), x.horizon)
    return extend(universe, dict(x.coords), x.horizon, horizon)


def d_coords_of(universe: Universe, x: Vector) -> Coords:
    """Read off d-coordinates: at each element, coordinate minus coding pairing.

    Only the support of x and its direct users can have a nonzero reading.
    """
    store = _rows(universe)
    rank, rows, users = store.rank, store.rows, store.users
    xc = x.coords
    top = x.horizon
    support = _below(store, xc, top)
    visit = set(support)
    for g in support:
        visit.update(u for u in users[g] if rank[u] <= top)
    out: Coords = {}
    for gid in _ascending(rank, visit):
        value = xc.get(gid, _ZERO)
        for h, c in rows[gid].coords.items():
            hv = xc.get(h)
            if hv is not None:
                value -= c * hv
        if value != 0:
            out[gid] = value
    return out


def vector_range(universe: Universe, x: Vector) -> Optional[tuple[int, int]]:
    """Smallest rank interval whose biorthogonal vectors span x (None if x=0)."""
    d = d_coords_of(universe, x)
    if not d:
        return None
    ranks = [universe.element(g).rank for g in d]
    return (min(ranks), max(ranks))


# -- pairings and norms ---------------------------------------------------------


def pairing(universe: Universe, f: Functional, x: Vector) -> Fraction:
    fe = to_e_basis(universe, f)
    total = Fraction(0)
    for gid, c in fe.coords.items():
        if universe.element(gid).rank > x.horizon:
            raise AlgebraError(
                f"functional support id {gid} lies beyond vector horizon {x.horizon}"
            )
        total += c * x.at(gid)
    return total


def l1_norm(universe: Universe, f: Functional) -> Fraction:
    fe = to_e_basis(universe, f)
    return sum((abs(c) for c in fe.coords.values()), Fraction(0))


def sup_norm(x: Vector) -> Fraction:
    return max((abs(c) for c in x.coords.values()), default=Fraction(0))


def op_norm_l1(
    universe: Universe, column: Callable[[int], Functional], ids: Iterable[int]
) -> Fraction:
    """Exact operator norm on the summable side: max column l1 mass."""
    best = Fraction(0)
    for gid in ids:
        mass = l1_norm(universe, column(gid))
        if mass > best:
            best = mass
    return best


# -- evaluation analysis ---------------------------------------------------------


@dataclass(frozen=True)
class AnalysisStep:
    p: int              # rank of the chain element
    b: BFunctional      # the step's carried combination
    xi: int             # id of the chain element


@dataclass(frozen=True)
class EvaluationAnalysis:
    gid: int
    weight_idx: int
    p0: int
    steps: tuple[AnalysisStep, ...]

    @property
    def age(self) -> int:
        return len(self.steps)

    def cut_points(self) -> list[int]:
        return [self.p0] + [s.p for s in self.steps]


def evaluation_analysis(universe: Universe, gid: int) -> EvaluationAnalysis:
    """Unwind an element's age chain into its step-by-step analysis data."""
    el = universe.element(gid)
    if el.kind == BASE:
        raise AlgebraError("base elements have no evaluation analysis")
    steps: list[AnalysisStep] = []
    cur = el
    while cur.kind == TYPE2:
        steps.append(AnalysisStep(p=cur.rank, b=cur.b, xi=cur.gid))
        cur = universe.element(cur.xi)
    assert cur.kind == TYPE1
    steps.append(AnalysisStep(p=cur.rank, b=cur.b, xi=cur.gid))
    steps.reverse()
    return EvaluationAnalysis(
        gid=gid, weight_idx=el.weight_idx, p0=cur.p, steps=tuple(steps)
    )
