"""Exact sparse linear algebra over the two dual coordinate systems.

Functionals live in one of two bases: the unit coordinates ``e*`` (one per
element) or the biorthogonal coordinates ``d*`` given by
``d*_gamma = e*_gamma - c*_gamma`` where ``c*_gamma`` is the coding
functional determined by the element's shape.  The change of basis is
unitriangular in rank order, so conversions are back-substitutions, never
general solves.  Rank-window projections act as coordinate restrictions in
the ``d*`` basis; a window ``(p, q)`` always means ranks r with p < r <= q.

The coding rows ``c*`` of a universe live in one append-only store,
``CodingRows``, which this module owns and keeps on its universe
(``Universe.rows``), so the store lives as long as the universe.  It holds
per element the rank, the row, and the reverse "users" index (the elements
whose rows mention it).  The store is synced on read: every entry point first
appends rows for ids it has not seen yet, which is sound because a row only
mentions ids of lower rank interned earlier.  Building or growing a universe
therefore computes no rows.  Rows are immutable once stored.

Vectors are coordinate arrays over the materialized universe up to a stated
horizon.  They are synthesized from prescribed ``d``-coordinates by forward
substitution (each new coordinate is the pairing of the element's coding
functional with the part already built), which is also how local data on a
rank-window extends to the whole truncation.  The substitution visits only
the elements reachable from the data through the users index, in (rank, id)
order (Gilbert and Peierls, SIAM J. Sci. Stat. Comput. 9(5), 1988); every
other coordinate is zero.

Integers inside, Fractions at the boundary, never a float.  Each coding row
is stored once, as integer numerators over the row's least denominator, and
the store's kernels (``CodingRows.to_d`` and the rest) carry integer
numerators over one common denominator per call.  That denominator grows,
and every numerator with it, only where a division by a row's denominator is
inexact; it stays the least common denominator of the values seen, in the
spirit of fraction-free elimination (Bareiss, Math. Comp. 22, 1968).  A
``Fraction`` is built only where a ``Functional``, ``Vector`` or ``Coords``
leaves this module.  There is no tolerance anywhere in this module.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Optional

from .elements import BASE, TYPE1, TYPE2, BFunctional, GammaElement
from .universe import Universe

E_BASIS = "e*"
D_BASIS = "d*"

Coords = dict[int, Fraction]
IntCoords = dict[int, int]  # numerators over a denominator carried beside them



class AlgebraError(ValueError):
    pass


def _clean(coords: Coords) -> Coords:
    """A fresh copy of the coordinates without zeros."""
    return dict(coords) if all(coords.values()) else {g: c for g, c in coords.items() if c}


class Functional:
    """A finitely supported functional tagged with its coordinate basis."""

    __slots__ = ("basis", "coords")

    def __init__(self, basis: str, coords: Optional[Coords] = None) -> None:
        if basis not in (E_BASIS, D_BASIS):
            raise AlgebraError(f"unknown basis {basis!r}")
        self.basis = basis
        self.coords = {} if coords is None else _clean(coords)

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

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Functional)
            and self.basis == other.basis
            and self.coords == other.coords
        )

    def __repr__(self) -> str:
        return f"Functional(basis={self.basis!r}, coords={self.coords!r})"


class Vector:
    """Coordinates over the materialized elements of rank <= horizon."""

    __slots__ = ("coords", "horizon")

    def __init__(self, coords: Coords, horizon: int) -> None:
        self.coords = _clean(coords)
        self.horizon = horizon

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Vector)
            and self.coords == other.coords
            and self.horizon == other.horizon
        )

    def __repr__(self) -> str:
        return f"Vector(coords={self.coords!r}, horizon={self.horizon!r})"

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


def to_integers(coords: Mapping[int, Fraction]) -> tuple[IntCoords, int]:
    """Rational coordinates as numerators over their least common
    denominator, zeros dropped, order kept."""
    q = lcm(*(c.denominator for c in coords.values()))
    return {g: c.numerator * (q // c.denominator) for g, c in coords.items() if c}, q


def _fractions(coords: IntCoords, q: int) -> Coords:
    return {g: Fraction(v, q) for g, v in coords.items()}


def _grow(t: int, *parts: IntCoords) -> None:
    """Scale every numerator by t in place: their common denominator grew by t."""
    for part in parts:
        for g in part:
            part[g] *= t


# -- the coding-row store -------------------------------------------------------


class CodingRows:
    """Append-only coding rows of one universe, indexed by element id, and the
    integer kernels that read them.

    ``rank[g]`` is the element's rank; ``num[g]`` and ``den[g]`` are its
    coding row, the e*-coordinate at h being ``num[g][h] / den[g]`` with
    ``den[g]`` the least common denominator of the row; ``users[g]`` holds
    the ascending ids whose rows mention ``g``.  Entry g depends only on
    entries below g, so entries are appended in id order and never change.

    Each kernel takes numerators with their common denominator q and returns
    its result the same way; q grows only where a division is inexact.
    """

    __slots__ = ("rank", "num", "den", "users")

    def __init__(self) -> None:
        self.rank: list[int] = []
        self.num: list[IntCoords] = []
        self.den: list[int] = []
        self.users: list[list[int]] = []

    def __len__(self) -> int:
        return len(self.rank)

    def sync(self, universe: Universe) -> None:
        """Append the rows of every element interned since the last sync.

        Elements with equal b share one object (``Universe.intern``), so a
        call expands each distinct b in the d*-basis once, keyed by the
        object; the memo ends with the call."""
        expanded: dict[int, tuple[IntCoords, int]] = {}
        for el in universe.elements[len(self.rank):]:
            row, den = _compute_cstar(self, universe, el, expanded)
            for h in row:
                self.users[h].append(el.gid)
            self.rank.append(el.rank)
            self.num.append(row)
            self.den.append(den)
            self.users.append([])

    def restrict(self, coords: IntCoords, lo: int, hi: Optional[int]) -> IntCoords:
        """The coordinates on ranks in (lo, hi]; hi=None means no top."""
        rank = self.rank
        return {
            g: c
            for g, c in coords.items()
            if lo < rank[g] and (hi is None or rank[g] <= hi)
        }

    def to_d(self, coords: IntCoords, q: int) -> tuple[IntCoords, int]:
        """Back-substitute from the top rank down (unitriangular system).

        Pending ids wait on a heap of ``(-rank, id)`` pairs, so the cost does
        not depend on how many ranks lie between them.  Rows only mention
        lower ranks, so an id is final when it is popped, and the output comes
        in pop order: rank descending, id ascending within a rank.  Each output
        numerator is a multiple of its own row's denominator.
        """
        rank, num, den = self.rank, self.num, self.den
        work = dict(coords)
        heap = [(-rank[g], g) for g in work]
        heapify(heap)
        out: IntCoords = {}
        while heap:
            gid = heappop(heap)[1]
            a = work.pop(gid)
            if not a:
                continue
            d = den[gid]
            if a % d:
                t = d // gcd(a, d)
                q, a = q * t, a * t
                _grow(t, work, out)
            out[gid] = a
            a //= d
            for h, c in num[gid].items():
                if h in work:
                    work[h] += a * c
                else:
                    work[h] = a * c
                    heappush(heap, (-rank[h], h))
        return out, q

    def to_e(self, coords: IntCoords, q: int) -> tuple[IntCoords, int]:
        """e*-coordinates of d*-coordinates: each d*_g is e*_g minus row g."""
        num, den = self.num, self.den
        t = lcm(*(den[g] // gcd(a, den[g]) for g, a in coords.items()))
        out: IntCoords = {}
        for gid, a in coords.items():
            a *= t
            out[gid] = out.get(gid, 0) + a
            a //= den[gid]
            for h, c in num[gid].items():
                out[h] = out.get(h, 0) - a * c
        return {g: v for g, v in out.items() if v}, q * t

    def _substitute(
        self, x: IntCoords, q: int, order: list[int], data: IntCoords, out: IntCoords, sign: int
    ) -> int:
        """At each id of ``order`` in turn, ``out`` gets its datum plus ``sign``
        times the pairing of its row with x, where x is ``out`` itself (forward
        substitution) or ``data`` (read-off).  Numerators are over q; returns
        the denominator that ``data`` and ``out`` end over."""
        num, den = self.num, self.den
        for gid in order:
            s = 0
            for h, c in num[gid].items():
                hv = x.get(h)
                if hv is not None:
                    s += c * hv
            d = den[gid]
            if s % d:
                t = d // gcd(s, d)
                q, s = q * t, s * t
                _grow(t, data, out)
            value = data.get(gid, 0) + sign * (s // d)
            if value:
                out[gid] = value
        return q

    def synthesize(self, data: IntCoords, q: int, top: int) -> tuple[IntCoords, int]:
        """The vector with d-coordinates ``data`` up to rank ``top``."""
        seeds = _below(self, data, top)
        order = _ascending(self.rank, _reach(self, seeds, 0, top).union(seeds))
        x: IntCoords = {}
        return x, self._substitute(x, q, order, dict(data), x, 1)

    def extend(self, data: IntCoords, q: int, cut: int, top: int) -> tuple[IntCoords, int]:
        """The vector spanned below ``cut`` that equals ``data`` on ranks <= cut."""
        x = {g: data[g] for g in _ascending(self.rank, _below(self, data, cut))}
        order = _ascending(self.rank, _reach(self, list(x), cut, top))
        return x, self._substitute(x, q, order, {}, x, 1)

    def read_off(self, x: IntCoords, q: int, top: int) -> tuple[IntCoords, int]:
        """d-coordinates of x up to rank ``top``: at each element, coordinate
        minus coding pairing.  Only the support of x and its direct users can
        have a nonzero reading."""
        rank, users = self.rank, self.users
        support = _below(self, x, top)
        visit = set(support)
        for g in support:
            visit.update(u for u in users[g] if rank[u] <= top)
        data, out = dict(x), {}
        return out, self._substitute(data, q, _ascending(rank, visit), data, out, -1)


def row_store(universe: Universe) -> CodingRows:
    """The universe's coding-row store as synced so far (empty until first read)."""
    store = universe.rows
    if store is None:
        store = universe.rows = CodingRows()
    return store


def coding_rows(universe: Universe) -> CodingRows:
    """The universe's store, synced up to its newest element."""
    store = universe.rows
    if store is None or len(store.rank) < len(universe.elements):
        store = row_store(universe)
        store.sync(universe)
    return store


def _checked(universe: Universe, store: CodingRows, ids: Iterable[int]) -> None:
    n = len(store.rank)
    for gid in ids:
        if not 0 <= gid < n:
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


def _below(store: CodingRows, ids: Iterable[int], top: int) -> list[int]:
    """The ids that are elements of rank <= top; others are ignored."""
    rank = store.rank
    n = len(rank)
    return [g for g in ids if 0 <= g < n and rank[g] <= top]


# -- coding functionals and the basis change ---------------------------------


def _compute_cstar(
    store: CodingRows,
    universe: Universe,
    el: GammaElement,
    expanded: dict[int, tuple[IntCoords, int]],
) -> tuple[IntCoords, int]:
    """The element's coding row as numerators over its least denominator.
    ``expanded`` holds the d*-coordinates of the b's seen so far in this
    sync, by ``id``; they are read, never changed."""
    if el.kind == BASE:
        return {}, 1
    beta = universe.config.weight(el.weight_idx)
    lo = el.p if el.kind == TYPE1 else store.rank[el.xi]
    b = el.b
    d_of_b = expanded.get(id(b))
    if d_of_b is None:
        d_of_b = expanded[id(b)] = store.to_d(*to_integers(dict(b.items())))
    d, q = d_of_b
    tail, q = store.to_e(store.restrict(d, lo, None), q)
    den = q * beta.denominator
    row = {el.xi: den} if el.kind == TYPE2 else {}
    for g, c in tail.items():
        row[g] = row.get(g, 0) + c * beta.numerator
    common = gcd(den, *row.values())
    return {g: v // common for g, v in row.items() if v}, den // common


def to_e_basis(universe: Universe, f: Functional) -> Functional:
    if f.basis == E_BASIS:
        return Functional(E_BASIS, dict(f.coords))
    store = coding_rows(universe)
    _checked(universe, store, f.coords)
    return Functional(E_BASIS, _fractions(*store.to_e(*to_integers(f.coords))))


def project_star(
    universe: Universe, lo: int, hi: Optional[int], f: Functional
) -> Functional:
    """Restrict to ranks in (lo, hi] in d*-coordinates; hi=None means no top."""
    store = coding_rows(universe)
    _checked(universe, store, f.coords)
    if f.basis == D_BASIS:
        return Functional(D_BASIS, store.restrict(f.coords, lo, hi))
    d, q = store.to_d(*to_integers(f.coords))
    return Functional(E_BASIS, _fractions(*store.to_e(store.restrict(d, lo, hi), q)))


# -- vectors ------------------------------------------------------------------


def synthesize(universe: Universe, d_coords: Coords, horizon: Optional[int] = None) -> Vector:
    """Vector with the given d-coordinates, materialized up to horizon.

    Forward substitution: the coordinate at each element is its prescribed
    d-coordinate plus the pairing of its coding functional with the part of
    the vector already built.  Only elements reachable from the nonzero
    data through the users index can be nonzero.
    """
    top = universe.max_rank if horizon is None else horizon
    store = coding_rows(universe)
    return Vector(_fractions(*store.synthesize(*to_integers(d_coords), top)), top)


def d_vector(universe: Universe, gid: int, horizon: Optional[int] = None) -> Vector:
    """The biorthogonal basis vector of an element, as a coordinate array."""
    return synthesize(universe, {gid: Fraction(1)}, horizon)


def extend(universe: Universe, data: Coords, q: int, horizon: Optional[int] = None) -> Vector:
    """Extend coordinates prescribed on ranks <= q to the truncation.

    Returns the unique vector supported by biorthogonal vectors of rank <= q
    whose restriction to ranks <= q equals ``data``.
    """
    top = universe.max_rank if horizon is None else horizon
    store = coding_rows(universe)
    return Vector(_fractions(*store.extend(*to_integers(data), q, top)), top)


def extend_vector(universe: Universe, x: Vector, horizon: int) -> Vector:
    """Re-extend a vector upward after the universe grew past its horizon."""
    if horizon <= x.horizon:
        return Vector(dict(x.coords), x.horizon)
    return extend(universe, dict(x.coords), x.horizon, horizon)


def d_coords_of(universe: Universe, x: Vector) -> Coords:
    """Read off d-coordinates: at each element, coordinate minus coding pairing.

    Only the support of x and its direct users can have a nonzero reading.
    """
    store = coding_rows(universe)
    return _fractions(*store.read_off(*to_integers(x.coords), x.horizon))


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
    return max(max(x.coords.values()), -min(x.coords.values())) if x.coords else Fraction(0)


# -- evaluation analysis ---------------------------------------------------------


class AnalysisStep(NamedTuple):
    p: int              # rank of the chain element
    b: BFunctional      # the step's carried combination
    xi: int             # id of the chain element


class EvaluationAnalysis(NamedTuple):
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
