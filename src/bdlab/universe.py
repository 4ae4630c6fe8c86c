"""The materialized index set: validation, interning, level enumeration.

A universe is built level by level.  Rank 1 holds the k seed elements; each
higher level is populated either by the canonical enumerator (a capped but
deterministic sweep of the admissible shapes) or by explicit interning, which
the sequence-construction machinery uses to extend a universe upward.

Interning is single-writer and idempotent.  Every successful intern
immediately computes the element's shift image; when the image is a new
element it is interned recursively, so the materialized set is always closed
under the shift map.  Ids are assigned sequentially, and the sigma counter
(sigma = max(counter, rank) + 1) runs in intern order, which the enumerator
keeps canonical.

A capped universe is itself a legitimate finite instance of the construction
(every window, age cap and sigma-set constraint refers to materialized
elements only), which is why the exact identities verified downstream hold
with no tolerance even under aggressive caps.
"""
from __future__ import annotations

import heapq
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .config import ConstructionConfig, STRICT
from .elements import (
    BASE,
    BFunctional,
    Candidate,
    GammaElement,
    TYPE1,
    TYPE2,
    base_candidate,
    describe,
    t1_candidate,
    t2_candidate,
)
from .serialize import format_rational, stable_hash


class UniverseError(RuntimeError):
    """Level discipline, horizon, or budget violations."""


class DanglingReference(UniverseError):
    """A candidate refers to an id that was never interned (structural)."""


class InadmissibleElement(UniverseError):
    """Interning was attempted for a candidate that fails validation."""

    def __init__(self, violations: list[str]):
        super().__init__("inadmissible candidate: " + "; ".join(violations))
        self.violations = violations


class InvariantFault(UniverseError):
    """A shift image failed validation; the construction invariant is broken."""


class _PerB:
    """What a universe works out once per distinct carried b: the one
    ``BFunctional`` every element with that b shares, its pushed image with
    the image's key (``shift_image_candidate``) and its even-weight net
    verdict (``_net_verdict``); the last two are filled on first use."""

    __slots__ = ("b", "image", "net")

    def __init__(self, b: BFunctional):
        self.b = b
        self.image: Optional[tuple[BFunctional, tuple]] = None
        self.net: Optional[list[str]] = None


def _net_verdict(cfg: ConstructionConfig, terms: tuple[tuple[int, Fraction], ...]) -> list[str]:
    """The net-membership clauses of an even-weight b: support size,
    denominators and l1 mass, which read b and the config alone."""
    bad = []
    if len(terms) > cfg.max_support:
        bad.append(f"net membership: support size {len(terms)} exceeds cap {cfg.max_support}")
    dens = [c.denominator for _, c in terms]
    for den in dens:
        if cfg.denominator_bound % den != 0:
            bad.append(
                f"net membership: denominator {den} does not divide {cfg.denominator_bound}"
            )
            break
    # l1 mass against 1: numerators over the least common denominator q
    q = lcm(*dens)
    if sum([abs(c.numerator) * (q // den) for (_, c), den in zip(terms, dens)]) > q:
        bad.append("net membership: l1 mass exceeds 1")
    return bad


class Universe:
    def __init__(self, config: ConstructionConfig):
        self.config = config
        self.elements: list[GammaElement] = []
        self._key_to_id: dict[tuple, int] = {}
        self._levels: dict[int, list[int]] = {}
        self._max_rank = 0
        # Ids by weight index (0 included), and the ids that admit an age
        # extension (a weight and age < n[weight]) split by weight parity;
        # both ascending, since interns only ever append ids.
        self._by_weight: dict[int, list[int]] = {}
        self._roots: tuple[list[int], list[int]] = ([], [])
        self._sigma: dict[int, int] = {}
        self._sigma_counter = 0
        self._f_image: dict[int, Optional[int]] = {}
        self._f_preimages: dict[int, list[int]] = {}
        # Per distinct carried b, keyed by its key (a candidate key's last
        # part): what depends on b alone is worked out once (``_PerB``).
        self._by_b: dict[tuple, _PerB] = {}
        self._enumerated_to = 0
        self.interior_interns = 0
        self._fingerprint = (-1, "")
        # The coding-row store (``algebra.CodingRows``), made on first read.
        self.rows = None

    # -- read API ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def element(self, gid: int) -> GammaElement:
        if gid >= 0:
            try:
                return self.elements[gid]
            except IndexError:
                pass
        raise DanglingReference(f"no element with id {gid}")

    def ids(self) -> range:
        return range(len(self.elements))

    @property
    def max_rank(self) -> int:
        return self._max_rank

    def level(self, rank: int) -> tuple[int, ...]:
        return tuple(self._levels.get(rank, ()))

    def level_counts(self) -> dict[int, int]:
        return {rank: len(ids) for rank, ids in sorted(self._levels.items())}

    def lookup(self, cand: Candidate) -> Optional[int]:
        """Id of an already-interned candidate shape, or None."""
        return self._key_to_id.get(cand.key())

    def sigma(self, gid: int) -> int:
        return self._sigma[gid]

    def f_image_of(self, gid: int) -> Optional[int]:
        return self._f_image[gid]

    def f_preimages_of(self, gid: int) -> tuple[int, ...]:
        return tuple(self._f_preimages.get(gid, ()))

    def push(self, coords: Iterable[tuple[int, Fraction]]) -> dict[int, Fraction]:
        """Push coordinates, in their own type, through the shift map: each
        moves to its element's image and vanishes where the map is undefined;
        colliding images add.  The one rule behind the shift images of carried
        b-functionals and the pushforward on functionals, in either basis."""
        out: dict[int, Fraction] = {}
        f_image = self._f_image
        for gid, coeff in coords:
            image = f_image[gid]
            if image is not None:
                out[image] = out[image] + coeff if image in out else coeff
        return out

    def f_iterate(self, gid: int, steps: int) -> Optional[int]:
        cur: Optional[int] = gid
        for _ in range(steps):
            if cur is None:
                return None
            cur = self._f_image[cur]
        return cur

    def sigma_set(self, gid: int) -> frozenset[int]:
        """sigma of the element plus sigma of every iterated shift preimage."""
        self.element(gid)
        members = {self._sigma[gid]}
        frontier = [gid]
        for _ in range(self.config.k - 1):
            frontier = [p for g in frontier for p in self._f_preimages.get(g, ())]
            members.update(self._sigma[g] for g in frontier)
        return frozenset(members)

    def fingerprint(self) -> str:
        """The hash of ``dump_lines()``, kept per element count: only
        ``intern`` writes an element or its sigma, and it appends one."""
        count, digest = self._fingerprint
        if count != len(self.elements):
            digest = stable_hash(self.dump_lines())
            self._fingerprint = (len(self.elements), digest)
        return digest

    # -- validation -----------------------------------------------------------

    def validate_candidate(self, cand: Candidate, key: Optional[tuple] = None) -> list[str]:
        """Return the list of violated admissibility clauses (empty = admissible).

        Structural problems (references to ids that do not exist) raise
        DanglingReference instead of being reported as violations.  With the
        candidate's ``key`` the even-weight net verdict, which depends on b
        alone, is read from (or kept in) the universe's per-b table; without
        one every clause is recomputed.
        """
        cfg = self.config
        kind, rank = cand.kind, cand.rank
        if kind == TYPE1:
            if rank < 2:
                return ["rank window: age-1 elements need rank at least 2"]
            if not 0 <= cand.p <= rank - 2:
                return [f"rank window: p={cand.p} outside 0..{rank - 2}"]
            lo = cand.p
        elif kind == TYPE2:
            xi = self.element(cand.xi)  # raises DanglingReference
            if rank < 3:
                return ["rank window: age extensions need rank at least 3"]
            if not 1 <= xi.rank <= rank - 2:
                return [f"rank window: xi rank {xi.rank} outside 1..{rank - 2}"]
            if xi.weight_idx == 0:
                return ["weight mismatch: xi carries no weight"]
            if cand.weight_idx != xi.weight_idx:
                return [f"weight mismatch: {cand.weight_idx} != weight index {xi.weight_idx} of xi"]
            lo = xi.rank
        elif kind == BASE:
            bad: list[str] = []
            if rank != 1:
                bad.append("rank window: base elements have rank 1")
            if not 0 <= cand.index < cfg.k:
                bad.append(f"rank window: base index {cand.index} outside 0..{cfg.k - 1}")
            if not cand.b.is_zero:
                bad.append("net membership: base elements carry no b-functional")
            return bad
        else:
            return [f"rank window: unknown element kind {kind!r}"]
        widx = cand.weight_idx
        if widx < 1:
            return ["weight cap: missing weight index"]
        if widx > rank:
            return [f"weight cap: weight index {widx} exceeds rank {rank}"]
        if widx > cfg.num_weights:
            return [f"weight cap: weight index {widx} beyond configured sequence"]
        bad = []
        if kind == TYPE2 and xi.age + 1 > cfg.n(widx):
            bad.append(f"age cap: age {xi.age + 1} exceeds n[{widx}]")
        if cand.b.terms:
            self._check_b(cand, lo, bad, key)
        return bad

    def _check_b(self, cand: Candidate, lo: int, bad: list[str], key: Optional[tuple]) -> None:
        """Window, net-membership and odd-weight form checks for a nonzero cand.b."""
        cfg = self.config
        terms = cand.b.terms
        hi = cand.rank - 1
        for eta, _ in terms:
            rank = self.element(eta).rank  # raises DanglingReference
            if not lo < rank <= hi:
                bad.append(f"window: support id {eta} (rank {rank}) outside ({lo},{hi}]")
        if cand.weight_idx % 2 == 1:
            # odd weight: b is 0 or a single positive unit functional
            if len(terms) != 1 or terms[0][1] != 1:
                bad.append("odd-weight form: b must be 0 or a unit singleton")
                return
            if cfg.max_support < 1:
                bad.append("net membership: net is empty, singleton unavailable")
            eta_w = self.element(terms[0][0]).weight_idx
            if eta_w == 0 or eta_w % 4 != 0:
                bad.append(
                    "odd-weight form: support weight index must be divisible by 4"
                )
                return
            if cfg.regime == STRICT and not cfg.odd_weight_magnitude(cand.weight_idx, eta_w):
                bad.append(
                    "odd-weight magnitude: m[4i] <= n[weight]^2 "
                    f"(m[{eta_w}]={format_rational(cfg.m(eta_w))})"
                )
            if cand.kind == TYPE2 and eta_w // 4 not in self.sigma_set(cand.xi):
                bad.append(
                    f"sigma membership: {eta_w // 4} not in sigma-set of xi #{cand.xi}"
                )
        elif key is None:
            bad += _net_verdict(cfg, terms)
        else:
            carried = self._per_b(key[-1], cand.b)
            if carried.net is None:
                carried.net = _net_verdict(cfg, terms)
            bad += carried.net

    def _per_b(self, bkey: tuple, b: BFunctional) -> _PerB:
        """The per-b entry of a b with key ``bkey``, made on first sight."""
        carried = self._by_b.get(bkey)
        if carried is None:
            carried = self._by_b[bkey] = _PerB(b)
        return carried

    # -- interning -------------------------------------------------------------

    def intern(self, cand: Candidate, key: Optional[tuple] = None) -> int:
        """Add an element (idempotent); returns its id.  ``key`` is the
        candidate's key, when the caller already has it.

        New ranks at or above the current maximum extend the universe and
        keep the sigma counter rank-monotone.  Interning strictly below the
        current maximum is permitted for sequence constructions but breaks
        the cross-rank sigma ordering; such interns are counted so reports
        can disclose them, and no level is enumerated after one.
        """
        if key is None:
            key = cand.key()
        found = self._key_to_id.get(key)
        if found is not None:
            return found
        violations = self.validate_candidate(cand, key)
        if violations:
            raise InadmissibleElement(violations)
        gid = len(self.elements)
        if gid >= self.config.max_elements:
            raise UniverseError(
                f"element budget exceeded ({self.config.max_elements})"
            )
        kind, rank, widx, b = cand.kind, cand.rank, cand.weight_idx, cand.b
        if kind != BASE:
            b = self._per_b(key[-1], b).b
        if rank < self._max_rank:
            self.interior_interns += 1
        else:
            self._max_rank = rank
        if kind == BASE:
            age = 0
        elif kind == TYPE1:
            age = 1
        else:
            age = self.element(cand.xi).age + 1
        element = GammaElement(kind, rank, cand.index, cand.p, cand.xi, widx, b, gid, age)
        self.elements.append(element)
        self._key_to_id[key] = gid
        self._levels.setdefault(rank, []).append(gid)
        self._by_weight.setdefault(widx, []).append(gid)
        if widx and age < self.config.n(widx):
            self._roots[widx % 2].append(gid)
        sigma = self._sigma_counter
        self._sigma[gid] = self._sigma_counter = (sigma if sigma > rank else rank) + 1

        image = shift_image_candidate(self, element, key)
        if image is None:
            self._f_image[gid] = None
        else:
            try:
                img_id = self.intern(*image)  # recursion depth bounded by k
            except InadmissibleElement as err:
                raise InvariantFault(
                    f"shift image of {describe(element)} is inadmissible: "
                    + "; ".join(err.violations)
                ) from err
            self._f_image[gid] = img_id
            self._f_preimages.setdefault(img_id, []).append(gid)
        return gid

    # -- enumeration -------------------------------------------------------------

    def enumerate_level(self, rank: int) -> list[int]:
        """Materialize one level of the canonical (capped) enumeration."""
        if rank != self._enumerated_to + 1:
            raise UniverseError(
                f"levels enumerate consecutively; expected {self._enumerated_to + 1}, got {rank}"
            )
        if rank > self.config.horizon:
            raise UniverseError(
                f"horizon exceeded: level {rank} > horizon {self.config.horizon}"
            )
        if self.max_rank >= rank:
            raise UniverseError(f"level {rank} already holds interned elements")
        if self.interior_interns:
            raise UniverseError(f"level {rank} cannot follow an intern below the top rank")

        # The base level's size is known before it is listed, and a higher
        # level stops listing one candidate past the room left, so a refused
        # level costs no more than the budget allows.
        room = self.config.max_elements - len(self.elements)
        selected: Optional[list[Candidate]] = None
        if rank > 1:
            selected = self._select_level_candidates(rank, room + 1)
        elif self.config.k <= room:
            selected = [base_candidate(i) for i in range(self.config.k)]
        if selected is None or len(selected) > room:
            raise UniverseError(
                f"element budget exceeded ({self.config.max_elements})"
            )
        before = len(self.elements)
        for key, cand in sorted(((c.key(), c) for c in selected), key=itemgetter(0)):
            self.intern(cand, key)
        self._enumerated_to = rank
        return list(range(before, len(self.elements)))

    def build(self) -> "Universe":
        while self._enumerated_to < self.config.horizon:
            self.enumerate_level(self._enumerated_to + 1)
        return self

    def _select_level_candidates(self, rank: int, limit: int) -> list[Candidate]:
        """Pull at most ``limit`` candidates under the level cap, round-robin
        over four strata: age-1 shapes at even, then odd weight index, then
        age extensions of even-, then odd-weight roots.

        Streams yield in canonical order within each stratum, so the selected
        set is a deterministic function of the config alone.
        """
        cap = min(self.config.level_cap or limit, limit)
        pools = _LevelPools(self, rank)
        live = [s(rank, pools, parity) for s in (self._stream_t1, self._stream_t2) for parity in (0, 1)]
        selected: list[Candidate] = []
        while live and len(selected) < cap:
            next_round = []
            for stream in live:
                nxt = next(stream, None)
                if nxt is None:
                    continue
                selected.append(nxt)
                next_round.append(stream)
                if len(selected) >= cap:
                    break
            live = next_round
        return selected

    def _carried(self, pools: "_LevelPools", lo: int, widx: int, xi: int) -> Iterator[BFunctional]:
        """What a shape over window start ``lo`` may carry at weight index
        ``widx``: at even weight, the net combinations of the window pool; at
        odd weight, zero and then each unit singleton of the odd pool.  For an
        age extension (``xi`` >= 0) a singleton's weight index over 4 must lie
        in the sigma-set of ``xi``, computed once the pool yields an id."""
        cfg = self.config
        if widx % 2 == 0:
            yield from iter_net(pools.window(lo), cfg.max_support, cfg.denominator_bound)
            return
        yield BFunctional.zero()
        if cfg.max_support < 1:
            return
        allowed = None
        for eta in pools.odd(lo, widx):
            if xi >= 0:
                allowed = allowed or self.sigma_set(xi)
                if self.elements[eta].weight_idx // 4 not in allowed:
                    continue
            yield BFunctional.singleton(eta)

    def _stream_t1(self, rank: int, pools: "_LevelPools", parity: int) -> Iterator[Candidate]:
        top = min(rank, self.config.num_weights)
        for p in range(rank - 1):
            for widx in range(2 - parity, top + 1, 2):
                for b in self._carried(pools, p, widx, -1):
                    yield t1_candidate(rank, p, widx, b)

    def _stream_t2(self, rank: int, pools: "_LevelPools", parity: int) -> Iterator[Candidate]:
        for xi in pools.roots(parity):
            el = self.elements[xi]
            for b in self._carried(pools, el.rank, el.weight_idx, xi):
                yield t2_candidate(rank, xi, el.weight_idx, b)

    # -- dump --------------------------------------------------------------------

    def dump_lines(self) -> list[str]:
        """Line-oriented deterministic dump, one element per line.

        Format: ``id rank variant weight_idx age p_or_xi b_terms sigma``;
        b terms are ``num/den@id`` joined by commas, ``0`` when empty.
        """
        lines = [
            "# bdlab universe dump v1",
            f"# k={self.config.k} horizon={self.config.horizon} regime={self.config.regime}",
        ]
        sigma = self._sigma
        texts: dict[int, str] = {}  # b text by id(b), for this call only
        for kind, rank, index, p, xi, widx, b, gid, age in self.elements:
            anchor = index if kind == BASE else p if kind == TYPE1 else xi
            b_text = texts.get(id(b))
            if b_text is None:
                terms = [f"{format_rational(c)}@{eta}" for eta, c in b.terms]
                b_text = texts[id(b)] = ",".join(terms) if terms else "0"
            lines.append(f"{gid} {rank} {kind} {widx} {age} {anchor} {b_text} {sigma[gid]}")
        return lines


class _LevelPools:
    """Extension roots and support pools of one level's candidate selection,
    read off the universe's indexes without scanning the levels below.

    The roots are the indexed extension roots of rank below ``rank - 1``;
    the pool of window start ``lo`` holds the ids of rank in (lo, rank - 1];
    the odd pool of ``(lo, widx)`` holds the ids of that window whose weight
    index is a positive multiple of 4 (in the strict regime also with
    m[weight] > n[widx]^2).  All are ascending by id.  ``enumerate_level``
    refuses a universe with interior interns, so ranks ascend with ids and
    each is a contiguous run of its index, found by bisection and read
    lazily.  They stay valid only while the universe is unchanged, which
    holds during selection: the level's candidates are interned after it.
    """

    def __init__(self, universe: Universe, rank: int):
        self._universe = universe
        self._rank = rank

    def roots(self, parity: int) -> Iterator[int]:
        """Extension roots of the level whose weight index has this parity."""
        return self._span(self._universe._roots[parity], 0, self._rank - 2)

    def window(self, lo: int) -> Sequence[int]:
        ids = self._universe.ids()
        return ids[bisect_right(ids, lo, key=self._rank_of):]

    def odd(self, lo: int, widx: int) -> Iterator[int]:
        cfg = self._universe.config
        return heapq.merge(*(
            self._span(ids, lo, self._rank - 1)
            for w, ids in self._universe._by_weight.items()
            if w and w % 4 == 0
            and (cfg.regime != STRICT or cfg.odd_weight_magnitude(widx, w))
        ))

    def _rank_of(self, gid: int) -> int:
        return self._universe.elements[gid].rank

    def _span(self, ids: list[int], lo: int, hi: int) -> Iterator[int]:
        """The ids of the ascending list with lo < rank <= hi, in order."""
        rank = self._rank_of
        start = bisect_right(ids, lo, key=rank)
        return map(ids.__getitem__, range(start, bisect_right(ids, hi, start, key=rank)))


def build_universe(config: ConstructionConfig) -> Universe:
    return Universe(config).build()


# -- net enumeration -------------------------------------------------------------


@cache
def _coeff_choices(budget: int, denominator_bound: int) -> tuple[tuple[Fraction, int], ...]:
    """The coefficients z / denominator_bound with 0 < |z| <= budget in key
    order, each with the budget |z| it uses; built once per budget."""
    choices = [(Fraction(z, denominator_bound), abs(z)) for z in range(-budget, budget + 1) if z]
    return tuple(sorted(choices, key=lambda pair: (pair[0].numerator, pair[0].denominator)))


def iter_net(pool: Sequence[int], max_support: int, denominator_bound: int) -> Iterator[BFunctional]:
    """Nonzero net combinations over an ascending support pool, in canonical
    key order.

    Coefficients are z / denominator_bound with total |z| mass at most the
    bound; depth-first emission over the sorted supports matches the
    lexicographic order of BFunctional keys, letting callers truncate lazily.
    """
    if max_support < 1 or not pool:
        return iter(())
    return _walk_net(pool, 0, denominator_bound, (), max_support, denominator_bound)


def _walk_net(
    pool: Sequence[int],
    start: int,
    budget: int,
    terms: tuple[tuple[int, Fraction], ...],
    max_support: int,
    denominator_bound: int,
) -> Iterator[BFunctional]:
    # A module-level generator, not a closure that names itself: that would
    # be a reference cycle, left for the cyclic collector at every call.
    for pos in range(start, len(pool)):
        for coeff, used in _coeff_choices(budget, denominator_bound):
            head = terms + ((pool[pos], coeff),)
            yield BFunctional(head)
            if len(head) < max_support and budget - used >= 1:
                yield from _walk_net(pool, pos + 1, budget - used, head, max_support, denominator_bound)


# -- shift image (the combinatorial half of the shift operator) -------------------


def shift_image_candidate(
    universe: Universe, element: GammaElement, key: tuple
) -> Optional[tuple[Candidate, tuple]]:
    """One step of the shift map on coded elements, as the image candidate
    and its key, or None when it vanishes.  ``key`` is the element's key.

    Base elements step down their index.  For the other shapes the carried
    b-functional is pushed through the map (``Universe.push``) once per
    distinct b, whose image and image key the universe's per-b table keeps;
    the image element keeps the same rank and weight, and its age never
    increases.
    """
    kind = element.kind
    if kind == BASE:
        if element.index == 0:
            return None
        image = base_candidate(element.index - 1)
        return image, image.key()

    b = element.b
    if b.terms:
        carried = universe._by_b[key[-1]]
        if carried.image is None:
            mapped = BFunctional.from_dict(universe.push(b.terms))
            carried.image = (mapped, mapped.key())
        mapped, mapped_key = carried.image
    else:
        mapped, mapped_key = b, ()
    rank, widx = element.rank, element.weight_idx
    if kind == TYPE1:
        if not mapped_key:
            return None
        image = t1_candidate(rank, element.p, widx, mapped)
    else:
        xi_image = universe.f_image_of(element.xi)
        if xi_image is not None:
            image = t2_candidate(rank, xi_image, widx, mapped)
        elif not mapped_key:
            return None
        else:
            # age collapses to 1; the window starts where xi's rank was
            image = t1_candidate(rank, universe.element(element.xi).rank, widx, mapped)
    return image, image.key(mapped_key)
