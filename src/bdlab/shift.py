"""Operator layer over the partial shift map on coded elements.

The combinatorial step (image of a single element, computed eagerly at
intern time so the universe is always closed under it) lives in the
universe module, whose image and preimage maps are the only copy of the
shift table; its laws (rank and weight preserved, age never up, preimages
consistent) are checked by the verification suites.  There is no snapshot
class.  Here we expose everything built on top of the maps:

* the functional-side operator: coordinate pushforward through the map,
  by the universe's one push rule, in either coordinate basis,
* the space-side operator: coordinate pullback, which on any closed
  materialized universe agrees exactly with summing basis vectors over
  preimages,
* nilpotency of pointwise orbits (every orbit dies within k steps),
* the k x k upper-triangular Toeplitz picture of shift polynomials, and
  the l1 witnesses separating the powers of the shift.

All arithmetic is exact.
"""

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algebra import (
    E_BASIS,
    AlgebraError,
    Functional,
    Vector,
    e_star,
    l1_norm,
)
from .elements import BFunctional, Candidate, t1_candidate
from .universe import Universe, UniverseError


# -- the operator on functionals ------------------------------------------------


def s_star(universe: Universe, f: Functional) -> Functional:
    """Push coordinates through the shift map (``Universe.push``), with the
    same rule in both bases; the two routes agree exactly on a materialized
    universe."""
    return Functional(f.basis, universe.push(f.coords.items()))


# -- the operator on vectors ----------------------------------------------------


def s_apply(universe: Universe, x: Vector) -> Vector:
    """Space-side shift: the coordinate at gamma reads x at gamma's image.

    This is exactly the transpose of the coordinate pushforward, and on a
    closed materialized universe it sends each basis vector d_delta to the
    sum of d_gamma over the preimages of delta.  Only preimages of the
    support of x can read a nonzero value; results come in id order.
    """
    pulled: list[tuple[int, Fraction]] = []
    for img, value in x.coords.items():
        if value == 0:
            continue
        for gid in universe.f_preimages_of(img):
            if universe.element(gid).rank <= x.horizon:
                pulled.append((gid, value))
    pulled.sort()
    return Vector(dict(pulled), x.horizon)


def s_apply_power(universe: Universe, x: Vector, power: int) -> Vector:
    if power < 0:
        raise AlgebraError("negative operator power")
    for _ in range(power):
        x = s_apply(universe, x)
    return x


# -- nilpotency ------------------------------------------------------------------


def nilpotency_index(universe: Universe, gid: int) -> int:
    """Minimal l >= 1 such that the l-th iterate of the map is undefined."""
    steps = 0
    cur: Optional[int] = gid
    while True:
        cur = universe.f_image_of(cur)
        if cur is None:
            return steps + 1
        steps += 1
        if steps > universe.config.k:
            raise UniverseError(f"orbit of {gid} exceeds nilpotency bound k")


def shift_power_family_rank(universe: Universe) -> int:
    """Rank of {S^0, ..., S^(k-1)} as matrices over the truncation.

    The unit-coordinate matrix of the l-th power has a 1 in row gamma,
    column (l-th iterate of gamma) wherever the iterate is defined.  A
    nilpotent orbit never revisits an element, so distinct powers have
    disjoint supports {(gamma, F^l gamma)}, and the rank is the number of
    powers below k that are nonzero somewhere.  Full rank k is the finite
    shadow of the powers being independent modulo compacts.  Where a table
    breaks nilpotency, the nilpotency check fails instead.
    """
    ids = universe.ids()
    return sum(
        any(universe.f_iterate(g, power) is not None for g in ids)
        for power in range(universe.config.k)
    )


# -- Toeplitz representation -----------------------------------------------------


class ToeplitzMatrix(NamedTuple):
    """k x k upper-triangular Toeplitz matrix; lambdas[i] fills diagonal i."""

    lambdas: tuple[Fraction, ...]

    @property
    def k(self) -> int:
        return len(self.lambdas)

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        k = self.k
        zero = Fraction(0)
        return tuple(
            tuple(self.lambdas[c - r] if c >= r else zero for c in range(k))
            for r in range(k)
        )

    def multiply(self, other: "ToeplitzMatrix") -> "ToeplitzMatrix":
        """Honest matrix product (then read back off the first row)."""
        if other.k != self.k:
            raise AlgebraError("size mismatch in Toeplitz product")
        a, b = self.rows(), other.rows()
        k = self.k
        prod = [
            [sum((a[r][t] * b[t][c] for t in range(k)), Fraction(0)) for c in range(k)]
            for r in range(k)
        ]
        for r in range(k):
            for c in range(k):
                expected = prod[0][c - r] if c >= r else Fraction(0)
                if prod[r][c] != expected:
                    raise AlgebraError("product left the Toeplitz algebra")
        return ToeplitzMatrix(tuple(prod[0]))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.lambdas)


def toeplitz_repr(lambdas: Sequence[Fraction | int]) -> ToeplitzMatrix:
    return ToeplitzMatrix(tuple(Fraction(c) for c in lambdas))


def jordan_block(k: int) -> ToeplitzMatrix:
    coeffs = [Fraction(0)] * k
    if k >= 2:
        coeffs[1] = Fraction(1)
    return ToeplitzMatrix(tuple(coeffs))


def truncated_poly_product(
    a: Sequence[Fraction | int], b: Sequence[Fraction | int], k: int
) -> tuple[Fraction, ...]:
    """Coefficient convolution chopped at degree k (the nilpotent algebra)."""
    out = [Fraction(0)] * k
    for i, ai in enumerate(a):
        ai = Fraction(ai)
        if ai == 0 or i >= k:
            continue
        for j, bj in enumerate(b):
            if i + j < k:
                out[i + j] += ai * Fraction(bj)
    return tuple(out)


# -- separating witnesses ---------------------------------------------------------


def witness_candidate(universe: Universe, rank: int, j: int) -> Candidate:
    """The j-indexed separating element at a given rank.

    Age-1 shape at the second weight, window starting at zero, carrying the
    unit functional of the j-th rank-one element; under singleton nets these
    are always part of the canonical enumeration.
    """
    if not 0 <= j < universe.config.k:
        raise UniverseError(f"witness family index {j} outside 0..k-1")
    base_gid = universe.level(1)[j]
    return t1_candidate(rank, 0, 2, BFunctional.singleton(base_gid))


def witness_id(universe: Universe, rank: int, j: int) -> int:
    """Id of the witness element, raising if it was never materialized."""
    if rank > universe.max_rank:
        raise UniverseError(f"witness rank {rank} beyond materialized {universe.max_rank}")
    cand = witness_candidate(universe, rank, j)
    gid = universe.lookup(cand)
    if gid is None:
        net = "" if universe.config.singleton_net else "a singleton-net config or "
        raise UniverseError(
            f"witness element (rank {rank}, family {j}) not materialized; "
            f"use {net}a larger level cap"
        )
    return gid


def compact_witness(
    universe: Universe,
    j: int,
    rank_n: int,
    rank_m: int,
    lambdas: Sequence[Fraction | int],
) -> Fraction:
    """l1 mass of (sum of lambda_i times the i-th pushforward power) applied
    to the difference of the two unit functionals of the j-family witnesses
    at distinct ranks.  Equals twice the partial sum of |lambda_i| for i <= j;
    in particular the family at j = 0 reads off 2|lambda_0| exactly.
    """
    if rank_n == rank_m:
        raise UniverseError("witness ranks must differ")
    diff = e_star(witness_id(universe, rank_n, j)).plus(
        e_star(witness_id(universe, rank_m, j)).scaled(-1)
    )
    total = Functional(E_BASIS)
    cur = diff
    for lam in lambdas:
        lam = Fraction(lam)
        if lam != 0:
            total = total.plus(cur.scaled(lam))
        cur = s_star(universe, cur)
    return l1_norm(universe, total)
