"""Coded index-set elements and the finite functional combinations they carry.

Every element of the index set is one of three shapes:

* ``base``   -- the k seed elements of rank 1, indexed 0..k-1;
* ``t1``     -- an age-1 element coding a window start ``p``, a weight index,
                and a finite combination ``b`` of unit functionals supported
                strictly between rank ``p`` and its own rank;
* ``t2``     -- an age-extension of an element ``xi`` of strictly smaller
                rank (gap at least 2), inheriting the weight of ``xi``.

Elements are value objects; identity within a universe is the interned id.
Every record here is a ``typing.NamedTuple``: immutable, changed by copying
with ``._replace``, and compared as a tuple of its fields.  A universe's
``GammaElement`` repeats ``Candidate``'s seven fields in order, then adds its
id and age, and shares ``Candidate.key``.  Modules that define records do not
postpone annotations (no ``from __future__ import annotations``): typing
would turn each string field annotation into a ``ForwardRef`` and compile it
at import.
"""

from fractions import Fraction
from typing import Iterator, NamedTuple

BASE = "base"
TYPE1 = "t1"
TYPE2 = "t2"

_ONE = Fraction(1)

class BFunctional(NamedTuple):
    """A finite rational combination of unit functionals, stored sorted.

    ``terms`` maps interned element ids to nonzero coefficients; it is kept
    as a tuple of (id, coefficient) pairs ordered by id so that equal
    combinations are structurally equal.
    """

    terms: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def zero() -> "BFunctional":
        return BFunctional(())

    @staticmethod
    def singleton(eta: int, coeff: Fraction | int = _ONE) -> "BFunctional":
        if type(coeff) is not Fraction:
            coeff = Fraction(coeff)
        if not coeff:
            return BFunctional(())
        return BFunctional(((eta, coeff),))

    @staticmethod
    def from_dict(coords: dict[int, Fraction]) -> "BFunctional":
        """The nonzero coefficients, sorted by id, kept as they are given."""
        return BFunctional(tuple([item for item in sorted(coords.items()) if item[1]]))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(self.terms)

    def key(self) -> tuple[tuple[int, int, int], ...]:
        return tuple([(eta, c.numerator, c.denominator) for eta, c in self.terms])


class Candidate(NamedTuple):
    """An element shape prior to interning (no id, no age)."""

    kind: str
    rank: int
    index: int = -1        # base only
    p: int = -1            # t1 only: window start, 0 <= p < rank - 1
    xi: int = -1           # t2 only: id of the extended element
    weight_idx: int = 0    # 0 for base, else 1-indexed into the m-sequence
    b: BFunctional = BFunctional()

    def key(self, b_key: tuple | None = None) -> tuple:
        """The shape's identity; its last part is ``b.key()`` (``b_key``,
        when the caller already has it) except for base shapes."""
        if self.kind == BASE:
            return (self.rank, 0, self.index)
        if b_key is None:
            b_key = self.b.key()
        if self.kind == TYPE1:
            return (self.rank, 1, self.p, self.weight_idx, b_key)
        return (self.rank, 2, self.xi, self.weight_idx, b_key)


class GammaElement(NamedTuple):
    """An interned element: its Candidate shape plus id and computed age."""

    kind: str
    rank: int
    index: int
    p: int
    xi: int
    weight_idx: int
    b: BFunctional
    gid: int
    age: int

    key = Candidate.key

    @property
    def odd_weight(self) -> bool:
        return self.weight_idx % 2 == 1


# The factories fill every field positionally: keyword arguments cost a
# named tuple about twice as much to build.


def base_candidate(index: int) -> Candidate:
    return Candidate(BASE, 1, index)


def t1_candidate(rank: int, p: int, weight_idx: int, b: BFunctional) -> Candidate:
    return Candidate(TYPE1, rank, -1, p, -1, weight_idx, b)


def t2_candidate(rank: int, xi: int, weight_idx: int, b: BFunctional) -> Candidate:
    return Candidate(TYPE2, rank, -1, -1, xi, weight_idx, b)


def describe(element: GammaElement) -> str:
    """One-line human description used by reports and error messages."""
    if element.kind == BASE:
        return f"#{element.gid} base[{element.index}] rank 1"
    head = f"#{element.gid} {element.kind} rank {element.rank} w{element.weight_idx}"
    if element.kind == TYPE1:
        head += f" p={element.p}"
    else:
        head += f" xi=#{element.xi} age={element.age}"
    if element.b.is_zero:
        return head + " b=0"
    body = ",".join(f"{c}@{eta}" for eta, c in element.b.items())
    return head + f" b=[{body}]"
