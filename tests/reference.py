"""Per-shot reference for the error-space layer, used only by the tests.

The library enumerates the weight order in blocks, and its visit order
answers membership from the strings it gave; the helpers here do the same
one string at a time: ranking a string to its position, one cursor per
run of the visit order, flip neighbours, and a visited set fed by `add`
whose membership ranks the string.  The tests compare the library against
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from qecbound.errorspace import (
    EnumerationPlan,
    bits_to_str,
    first_position_of_weight,
    unrank_position,
    weight,
)


def support(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def rank_in_weight_class(mask: int, n: int) -> int:
    """Position of `mask` among same-weight strings, lex order of supports."""
    supp = support(mask)
    k = len(supp)
    r = 0
    prev = -1
    for j, c in enumerate(supp):
        for a in range(prev + 1, c):
            r += comb(n - 1 - a, k - 1 - j)
        prev = c
    return r


def position_of(mask: int, n: int) -> int:
    """Global position in the weight order over all 2^n strings."""
    return first_position_of_weight(weight(mask), n) + rank_in_weight_class(mask, n)


@dataclass
class WeightOrderCursor:
    """Cursor over the weight order from `position`; yields each position once."""

    n: int
    position: int = 0

    @property
    def exhausted(self) -> bool:
        return self.position >= (1 << self.n)

    def next(self) -> int:
        if self.exhausted:
            raise StopIteration("cursor exhausted")
        mask = unrank_position(self.position, self.n)
        self.position += 1
        return mask


def run_cursors(plan: EnumerationPlan, n: int) -> list[WeightOrderCursor]:
    """One cursor from position 0 and one from the high start: the first
    position of weight floor(d/2)+1 for `split`, the end of the order
    otherwise.  The low cursor eventually reaches the high start, so the
    cursors overlap.  Taking one position from each cursor in turn, and
    dropping positions already taken, gives the visit order that
    `VisitOrder` produces in blocks.
    """
    w = plan.distance_ansatz // 2 + 1 if plan.strategy == "split" else n + 1
    return [WeightOrderCursor(n), WeightOrderCursor(n, first_position_of_weight(w, n))]


def local_moves_flip(mask: int, n: int) -> set[int]:
    """All strings at Hamming distance 1."""
    return {mask ^ (1 << i) for i in range(n)}


@dataclass
class ReferenceVisitedSet:
    """A visited set kept as positions in the weight order: the first
    `prefix` positions, the positions [a, b) of a second run `high`, and
    explicit `extras`.  Membership ranks the string.  `add` visits one
    string at a time and promotes extras into the prefix as the prefix
    catches up, so extras never duplicate the prefix; layouts with a high
    run are built with the constructor."""

    n: int
    prefix: int = 0
    extras: set[int] = field(default_factory=set)
    high: tuple[int, int] = (0, 0)

    def __contains__(self, mask: int) -> bool:
        pos = position_of(mask, self.n)
        a, b = self.high
        return mask in self.extras or pos < self.prefix or a <= pos < b

    def add(self, mask: int) -> None:
        if mask in self:
            raise ValueError(f"bitstring {bits_to_str(mask, self.n)} visited twice")
        if position_of(mask, self.n) != self.prefix:
            self.extras.add(mask)
            return
        self.prefix += 1
        # promote any extras that now sit at the end of the prefix
        while not self.covers_all and (m := unrank_position(self.prefix, self.n)) in self.extras:
            self.extras.discard(m)
            self.prefix += 1

    def lowest_unvisited_weight(self) -> int:
        """The weight of the first non-member in the weight order (n + 1
        if none)."""
        for pos in range(self.prefix, 1 << self.n):
            mask = unrank_position(pos, self.n)
            if mask not in self:
                return weight(mask)
        return self.n + 1

    @property
    def covers_all(self) -> bool:
        return self.prefix == 1 << self.n

    @property
    def complete_weight(self) -> int:
        """Every string of lower weight lies in the prefix."""
        return self.n + 1 if self.covers_all else weight(unrank_position(self.prefix, self.n))

    @property
    def count(self) -> int:
        return self.prefix + len(self.extras) + self.high[1] - self.high[0]
