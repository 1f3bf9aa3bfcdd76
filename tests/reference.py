"""Per-shot reference for the error-space layer, used only by the tests.

The library enumerates the weight order in blocks and keeps the visited
set as positions; the helpers here do the same one string at a time:
ranking a string to its position, one cursor per run of the visit order,
flip neighbours, and a visited set fed by `add`.  The tests compare the
library against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from qecbound.errorspace import (
    EnumerationPlan,
    VisitedSet,
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


def ranked_contains(vs: VisitedSet, mask: int) -> bool:
    """Membership in `vs` by ranking `mask`: the oracle for `in vs`."""
    pos = position_of(mask, vs.n)
    a, b = vs.high
    return mask in vs.extras or pos < vs.prefix or a <= pos < b


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


class ReferenceVisitedSet(VisitedSet):
    """A visited set fed one string at a time.  `add` promotes extras into
    the prefix as the prefix catches up, so extras never duplicate the
    prefix.  Membership is the library's."""

    def add(self, mask: int) -> None:
        if mask in self:
            raise ValueError(f"bitstring {bits_to_str(mask, self.n)} visited twice")
        if position_of(mask, self.n) != self.prefix:
            self.extras.add(mask)
            return
        prefix = self.prefix + 1
        # promote any extras that now sit at the end of the prefix
        while prefix < 1 << self.n and (m := unrank_position(prefix, self.n)) in self.extras:
            self.extras.discard(m)
            prefix += 1
        self.set_prefix(prefix, self.high)

    @property
    def complete_weight(self) -> int:
        """Every string of lower weight lies in the prefix."""
        return self.n + 1 if self.covers_all else weight(unrank_position(self.prefix, self.n))

    @property
    def count(self) -> int:
        return self.prefix + len(self.extras) + self.high[1] - self.high[0]
