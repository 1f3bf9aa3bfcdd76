"""Reference implementations, used only by the tests.

The library enumerates the weight order in blocks, and its visit order
answers membership from the strings it gave; the helpers here do the same
one string at a time: ranking a string to its position, one cursor per
run of the visit order, flip neighbours, and a visited set fed by `add`
whose membership ranks the string.  The per-shot helpers evaluate one
minterm, accumulate one string and draw one unseen string.
`reference_ml_table` builds the ML table from chunks of bitstrings, each
rebuilt from its bits.  The tests compare the library against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from qecbound.errorspace import (
    Footprints,
    bits_of,
    bits_to_str,
    first_position_of_weight,
    ints_of,
    unrank_position,
    weight,
)
from qecbound.polynomial import BoundAccumulators, MintermEvaluator
from qecbound.sampling import sample_unseen_batch


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


def run_cursors(n: int, distance: int | None = None) -> list[WeightOrderCursor]:
    """One cursor from position 0 and one from the high start: the first
    position of weight floor(d/2)+1 given a distance d (`split`), the end
    of the order otherwise.  The low cursor eventually reaches the high
    start, so the cursors overlap.  Taking one position from each cursor
    in turn, and dropping positions already taken, gives the visit order
    that `VisitOrder` produces in blocks.
    """
    w = n + 1 if distance is None else distance // 2 + 1
    return [WeightOrderCursor(n), WeightOrderCursor(n, first_position_of_weight(w, n))]


def local_moves_flip(mask: int, n: int) -> set[int]:
    """All strings at Hamming distance 1."""
    return {mask ^ (1 << i) for i in range(n)}


def minterm_eval(mask: int, v) -> float:
    """Probability of the bitstring `mask` under channel rates `v`."""
    return MintermEvaluator(v)(mask)


def accumulate(acc: BoundAccumulators, mask: int, is_logical_error: bool,
               evaluator: MintermEvaluator) -> None:
    """Add one string's minterm to `acc`: a one-row block."""
    acc.accumulate_block(np.array([evaluator(mask)]), np.array([is_logical_error]))


def sample_unseen(v, visited, rng) -> int:
    """One draw from the model conditioned on the strings not in
    `visited`; see `sample_unseen_batch`."""
    return sample_unseen_batch(v, visited, rng, 1)[0]


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


def _unique_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(words, axis=0, return_inverse=True), by a lexsort of the
    columns."""
    order = np.lexsort(words.T[::-1])
    rows = words[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inv = np.empty(len(rows), dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    return rows[first], inv


def reference_ml_table(model, v) -> dict[int, int]:
    """The ML table built chunk by chunk: each chunk of 2^16 bitstrings
    gets its support columns from its bits, its syndromes, observables and
    minterms from them, and a slot per new (syndrome, observable) class;
    `np.add.at` sums each class in ascending bitstring order.  Each
    syndrome keeps its heaviest class, ties going to the all-zeros
    observable, then lexicographically with bit 0 first."""
    n = model.n_channels
    evaluator = MintermEvaluator(v)
    fp = Footprints(model)
    wd = fp.det.shape[1]
    idx = np.arange(n + 1)
    slots: dict[tuple[int, int], int] = {}  # (syndrome, observable) -> slot in mass
    mass = np.zeros(0)
    chunk = min(1 << n, 1 << 16)
    for e0 in range(0, 1 << n, chunk):
        e = np.arange(e0, e0 + chunk, dtype=np.uint64)
        cols = np.where(bits_of(e[:, None], n).T, idx[:n, None], idx[n])
        uniq, inv = _unique_rows(np.hstack((fp.xor(fp.det, cols), fp.xor(fp.obs, cols))))
        ids = np.array([slots.setdefault(key, len(slots))
                        for key in zip(ints_of(uniq[:, :wd]), ints_of(uniq[:, wd:]))])
        mass = np.concatenate((mass, np.zeros(len(slots) - mass.size)))
        np.add.at(mass, ids[inv], evaluator.block(cols))
    best: dict[int, tuple] = {}
    table = {}
    for (s, o), m in zip(slots, mass.tolist()):
        key = (-m, o != 0, tuple(o >> i & 1 for i in range(model.n_observables)))
        if s not in best or key < best[s]:
            best[s] = key
            table[s] = o
    return table
