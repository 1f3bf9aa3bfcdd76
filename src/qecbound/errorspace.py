"""Error bitstrings and enumeration of the error space.

Bitstrings are plain ints with bit ``i`` selecting channel ``i``; textual
renderings put bit 0 leftmost.  The base enumeration order is ascending
Hamming weight, with ties broken by lexicographic order of the ascending
support tuples (combinatorial number system ranks), which gives O(1) rank
arithmetic for membership tests.

Blocks.  The enumeration core reads the order in blocks of support-index
rows: row r lists the channels of one bitstring in ascending order, padded
with n to the block's width.  `itertools.combinations(range(n), w)` yields
weight class w in exactly the rank order above, so `OrderStream` needs no
rank arithmetic.  `Footprints` holds every channel's detector, observable
and channel bit sets as rows of ceil(width/64) uint64 words, with an empty
row n, so a block's syndromes are the XOR of one gathered row per support
column, for every detector count.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .compiler import DetectorErrorModel

_WORD_MASK = (1 << 64) - 1


def bits_to_str(mask: int, n: int) -> str:
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def str_to_bits(s: str) -> int:
    mask = 0
    for i, c in enumerate(s):
        if c == "1":
            mask |= 1 << i
    return mask


def weight(mask: int) -> int:
    return mask.bit_count()


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


def unrank_in_weight_class(r: int, n: int, k: int) -> int:
    """Inverse of rank_in_weight_class for weight-k strings."""
    mask = 0
    c = 0
    for j in range(k):
        while True:
            cnt = comb(n - 1 - c, k - 1 - j)
            if r < cnt:
                break
            r -= cnt
            c += 1
        mask |= 1 << c
        c += 1
    return mask


def position_of(mask: int, n: int) -> int:
    """Global position in the weight order over all 2^n strings."""
    w = weight(mask)
    return sum(comb(n, j) for j in range(w)) + rank_in_weight_class(mask, n)


def unrank_position(pos: int, n: int) -> int:
    w = 0
    while True:
        c = comb(n, w)
        if pos < c:
            return unrank_in_weight_class(pos, n, w)
        pos -= c
        w += 1


def first_position_of_weight(w: int, n: int) -> int:
    return sum(comb(n, j) for j in range(w))


def precedes(a: int, b: int | None) -> bool:
    """Whether string `a` comes before `b` in the weight order; None stands
    for the end of the order."""
    if b is None:
        return True
    wa, wb = a.bit_count(), b.bit_count()
    if wa != wb:
        return wa < wb
    d = a ^ b
    return bool(a & d & -d)  # a holds the lowest channel where they differ


@dataclass
class WeightOrderCursor:
    """Strided cursor over the weight order; yields each assigned position once."""

    n: int
    position: int = 0
    stride: int = 1

    @property
    def exhausted(self) -> bool:
        return self.position >= (1 << self.n)

    def next(self) -> int:
        if self.exhausted:
            raise StopIteration("cursor exhausted")
        mask = unrank_position(self.position, self.n)
        self.position += self.stride
        return mask


@dataclass(frozen=True)
class EnumerationPlan:
    strategy: str = "hamming"  # hamming | split | local-flip | local-shift | local-both
    worker_count: int = 1
    distance_ansatz: int | None = None  # required for split

    @property
    def local_moves(self) -> tuple[str, ...]:
        return {
            "local-flip": ("flip",),
            "local-shift": ("shift",),
            "local-both": ("flip", "shift"),
        }.get(self.strategy, ())


def split_workers(plan: EnumerationPlan) -> tuple[int, int]:
    """Validated (low, high) worker counts: (k, 0) unless the plan splits."""
    k = plan.worker_count
    if k < 1:
        raise ValueError("worker_count must be >= 1")
    if plan.strategy != "split":
        return k, 0
    if plan.distance_ansatz is None:
        raise ValueError("split strategy requires a distance ansatz")
    return (k + 1) // 2, k // 2


def partition_workers(plan: EnumerationPlan, n: int) -> list[WeightOrderCursor]:
    """Build one strided cursor per worker.

    hamming: worker i takes order positions congruent to i mod k.  split:
    the first ceil(k/2) workers stride from position 0 and the rest from
    the first position of weight floor(d/2)+1; the low block eventually
    reaches the high start, so the cursors overlap.  Taking one position from each cursor in turn, and
    dropping positions already taken, gives the visit order that
    `SplitOrder` produces in blocks (and, for hamming, the plain order).
    """
    k_low, k_high = split_workers(plan)
    cursors = [WeightOrderCursor(n, position=i, stride=k_low) for i in range(k_low)]
    if k_high:
        start = first_position_of_weight(plan.distance_ansatz // 2 + 1, n)
        cursors += [
            WeightOrderCursor(n, position=start + i, stride=k_high) for i in range(k_high)
        ]
    return cursors


def local_moves_flip(mask: int, n: int) -> set[int]:
    """All strings at Hamming distance 1."""
    return {mask ^ (1 << i) for i in range(n)}


def local_moves_shift(mask: int, n: int) -> set[int]:
    """All nontrivial circular shifts, duplicates collapsed."""
    out = set()
    full = (1 << n) - 1
    m = mask
    for _ in range(n - 1):
        m = ((m << 1) | (m >> (n - 1))) & full
        if m != mask:
            out.add(m)
    return out


@dataclass
class VisitedSet:
    """Membership structure for enumerated bitstrings.

    All strings of weight < complete_weight are members, plus weight-class
    strings below frontier_rank, plus an explicit extras set for
    out-of-order visits.  Extras are promoted into the frontier as the
    in-order prefix catches up, so extras never duplicate the prefix.
    """

    n: int
    complete_weight: int = 0
    frontier_rank: int = 0
    extras: set[int] = field(default_factory=set)
    # positions [a, b) of a second in-order run (the split strategy's high stream)
    high: tuple[int, int] = (0, 0)

    def __contains__(self, mask: int) -> bool:
        w = weight(mask)
        if w < self.complete_weight:
            return True
        if w == self.complete_weight and rank_in_weight_class(mask, self.n) < self.frontier_rank:
            return True
        if mask in self.extras:
            return True
        a, b = self.high
        return a < b and a <= position_of(mask, self.n) < b

    def set_prefix(self, count: int, high: tuple[int, int] = (0, 0)) -> None:
        """Make the first `count` positions of the weight order the in-order
        prefix, and `high` the second run.  The prefix only grows; extras
        it swallows must already be gone from `extras`."""
        a, b = high
        if a < b and count >= a:  # the runs meet
            count, a, b = max(count, b), 0, 0
        w = self.complete_weight
        start = first_position_of_weight(w, self.n)
        while w <= self.n and count >= start + comb(self.n, w):
            start += comb(self.n, w)
            w += 1
        self.complete_weight = w
        self.frontier_rank = count - start if w <= self.n else 0
        self.high = (a, b)

    def _frontier_mask(self) -> int | None:
        if self.complete_weight > self.n:
            return None
        return unrank_in_weight_class(self.frontier_rank, self.n, self.complete_weight)

    def _advance(self) -> None:
        self.frontier_rank += 1
        while self.complete_weight <= self.n and self.frontier_rank >= comb(
            self.n, self.complete_weight
        ):
            self.frontier_rank = 0
            self.complete_weight += 1

    def add(self, mask: int) -> None:
        if mask in self:
            raise ValueError(f"bitstring {bits_to_str(mask, self.n)} visited twice")
        if self.complete_weight <= self.n and mask == self._frontier_mask():
            self._advance()
            # promote any extras that now sit on the frontier
            while self.complete_weight <= self.n:
                fm = self._frontier_mask()
                if fm in self.extras:
                    self.extras.discard(fm)
                    self._advance()
                else:
                    break
        else:
            self.extras.add(mask)

    def lowest_unvisited_weight(self) -> int:
        """The lowest weight of any unvisited string (n + 1 if none).

        Depends on membership alone: the in-order prefix is followed
        through extras at its frontier and through the high run, whatever
        layout built the set.  The set is not changed."""
        pos, end = self._prefix_end(), 1 << self.n
        a, b = self.high
        while pos < end:
            if a <= pos < b:
                pos = b
            elif unrank_position(pos, self.n) in self.extras:
                pos += 1
            else:
                return weight(unrank_position(pos, self.n))
        return self.n + 1

    def frozen_contains(self) -> Callable[[int], bool]:
        """Membership in the set as it stands now, without ranking: a string
        is compared with the strings that end the prefix and bound the high
        run.  Valid until the set changes."""
        def at(pos: int) -> int | None:
            return unrank_position(pos, self.n) if pos < 1 << self.n else None

        stop, extras = at(self._prefix_end()), self.extras
        a, b = self.high
        if a >= b:
            return lambda m: precedes(m, stop) or m in extras
        lo, hi = at(a), at(b)
        return lambda m: (precedes(m, stop) or m in extras
                          or (not precedes(m, lo) and precedes(m, hi)))

    def _prefix_end(self) -> int:
        """Length of the in-order prefix."""
        if self.covers_all:
            return 1 << self.n
        return first_position_of_weight(self.complete_weight, self.n) + self.frontier_rank

    @property
    def covers_all(self) -> bool:
        return self.complete_weight > self.n

    @property
    def count(self) -> int:
        return self._prefix_end() + len(self.extras) + self.high[1] - self.high[0]


def n_words(n: int) -> int:
    """uint64 words per bit set of n bits (at least one)."""
    return max(1, -(-n // 64))


def words_of(masks, n_words: int) -> np.ndarray:
    """Python-int bit sets as a [len(masks), n_words] uint64 array."""
    out = np.empty((len(masks), n_words), dtype=np.uint64)
    for w in range(n_words):
        out[:, w] = np.fromiter(((m >> 64 * w) & _WORD_MASK for m in masks),
                                dtype=np.uint64, count=len(masks))
    return out


def ints_of(words: np.ndarray) -> list[int]:
    """Rows of uint64 words as Python-int bit sets (inverse of words_of)."""
    out = words[:, 0].tolist()
    for w in range(1, words.shape[1]):
        out = [m | x << 64 * w for m, x in zip(out, words[:, w].tolist())]
    return out


def bits_of(words: np.ndarray, n: int) -> np.ndarray:
    """[B, words] bit sets as [B, n] bool rows."""
    by = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(by, axis=1, count=n, bitorder="little").view(bool)


def supports_of_bits(bits: np.ndarray) -> np.ndarray:
    """Padded support rows of [B, n] bool rows."""
    n = bits.shape[1]
    count = bits.sum(axis=1)
    width = int(count.max(initial=0))
    first = np.argsort(~bits, axis=1, kind="stable")[:, :width]
    return np.where(np.arange(width) < count[:, None], first, n)


def bit_columns(bits: np.ndarray) -> np.ndarray:
    """Support columns of [B, n] bool rows, one per channel: column i holds
    i where bit i is set and n (no channel) elsewhere."""
    n = bits.shape[1]
    idx = np.arange(n + 1, dtype=np.min_scalar_type(n))
    return np.where(bits.T, idx[:n, None], idx[n])


class Footprints:
    """The detector (`det`), observable (`obs`) and channel (`chan`) bit sets
    of every channel as [n + 1, words] uint64 tables; row n is empty.

    A block of bitstrings is given as support columns: an index array of
    shape [k, B] whose column b lists the channels of bitstring b, padded
    with n.  Padded support rows (transposed) and `bit_columns` are both
    such arrays."""

    def __init__(self, model: DetectorErrorModel) -> None:
        n = model.n_channels
        self.det = words_of([*model.det_footprints, 0], n_words(model.n_detectors))
        self.obs = words_of([*model.obs_footprints, 0], n_words(model.n_observables))
        self.chan = words_of([*(1 << i for i in range(n)), 0], n_words(n))

    @staticmethod
    def xor(table: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Per bitstring, the XOR of the table rows of its channels."""
        out = np.zeros((cols.shape[1], table.shape[1]), dtype=np.uint64)
        for col in cols:
            out ^= table[col]
        return out


class OrderStream:
    """The weight order from the first string of weight `w0` on, read as
    support rows padded with n to a common width."""

    def __init__(self, n: int, w0: int = 0) -> None:
        self.n = n
        self._w = min(w0, n + 1)
        self.position = first_position_of_weight(self._w, n)
        self._it = combinations(range(n), self._w)
        self._buf = np.empty((0, 0), dtype=np.intp)

    @property
    def exhausted(self) -> bool:
        return self.position >= 1 << self.n

    def peek(self, m: int) -> np.ndarray:
        """The next rows, at most m of them, without consuming them."""
        parts = [self._buf] if len(self._buf) else []
        have = len(self._buf)
        while have < m and self._w <= self.n:
            want, w = m - have, self._w
            rows = islice(self._it, want)
            if w:
                got = np.fromiter(chain.from_iterable(rows), dtype=np.intp).reshape(-1, w)
            else:
                got = np.empty((sum(1 for _ in rows), 0), dtype=np.intp)
            if len(got) < want:  # weight class w is done
                self._w += 1
                self._it = combinations(range(self.n), self._w)
            if len(got):
                parts.append(got)
                have += len(got)
        if len(parts) > 1 or (parts and parts[0] is not self._buf):
            self._buf = _stack_rows(parts, self.n)
        return self._buf[:m]

    def skip(self, k: int) -> None:
        self._buf = self._buf[k:]
        self.position += k

    def take(self, m: int) -> np.ndarray:
        rows = self.peek(m)
        self.skip(len(rows))
        return rows


def _stack_rows(parts, n: int) -> np.ndarray:
    """Support-row arrays stacked, padded with n to the widest."""
    out = np.full((sum(len(p) for p in parts), max(p.shape[1] for p in parts)), n,
                  dtype=np.intp)
    r = 0
    for p in parts:
        out[r:r + len(p), :p.shape[1]] = p
        r += len(p)
    return out


# Position offsets beyond this are clamped; blocks span far fewer turns.
_CLAMP = 1 << 40


def _clamp(x: int) -> int:
    return max(-_CLAMP, min(_CLAMP, x))


class SplitOrder:
    """The split strategy's visit order, read in blocks of support rows.

    A low stream from position 0 and a high stream from the first string
    of weight floor(d/2)+1 take turns: ceil(k/2) positions from the low stream, then floor(k/2) from
    the high one.  A turn whose position the other stream has already
    taken, or that lies past the end of the space, visits nothing.  This
    is the order of taking one position from each `partition_workers`
    cursor in turn and dropping repeats.
    """

    def __init__(self, plan: EnumerationPlan, n: int) -> None:
        self.k_low, self.k_high = split_workers(plan)
        self.n = n
        self.low = OrderStream(n)
        self.high = OrderStream(n, plan.distance_ansatz // 2 + 1)
        self.start = self.high.position
        self.turn = 0

    @property
    def exhausted(self) -> bool:
        return self.low.exhausted and (self.high.exhausted or not self.k_high)

    def spans(self) -> tuple[int, tuple[int, int]]:
        """The visited positions: the low prefix and the high run."""
        return self.low.position, (self.start, self.high.position)

    def take(self, m: int) -> np.ndarray:
        """The next m visited strings (fewer at the end of the space)."""
        kl, kh = self.k_low, self.k_high
        k = kl + kh
        end = 1 << self.n
        parts = []
        got = 0
        while got < m and not self.exhausted:
            r0, s0 = divmod(self.turn, k)
            lo0, hi0 = r0 * kl, r0 * kh  # consumed by each stream before round r0
            span = max(2 * (m - got), k)
            dr, slot = np.divmod(s0 + np.arange(span), k)
            is_low = slot < kl
            # positions consumed before each turn, relative to lo0 and hi0
            dl = dr * kl + np.minimum(slot, kl)
            dh = dr * kh + np.maximum(slot - kl, 0)
            # low turn at lo0+dl: taken by high iff start <= pos < start+hi0+dh
            low_ok = (dl < _clamp(end - lo0)) & ~(
                (dl >= _clamp(self.start - lo0)) & (dl - dh < _clamp(self.start + hi0 - lo0)))
            # high turn at start+hi0+dh: taken by low iff pos < lo0+dl
            high_ok = (dh < _clamp(end - self.start - hi0)) & (
                dh - dl >= _clamp(lo0 - self.start - hi0))
            idx = np.flatnonzero(np.where(is_low, low_ok, high_ok))[: m - got]
            used = int(idx[-1]) + 1 if len(idx) == m - got else span
            r1, s1 = divmod(s0 + used, k)
            dl0, dh0 = min(s0, kl), max(s0 - kl, 0)
            low_rows = self.low.peek(r1 * kl + min(s1, kl) - dl0)
            high_rows = self.high.peek(r1 * kh + max(s1 - kl, 0) - dh0)
            if len(idx):
                sel_low = is_low[idx]
                width = max(low_rows.shape[1], high_rows.shape[1])
                rows = np.full((len(idx), width), self.n, dtype=np.intp)
                rows[sel_low, :low_rows.shape[1]] = low_rows[dl[idx[sel_low]] - dl0]
                rows[~sel_low, :high_rows.shape[1]] = high_rows[dh[idx[~sel_low]] - dh0]
                parts.append(rows)
                got += len(idx)
            self.low.skip(len(low_rows))
            self.high.skip(len(high_rows))
            self.turn += used
        if not parts:
            return np.empty((0, 0), dtype=np.intp)
        return parts[0] if len(parts) == 1 else _stack_rows(parts, self.n)


def syndrome_of(model: DetectorErrorModel, mask: int) -> int:
    """XOR of detector footprints over the channels set in `mask`."""
    if mask >> model.n_channels:
        raise ValueError("bitstring length exceeds channel count")
    s = 0
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        s ^= model.det_footprints[i]
        m &= m - 1
    return s


def observable_of(model: DetectorErrorModel, mask: int) -> int:
    """XOR of observable footprints over the channels set in `mask`."""
    if mask >> model.n_channels:
        raise ValueError("bitstring length exceeds channel count")
    o = 0
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        o ^= model.obs_footprints[i]
        m &= m - 1
    return o
