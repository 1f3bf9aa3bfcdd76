"""Error bitstrings and enumeration of the error space.

Bitstrings are plain ints with bit ``i`` selecting channel ``i``; textual
renderings put bit 0 leftmost.  The visit order is ascending Hamming
weight, with ties broken by lexicographic order of the ascending support
tuples (combinatorial number system ranks).

Blocks.  The enumeration core reads the order in blocks of support-index
rows: row r lists the channels of one bitstring in ascending order, padded
with n to the block's width.  `VisitOrder.take` unranks a block's rows of
one weight class in numpy, one `searchsorted` per column into a prefix
table of binomials (`rank_table`, `combination_rows`); the table holds
int64 while every value fits and Python ints past that, with the same code
either way.  The order is also the visited set: its first `taken - held`
strings (given, less the last ones held back, not yet visited), plus the
`local-flip` walk's out-of-order extras.  The visited part of the order
is a prefix, so membership is asked of a block of word rows at once: each
row is compared with the prefix's end (`precedes`) and looked up among the
extras.  `Footprints` holds every channel's detector, observable and
channel bit sets as rows of ceil(width/64) uint64 words, with an empty row
n, so a block's syndromes are the XOR of one gathered row per support
column, for every detector count.  Bit sets of any width become support
rows through one function, `supports_of_words`, and bool rows become bit
sets through `words_of_bits`.
"""

from __future__ import annotations

from itertools import accumulate
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


def unrank_in_weight_class(r: int, n: int, k: int) -> int:
    """The weight-k string of rank `r` in lex order of supports."""
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


def unrank_position(pos: int, n: int) -> int:
    w = 0
    while True:
        c = comb(n, w)
        if pos < c:
            return unrank_in_weight_class(pos, n, w)
        pos -= c
        w += 1


STRATEGIES = ("hamming", "local-flip")


def n_words(n: int) -> int:
    """uint64 words per bit set of n bits (at least one)."""
    return max(1, -(-n // 64))


def words_of(masks, n_words: int) -> np.ndarray:
    """Python-int bit sets as a [len(masks), n_words] uint64 array."""
    if n_words == 1:
        return np.array(masks, dtype=np.uint64).reshape(-1, 1)
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


def row_keys(words: np.ndarray) -> np.ndarray:
    """One sortable scalar per row of [B, words] uint64 words: the word
    itself for one word, else the row's bytes as one void scalar."""
    if words.shape[1] == 1:
        return words[:, 0]
    return np.ascontiguousarray(words).view(f"V{8 * words.shape[1]}")[:, 0]


def key_words(keys: np.ndarray, n_words: int) -> np.ndarray:
    """`row_keys` scalars as [B, n_words] uint64 words (its inverse)."""
    return np.ascontiguousarray(keys).view(np.uint64).reshape(-1, n_words)


def bytes_of(words: np.ndarray) -> np.ndarray:
    """[B, words] bit sets as [B, 8 * words] uint8 rows, lowest byte first."""
    return np.ascontiguousarray(words, dtype="<u8").view(np.uint8)


def bits_of(words: np.ndarray, n: int) -> np.ndarray:
    """[B, words] bit sets as [B, n] bool rows."""
    return np.unpackbits(bytes_of(words), axis=1, count=n, bitorder="little").view(bool)


def words_of_bits(bits: np.ndarray) -> np.ndarray:
    """[B, n] bool rows as [B, n_words(n)] uint64 bit sets (inverse of bits_of)."""
    n = bits.shape[1]
    out = np.zeros((len(bits), 8 * n_words(n)), dtype=np.uint8)
    out[:, :-(-n // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8")


def supports_of_words(words: np.ndarray, n: int) -> np.ndarray:
    """Padded support rows of [B, words] bit sets: each row's channels in
    ascending order, padded with n to the most bits of any row.  Each word
    gives one column per bit a row has in it, lowest first; the columns
    are sorted only when there are several words."""
    cols = []
    for w in range(words.shape[1]):
        x = words[:, w].copy()
        while x.any():
            low = x & -x  # lowest bit set, 0 for none
            var = np.bitwise_count(low - np.uint64(1)).astype(np.intp) + 64 * w
            cols.append(np.where(low != 0, var, n))
            x ^= low
    if not cols:
        return np.zeros((len(words), 0), dtype=np.intp)
    sup = np.stack(cols, axis=1)
    if words.shape[1] > 1:
        sup.sort(axis=1)
        sup = sup[:, :int(np.bitwise_count(words).sum(axis=1).max())]
    return sup


def precedes(rows: np.ndarray, end: int) -> np.ndarray:
    """Whether each of [B, words] bit sets comes before the string `end` in
    the weight order: it is lighter, or it has the same weight and holds
    the lowest channel where the two differ (the lowest set bit of their
    XOR in the lowest word where they differ).  `end` may be wider than
    the rows, as the order's end marker is."""
    holds = np.zeros(len(rows), dtype=bool)
    for j in range(rows.shape[1] - 1, -1, -1):  # a lower word that differs decides
        r = rows[:, j]
        d = r ^ np.uint64(end >> 64 * j & _WORD_MASK)
        np.copyto(holds, r & d & -d != 0, where=d != 0)  # d & -d: lowest set bit
    weights = np.bitwise_count(rows).sum(axis=1)
    w = end.bit_count()
    holds &= weights == w
    holds |= weights < w
    return holds


class Footprints:
    """The detector (`det`), observable (`obs`) and channel (`chan`) bit sets
    of every channel as [n + 1, words] uint64 tables; row n is empty.
    `det_obs` is [det | obs], so one gather gives syndromes and
    observables; `det` and `obs` are views of it.

    A block of bitstrings is given as support columns: an index array of
    shape [k, B] whose column b lists the channels of bitstring b, padded
    with n.  Padded support rows, transposed, are such an array."""

    def __init__(self, model: DetectorErrorModel) -> None:
        n = model.n_channels
        wd, wo = n_words(model.n_detectors), n_words(model.n_observables)
        self.det_obs = np.hstack((words_of([*model.det_footprints, 0], wd),
                                  words_of([*model.obs_footprints, 0], wo)))
        self.det, self.obs = self.det_obs[:, :wd], self.det_obs[:, wd:]
        self.chan = words_of([*(1 << i for i in range(n)), 0], n_words(n))

    @staticmethod
    def xor(table: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Per bitstring, the XOR of the table rows of its channels."""
        out = np.zeros((cols.shape[1], table.shape[1]), dtype=np.uint64)
        for col in cols:
            out ^= np.take(table, col, axis=0)  # several times faster than table[col]
        return out


def rank_table(n: int, k: int) -> np.ndarray:
    """The [k, n + 1] prefix table of weight class k: row j, entry c is the
    number of weight-k strings whose j-th channel (in ascending order) lies
    below c, given the channels before it; that is the sum over c' < c of
    C(n - 1 - c', k - 1 - j).  int64 while C(n, m) fits for every m <= k,
    else Python ints (object)."""
    rows = [list(accumulate((comb(n - 1 - c, k - 1 - j) for c in range(n)), initial=0))
            for j in range(k)]
    exact = any(r[-1] >> 63 for r in rows)
    return np.array(rows, dtype=object if exact else np.int64).reshape(k, n + 1)


def combination_rows(table: np.ndarray, first: int, count: int) -> np.ndarray:
    """Ranks first, ..., first + count - 1 of a weight class, by its
    `rank_table`, as [count, k] ascending channel rows.  Column j takes the
    last c whose table entry does not pass the rank carried so far, plus
    the entry of the channel after column j - 1."""
    k = table.shape[0]
    out = np.empty((k, count), dtype=np.intp)
    rank = np.arange(count, dtype=table.dtype) + first
    after = np.zeros(count, dtype=np.intp)  # the first channel column j may take
    for j, t in enumerate(table):
        rank = rank + t[after]
        out[j] = np.searchsorted(t, rank, side="right") - 1
        rank = rank - t[out[j]]
        after = out[j] + 1
    return out.T


def _stack_rows(parts, n: int) -> np.ndarray:
    """Support-row arrays stacked, padded with n to the widest."""
    if len(parts) == 1:
        return parts[0]
    width = max((p.shape[1] for p in parts), default=0)
    out = np.full((sum(len(p) for p in parts), width), n, dtype=np.intp)
    r = 0
    for p in parts:
        out[r:r + len(p), :p.shape[1]] = p
        r += len(p)
    return out


class VisitOrder:
    """A run's visit order, the weight order read in blocks of support
    rows, and the set of strings it has visited.

    The order's state is two counts: `taken`, the strings `take` gave, and
    `held`, how many of the last of them `hold` marks as not yet visited
    (rows taken ahead).  The visited strings are the order's first
    `taken - held`, plus `extras` (the `local-flip` walk's out-of-order
    visits, which leave `extras` once the in-order prefix reaches them),
    so there are `len(order)` of them.  `take` reads on from position
    `taken`, one weight class at a time through that class's rank table.
    `contains_rows` answers membership for a block of word rows at once,
    by one rule: a row is visited if it precedes the prefix's end (it is
    lighter, or it has the same weight and holds the lowest channel where
    the two differ) or if it lies in `extras`.  The end string is unranked
    at the first query after a `take` or `hold`.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.extras: set[int] = set()
        self.taken = 0  # strings given by `take`
        self.held = 0  # the last of them not yet visited
        self._w = 0  # weight class of the string at position `taken`
        self._class_start = 0  # position of weight class _w's first string
        self._table: np.ndarray | None = None  # its rank table, once read
        self._end: int | None = None  # the visited prefix's end string

    def __len__(self) -> int:
        return self.taken - self.held + len(self.extras)

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """Whether each string of [B, n_words(n)] uint64 rows is visited:
        it precedes the visited prefix's end or it lies in `extras`."""
        if self._end is None:
            pos = self.taken - self.held
            # Past the end: the all-ones string of n + 1 bits, which every string precedes.
            self._end = unrank_position(pos, self.n) if pos < 1 << self.n else (2 << self.n) - 1
        seen = precedes(rows, self._end)
        if self.extras:
            seen |= np.isin(row_keys(rows), row_keys(words_of(list(self.extras), rows.shape[1])))
        return seen

    def hold(self, count: int) -> None:
        """Mark the last `count` strings given as not yet visited (until
        the next `hold`)."""
        if not 0 <= count <= self.taken:
            raise ValueError(f"cannot hold {count} of the {self.taken} strings given")
        self.held, self._end = count, None

    def lowest_unvisited_weight(self) -> int:
        """The lowest weight of any unvisited string (n + 1 if none): the
        first string past the visited prefix not in `extras`."""
        for pos in range(self.taken - self.held, 1 << self.n):
            mask = unrank_position(pos, self.n)
            if mask not in self.extras:
                return mask.bit_count()
        return self.n + 1

    def take(self, m: int) -> np.ndarray:
        """The next m strings of the order (fewer at its end)."""
        parts = []
        stop = min(self.taken + m, 1 << self.n)
        while self.taken < stop:
            size = comb(self.n, self._w)
            if self._table is None:
                self._table = rank_table(self.n, self._w)
            first = self.taken - self._class_start
            got = min(stop - self.taken, size - first)
            parts.append(combination_rows(self._table, first, got))
            self.taken += got
            if first + got == size:  # weight class _w is done
                self._w += 1
                self._class_start += size
                self._table = None
        self._end = None
        return _stack_rows(parts, self.n)


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
