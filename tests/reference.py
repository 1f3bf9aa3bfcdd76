"""Reference implementations, used only by the tests.

The library enumerates the weight order in blocks, and its visit order
answers membership from the strings it gave; the helpers here do the same
one string at a time: ranking a string to its position and unranking a
position by the binomial comb loop (the independent reference for the
order's reads), one cursor per run of a visit order, flip neighbours,
and a visited set fed by `add` whose membership ranks the string.
`SplitOrder` is a visit order of two runs of the weight order, taken in
turn, that the tests run the driver on in place of `VisitOrder`.  The
per-shot helpers evaluate one minterm, accumulate one string and draw
one unseen string; the tail sampler's per-row draw and per-draw accept
loop work on Python ints, one string at a time.
`reference_ml_table` builds the ML table from chunks of bitstrings, each
rebuilt from its bits.  `DenseSignPass` is the first pruning round with
every row's other factors written out.  The tests compare the library
against them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb

import numpy as np

from qecbound.errorspace import (
    Footprints,
    bits_of,
    bits_to_str,
    combination_rows,
    ints_of,
    n_words,
    precedes,
    rank_table,
    row_keys,
    weight,
    words_of,
)
from qecbound.polynomial import (
    BoundAccumulators,
    MintermEvaluator,
    TermArray,
    _bits,
    _chunk_rows,
)
from qecbound.sampling import (
    _BATCH,
    REJECTION_GUARD,
    RejectionGuardExceeded,
    TailSampler,
    _tail_table,
    sample_unseen_batch,
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


def unrank_in_weight_class(r: int, n: int, k: int) -> int:
    """The weight-k string of rank `r` in lex order of supports: each
    channel in turn, skipping the C(n - 1 - c, k - 1 - j) strings of every
    lower channel c."""
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
    """The string at position `pos` of the weight order over all 2^n."""
    w = 0
    while True:
        c = comb(n, w)
        if pos < c:
            return unrank_in_weight_class(pos, n, w)
        pos -= c
        w += 1


def first_position_of_weight(w: int, n: int) -> int:
    return sum(comb(n, j) for j in range(w))


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
    position of weight floor(d/2)+1 given a distance d (`SplitOrder`), the
    end of the order otherwise.  The low cursor eventually reaches the high
    start, so the cursors overlap.  Taking one position from each cursor
    in turn, and dropping positions already taken, gives the visit order
    that `SplitOrder` produces in blocks (`VisitOrder` without a distance).
    """
    w = n + 1 if distance is None else distance // 2 + 1
    return [WeightOrderCursor(n), WeightOrderCursor(n, first_position_of_weight(w, n))]


def weight_order_rows(n: int, first: int, count: int) -> np.ndarray:
    """Positions first, ..., first + count - 1 of the weight order as
    support rows, padded with n to the widest."""
    parts = []
    w = start = 0  # weight class w begins at position start
    while count > 0:
        size = comb(n, w)
        if first < start + size:
            got = min(count, start + size - first)
            parts.append(combination_rows(rank_table(n, w), first - start, got))
            first += got
            count -= got
        start += size
        w += 1
    rows = np.full((sum(len(p) for p in parts), max((p.shape[1] for p in parts), default=0)),
                   n, dtype=np.intp)
    r = 0
    for p in parts:
        rows[r:r + len(p), :p.shape[1]] = p
        r += len(p)
    return rows


class SplitOrder:
    """A visit order in which heavier strings come before lighter ones,
    with the interface of `errorspace.VisitOrder` that a run uses.

    The weight order is cut into a low run [0, start) and a high run
    [start, 2^n), of L and H strings, start the first string of weight
    w = floor(d/2)+1 for a distance d.  The two runs take turns, one string
    each and the low run first, until either ends; the other then
    continues alone, so the order's first k strings hold the low run's
    first max(min(ceil(k/2), L), k - H).  (This was the order of the
    library's former `split` strategy.)  As the library's order, its state
    is one count, `prefix`, that only `advance` moves: the visited strings
    are the order's first `prefix` plus `extras`, and a row is visited if it
    precedes the low run's visited end, if it has weight >= w and precedes
    the high run's visited end, or if it lies in `extras`.  Tests install
    it in the driver (`conftest.kept_order`), so the block core, the sign
    pass and the tail sampler also meet a visited set that is no prefix of
    the weight order and rows stored heavier before lighter.
    """

    def __init__(self, n: int, distance: int) -> None:
        self.n = n
        self.w = min(distance // 2 + 1, n + 1)
        self.start = first_position_of_weight(self.w, n)
        self.extras: set[int] = set()
        self.prefix = 0

    def __len__(self) -> int:
        return self.prefix + len(self.extras)

    def low_share(self, k: int) -> int:
        """How many of the order's first k strings the low run gives."""
        return max(min((k + 1) // 2, self.start), k - ((1 << self.n) - self.start))

    def visited_ends(self) -> tuple[int, int]:
        """Each run's visited end, as a position in the weight order."""
        low = self.low_share(self.prefix)
        return low, self.start + self.prefix - low

    def read(self, m: int) -> np.ndarray:
        """The next m strings past the visited prefix (fewer at the
        order's end); marks nothing."""
        first, stop = self.prefix, min(self.prefix + m, 1 << self.n)
        shares = [self.low_share(k) for k in range(first, stop + 1)]
        low = weight_order_rows(self.n, shares[0], shares[-1] - shares[0])
        high = weight_order_rows(self.n, self.start + first - shares[0],
                                 stop - first - len(low))
        from_low = np.diff(np.array(shares, dtype=object)).astype(bool)
        rows = np.full((len(from_low), max(low.shape[1], high.shape[1])), self.n,
                       dtype=np.intp)
        rows[from_low, :low.shape[1]] = low
        rows[~from_low, :high.shape[1]] = high
        return rows

    def advance(self, k: int) -> None:
        """Mark the next k strings past the visited prefix visited."""
        if not 0 <= k <= (1 << self.n) - self.prefix:
            raise ValueError(f"cannot advance {k} from position {self.prefix} of {1 << self.n}")
        self.prefix += k

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        def at(pos: int) -> int:
            # Past the end: the all-ones string of n + 1 bits, which every string precedes.
            return unrank_position(pos, self.n) if pos < 1 << self.n else (2 << self.n) - 1

        low, high = self.visited_ends()
        seen = precedes(rows, at(low))
        if high > self.start:
            seen |= precedes(rows, at(high)) & (np.bitwise_count(rows).sum(axis=1) >= self.w)
        if self.extras:
            seen |= np.isin(row_keys(rows), row_keys(words_of(list(self.extras), rows.shape[1])))
        return seen

    def lowest_unvisited_weight(self) -> int:
        """In each run, the weight of the first string past its visited end
        not in `extras`; the lowest of them (n + 1 if none)."""
        lowest = self.n + 1
        for pos, end in zip(self.visited_ends(), (self.start, 1 << self.n)):
            for mask in (unrank_position(p, self.n) for p in range(pos, end)):
                if mask not in self.extras:
                    lowest = min(lowest, weight(mask))
                    break
        return lowest


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
    return ints_of(sample_unseen_batch(TailSampler(v), visited, rng, 1))[0]


def draw_tail(v: np.ndarray, lg: np.ndarray, rng: np.random.Generator,
              count: int) -> list[int]:
    """`count` bitstrings drawn from the model conditioned on weight >= c,
    where c is the last column of the tail table `lg`.  Channel i is set
    with probability v_i g[i+1, need-1] / g[i, need], computed per row,
    where `need` is how many more set bits the row still needs."""
    n = v.size
    lv = np.log(v)
    u = rng.random((n, count))
    need = np.full(count, lg.shape[1] - 1)
    words = np.zeros((count, n_words(n)), dtype=np.uint64)
    for i in range(n):
        bit = u[i] < np.exp(lv[i] + lg[i + 1, np.maximum(need - 1, 0)] - lg[i, need])
        words[:, i >> 6] |= bit.astype(np.uint64) << np.uint64(i & 63)
        need = np.maximum(need - bit, 0)
    return ints_of(words)


def sample_unseen_draw_by_draw(v, visited, rng, count: int, guard: int = REJECTION_GUARD,
                               deadline: float | None = None) -> list[int]:
    """`sample_unseen_batch` one draw at a time: batches of `draw_tail`,
    each string tested with `e in visited` and accepted or counted as a
    rejection in draw order."""
    varr = np.asarray(v, dtype=float)
    c = visited.lowest_unvisited_weight()
    if c > np.count_nonzero(varr):
        raise RejectionGuardExceeded("every bitstring of positive mass is visited")
    lg = _tail_table(varr, c)
    accepted: list[int] = []
    rejects = 0
    while len(accepted) < count:
        if deadline is not None and time.monotonic() > deadline:
            break
        size = min(_BATCH, 2 * (count - len(accepted)) + rejects)
        for e in draw_tail(varr, lg, rng, size):
            if e in visited:
                rejects += 1
                continue
            rejects = 0
            accepted.append(e)
            if len(accepted) == count:
                break
        if rejects >= guard and len(accepted) < count:
            raise RejectionGuardExceeded(
                f"{rejects} consecutive rejections; "
                "enumeration already covers nearly all of the tail"
            )
    return accepted


@dataclass
class ReferenceVisitedSet:
    """A visited set kept as positions in the weight order: the first
    `prefix` positions, the positions [a, b) of a second run `high`, and
    explicit `extras`.  Membership ranks the string.  `add` visits one
    string at a time and promotes extras into the prefix as the prefix
    catches up, so extras never duplicate the prefix; layouts with a high
    run (`SplitOrder`'s) are built with the constructor."""

    n: int
    prefix: int = 0
    extras: set[int] = field(default_factory=set)
    high: tuple[int, int] = (0, 0)

    def __contains__(self, mask: int) -> bool:
        pos = position_of(mask, self.n)
        a, b = self.high
        return mask in self.extras or pos < self.prefix or a <= pos < b

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """Membership of each string of [B, words] uint64 rows, ranked one
        at a time."""
        return np.array([m in self for m in ints_of(rows)], dtype=bool)

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


def _others(f: np.ndarray) -> np.ndarray:
    """Row k of the result is prod_{j != k} f[j], as a prefix times a
    suffix product (no division: a factor may be 0).  Overwrites f."""
    if len(f) <= 1:
        f[:] = 1.0
        return f
    pre = np.multiply.accumulate(f[:-1], axis=0)  # pre[j] = f[0] ... f[j]
    suf = np.multiply.accumulate(f[:0:-1], axis=0)[::-1]  # suf[j] = f[j+1] ... f[-1]
    f[0] = suf[0]
    f[-1] = pre[-1]
    np.multiply(pre[:-1], suf[1:], out=f[1:-1])
    return f


def _row_key(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """One sortable key per (pos, neg) row."""
    return row_keys(np.hstack((pos, neg)))


def _partner_key(rows: TermArray, t: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Keys of rows t with variable var moved between pos and neg."""
    k, w = np.arange(t.size), var // 64
    bit = np.left_shift(np.uint64(1), (var % 64).astype(np.uint64))
    pos, neg = rows.pos[t], rows.neg[t]
    pos[k, w] ^= bit
    neg[k, w] ^= bit
    return _row_key(pos, neg)


class DenseSignPass:
    """The sums of `polynomial._SignPass` formed the simple way: per chunk
    of rows, a [variables x rows] array of each row's factors at a box
    end, each entry replaced by the product of the row's other factors,
    times the merged derivative coefficients.  Every (variable, row)
    value is formed, where the library's pass forms one per positive
    literal.  It takes rows in weight order, as the library's does.

    `sums` and `mags` are the per-variable (d_lo, d_hi) sums of operands
    and of their absolute values.  `count` is A of this form: the rows
    fed plus the operands taken back (a row's lone 1 - x_var operand,
    subtracted when its partner arrives later).  Each operand carries at
    most V + 1 roundings, so `sums` lies within gamma_{2 (A + V + 2)}
    `mags` of the exact sum of the reference's operands."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray, n_words: int) -> None:
        self.lo, self.hi = lo, hi
        self.sums = np.zeros((2, lo.size))
        self.mags = np.zeros((2, lo.size))
        self.count = 0
        empty = np.zeros((0, n_words), dtype=np.uint64)
        self.keys, self.coef = _row_key(empty, empty), np.zeros(0)
        self.heaviest = 0

    def update(self, rows: TermArray) -> None:
        size = len(rows)
        if not size:
            return
        weight = np.bitwise_count(rows.pos).sum(axis=1)
        assert weight.min() >= self.heaviest, "rows come in weight order"
        n = self.lo.size
        keys = _row_key(rows.pos, rows.neg)
        old = len(self.keys)
        all_keys = np.concatenate((self.keys, keys))
        order = np.argsort(all_keys)
        all_keys = all_keys[order]
        assert not (all_keys[1:] == all_keys[:-1]).any(), "rows are distinct"
        all_coef = np.concatenate((self.coef, rows.coef))[order]
        occur = np.bitwise_or.reduce(rows.pos | rows.neg, axis=0)
        live = np.flatnonzero(_bits(occur[None, :], n)[:, 0])
        step = _chunk_rows(max(live.size, 1))
        # bit var set: the row's 1 - x_var has a partner
        mate = np.zeros_like(rows.pos)
        taken = np.zeros(n, dtype=np.intp)  # operands taken back, per variable

        # x_var in a new row, chunk by chunk in row-major order: the
        # partner's coefficient (0 without partner) and whether it is old
        partner_coef, partner_old = [], []
        for r0 in range(0, size, step):
            t, var = np.divmod(np.flatnonzero(bits_of(rows.pos[r0:r0 + step], n)), n)
            t += r0
            query = _partner_key(rows, t, var)
            at = np.minimum(np.searchsorted(all_keys, query), len(all_keys) - 1)
            hit = all_keys[at] == query
            j = order[at] - old  # >= 0: a new row
            partner_coef.append(np.where(hit, all_coef[at], 0.0))
            partner_old.append(hit & (j < 0))
            taken += np.bincount(var[partner_old[-1]], minlength=n)
            new = hit & (j >= 0)
            np.bitwise_or.at(mate, (j[new], var[new] // 64),
                             np.left_shift(np.uint64(1), (var[new] % 64).astype(np.uint64)))

        slot = np.zeros(n, dtype=np.intp)
        slot[live] = np.arange(live.size)
        l_lo, l_hi = self.lo[live][:, None], self.hi[live][:, None]
        for r0, p_coef, p_old in zip(range(0, size, step), partner_coef, partner_old):
            r1 = min(r0 + step, size)
            p_rows = bits_of(rows.pos[r0:r1], n)
            pt, pv = np.divmod(np.flatnonzero(p_rows), n)  # the x_var, as p_coef
            pv = slot[pv]
            p = np.ascontiguousarray(p_rows.T)[live]
            q = _bits(rows.neg[r0:r1], n)[live]
            lone = q & ~_bits(mate[r0:r1], n)[live]
            at_max = _others(np.where(p, l_hi, np.where(q, 1.0 - l_lo, 1.0)))
            at_min = _others(np.where(p, l_lo, np.where(q, 1.0 - l_hi, 1.0)))
            # merged derivative coefficients: c_pos - c_neg at x_var; at
            # 1 - x_var, -c_neg without partner and 0 with a new partner
            d = np.subtract(p, lone, dtype=float)
            d *= rows.coef[r0:r1]
            d[pv, pt] -= p_coef
            # taken back: an old partner's lone operand, -c_neg at its 1 - x_var
            bt, bv, bd = pt[p_old], pv[p_old], -p_coef[p_old]
            negative = d < 0.0
            for side, (a, b) in enumerate(((at_min, at_max), (at_max, at_min))):
                val = np.where(negative, b, a) * d
                back = np.where(bd < 0.0, b[bv, bt], a[bv, bt]) * bd
                self.sums[side, live] += val.sum(axis=1) - np.bincount(bv, back, live.size)
                self.mags[side, live] += (np.abs(val).sum(axis=1)
                                          + np.bincount(bv, np.abs(back), live.size))
        self.count += size + int(taken.max(initial=0))
        self.keys, self.coef = all_keys, all_coef
        self.heaviest = int(weight.max())
