"""Weight-order enumeration, ranking, the visit order and its membership,
the two-run test order `SplitOrder`, and the reference visited set."""

import random
from itertools import combinations, islice
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qecbound.errorspace import (
    STRATEGIES,
    VisitOrder,
    bits_to_str,
    combination_rows,
    ints_of,
    precedes,
    rank_table,
    str_to_bits,
    unrank_in_weight_class,
    unrank_position,
    weight,
    words_of,
)

from conftest import kept_case
from reference import (
    ReferenceVisitedSet,
    SplitOrder,
    WeightOrderCursor,
    first_position_of_weight,
    local_moves_flip,
    position_of,
    rank_in_weight_class,
    run_cursors,
)


def test_bits_round_trip():
    assert bits_to_str(0b110, 3) == "011"  # bit 0 leftmost
    assert str_to_bits("011") == 0b110
    for m in range(32):
        assert str_to_bits(bits_to_str(m, 5)) == m


def word_by_word(masks, k):
    """[len(masks), k] uint64 words, one Python int per word."""
    rows = [[(m >> 64 * w) & ((1 << 64) - 1) for w in range(k)] for m in masks]
    return np.array(rows, dtype=np.uint64).reshape(-1, k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_words_of_matches_word_by_word(k):
    rng = random.Random(k)
    masks = [rng.getrandbits(64 * k) for _ in range(200)] + [0, (1 << 64) - 1, (1 << 64 * k) - 1]
    for ms in (masks, []):
        got = words_of(ms, k)
        assert got.dtype == np.uint64 and got.shape == (len(ms), k)
        np.testing.assert_array_equal(got, word_by_word(ms, k))
        assert ints_of(got) == ms


def brute_force_order(n):
    """Independent oracle: sort all strings by (weight, support tuple)."""
    def key(m):
        supp = tuple(i for i in range(n) if m >> i & 1)
        return (len(supp), supp)
    return sorted(range(1 << n), key=key)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_order_matches_brute_force(n):
    order = brute_force_order(n)
    for pos, m in enumerate(order):
        assert position_of(m, n) == pos
        assert unrank_position(pos, n) == m


def test_rank_unrank_within_weight_class():
    n, k = 10, 4
    members = sorted(
        (m for m in range(1 << n) if weight(m) == k),
        key=lambda m: tuple(i for i in range(n) if m >> i & 1),
    )
    for r, m in enumerate(members):
        assert rank_in_weight_class(m, n) == r
        assert unrank_in_weight_class(r, n, k) == m


def test_first_position_of_weight():
    n = 20
    for w in range(5):
        assert first_position_of_weight(w, n) == sum(comb(n, j) for j in range(w))


def test_millionth_string_weight_for_n20():
    # cumulative counts: weights <= 13 give 988116 strings, <= 14 give
    # 1026876, so the string at 0-based position 999999 has weight 14
    m = unrank_position(10**6 - 1, 20)
    assert weight(m) == 14


def test_cursor_enumerates_everything_once():
    n = 6
    cur = WeightOrderCursor(n)
    seen = [cur.next() for _ in range(1 << n)]
    assert cur.exhausted
    assert sorted(seen) == list(range(1 << n))
    with pytest.raises(StopIteration):
        cur.next()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_hamming_partition_covers_space(n):
    cur = WeightOrderCursor(n)
    seen = []
    while not cur.exhausted:
        seen.append(cur.next())
    assert sorted(seen) == list(range(1 << n))


@pytest.mark.parametrize("distance", [2, 3, 5])
def test_split_partition_covers_space_with_overlap(distance):
    n = 7
    seen = set()
    for cur in run_cursors(n, distance):
        while not cur.exhausted:
            seen.add(cur.next())
    assert seen == set(range(1 << n))


def test_split_high_block_starts_at_expected_weight():
    n = 8
    cursors = run_cursors(n, 4)
    first_high = cursors[1].next()
    assert weight(first_high) == 3  # floor(4/2) + 1
    assert _mask(SplitOrder(n, 4).take(2)[1], n) == first_high


def test_split_alternates_low_and_high_strings():
    """`SplitOrder`: weight 0, the first weight-2 string, the first weight-1
    string, and so on, one from each run, until the low run ends; blocks
    of any size continue the alternation where the last one stopped."""
    n = 5
    order = brute_force_order(n)
    low, high = order[:1 + n], order[1 + n:]  # d = 3: the high run starts at weight 2
    expect = [m for pair in zip(low, high) for m in pair] + high[len(low):]
    assert expect[:3] == [0b00000, 0b00011, 0b00001]
    visits = SplitOrder(n, 3)
    got = []
    for m in (1, 2, 3, 1, 4, 7, 100):
        got += [_mask(row, n) for row in visits.take(m)]
    assert got == expect


def test_local_moves_flip():
    assert local_moves_flip(0b000, 3) == {0b001, 0b010, 0b100}


def test_strategies():
    assert STRATEGIES == ("hamming", "local-flip")


def test_visited_set_in_order():
    n = 4
    vs = ReferenceVisitedSet(n)
    for pos in range(1 << n):
        m = unrank_position(pos, n)
        assert m not in vs
        vs.add(m)
        assert m in vs
        assert not vs.extras  # pure in-order visits never hit extras
    assert vs.covers_all
    assert vs.count == 1 << n


def test_visited_set_out_of_order_promotion():
    n = 4
    vs = ReferenceVisitedSet(n)
    vs.add(0b11)  # weight 2, far ahead
    assert vs.extras == {0b11}
    order = [unrank_position(p, n) for p in range(1 << n)]
    for m in order:
        if m not in vs:
            vs.add(m)
    assert vs.covers_all
    assert not vs.extras


def test_visited_set_rejects_double_visit():
    vs = ReferenceVisitedSet(3)
    vs.add(0)
    with pytest.raises(ValueError):
        vs.add(0)


@given(st.integers(0, 2**32 - 1), st.integers(3, 9))
@settings(max_examples=40, deadline=None)
def test_visited_set_membership_matches_reference_set(seed, n):
    rng = np.random.default_rng(seed)
    vs = ReferenceVisitedSet(n)
    ref = set()
    universe = list(range(1 << n))
    rng.shuffle(universe)
    for m in universe[: 1 << (n - 1)]:
        if m not in vs:
            vs.add(m)
            ref.add(m)
        for probe in rng.integers(0, 1 << n, size=3):
            assert (int(probe) in vs) == (int(probe) in ref)
    assert vs.count == len(ref)


def test_precedes_is_the_weight_order():
    n = 5
    order = [unrank_position(p, n) for p in range(1 << n)]
    rows = words_of(order, 1)
    assert precedes(rows, (2 << n) - 1).all()  # the order's end marker
    for j, b in enumerate(order):
        assert precedes(rows, b).tolist() == [i < j for i in range(1 << n)]


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_frozen_membership_and_lowest_unvisited_weight(seed, n):
    """Any reference layout: a prefix, an optional high run, extras
    anywhere else (also at the frontier, as local moves leave them).  The
    reference's own position walk finds the lowest unvisited weight and
    leaves the layout alone."""
    rng = np.random.default_rng(seed)
    size = 1 << n
    prefix = int(rng.integers(0, size + 1))
    vs = ReferenceVisitedSet(n, prefix)
    if rng.random() < 0.5 and prefix < size:
        a = int(rng.integers(prefix, size))
        vs.high = (a, int(rng.integers(a, size + 1)))
    a, b = vs.high
    outside = [p for p in range(prefix, size) if not a <= p < b]
    vs.extras.update(unrank_position(p, n) for p in outside if rng.random() < 0.5)
    before = repr(vs)
    unvisited = [m for m in range(size) if m not in vs]
    assert vs.lowest_unvisited_weight() == min((weight(m) for m in unvisited), default=n + 1)
    assert vs.contains_rows(words_of(range(size), 1)).tolist() == [m in vs for m in range(size)]
    assert repr(vs) == before
    # A visit order in any state (the library's or a `SplitOrder` of a
    # random distance, a random take and hold, random extras past its
    # prefix) answers a block of every string as the reference layout of
    # its positions does.
    order = VisitOrder(n) if rng.random() < 0.5 else SplitOrder(n, int(rng.integers(0, 2 * n + 3)))
    order.take(int(rng.integers(0, size + 1)))
    order.hold(int(rng.integers(0, order.taken + 1)))
    layout = _layout_of(order)
    order.extras.update(m for m in range(size) if m not in layout and rng.random() < 0.3)
    layout.extras = set(order.extras)
    assert (order.contains_rows(words_of(range(size), 1)).tolist()
            == [m in layout for m in range(size)])
    assert order.lowest_unvisited_weight() == layout.lowest_unvisited_weight()


def _mask(row, n):
    return sum(1 << int(c) for c in row if c < n)


def _layout_of(order) -> ReferenceVisitedSet:
    """The reference layout of the positions an order has visited in
    order (its extras aside)."""
    if isinstance(order, SplitOrder):
        low, high = order.visited_ends()
        return ReferenceVisitedSet(order.n, low, high=(order.start, max(order.start, high)))
    return ReferenceVisitedSet(order.n, order.taken - order.held)


def _assert_visited(order, n, visited):
    """One block call over every string against the per-string reference."""
    every = range(1 << n)
    assert order.contains_rows(words_of(every, 1)).tolist() == [m in visited for m in every]
    assert len(order) == len(visited)
    assert order.lowest_unvisited_weight() == min(
        (weight(m) for m in range(1 << n) if m not in visited), default=n + 1)


# Every strategy, and the test order `SplitOrder` over the distances of
# test_block_core; the `local-both` id runs `local-flip` on other seeds
# (see kept_case).
ORDER_PLANS = [(s, None) for s in ("hamming", "local-flip", "local-both")] + [
    ("split", d) for d in (0, 1, 3, 5, "2n+2")]


@pytest.mark.parametrize("strategy,distance", ORDER_PLANS,
                         ids=[f"{s}-{d}" if d is not None else s for s, d in ORDER_PLANS])
def test_order_membership_matches_taken_strings(strategy, distance):
    """The order is the visited set: the strings `take` returned, less the
    last `held` of them, plus the extras.  Takes of random size (0 too),
    random holds (the local walk's; `split` never holds) and random extras
    for `local-flip`, which lie past the in-order prefix and leave it once
    the prefix reaches them, as the walk's do; membership of every string,
    the count and the lowest unvisited weight are asked after each `take`
    and each `hold`, so an end kept from before either would fail."""
    strategy, variant = kept_case(strategy, 1)
    for seed in range(10 * variant - 10, 10 * variant):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        d = 2 * n + 2 if distance == "2n+2" else distance
        order = VisitOrder(n) if d is None else SplitOrder(n, d)
        taken: list[int] = []
        held = 0
        while len(taken) < 1 << n:
            rows = order.take(int(rng.integers(0, 2 + (1 << n) // 6)))
            taken += [_mask(row, n) for row in rows]
            order.extras -= set(taken[:len(taken) - held])
            _assert_visited(order, n, set(taken[:len(taken) - held]) | order.extras)
            if strategy == "split":
                continue
            held = int(rng.integers(0, len(rows) + 1))
            order.hold(held)
            if strategy == "local-flip":
                order.extras.clear()
                order.extras.update(int(m) for m in np.flatnonzero(rng.random(1 << n) < 0.1))
                order.extras -= set(taken[:len(taken) - held])
            _assert_visited(order, n, set(taken[:len(taken) - held]) | order.extras)
        assert sorted(taken) == list(range(1 << n))


@pytest.mark.parametrize("n", [66, 70])
@pytest.mark.parametrize("distance", [None, 3, 5])
def test_two_word_membership_matches_the_reference(n, distance):
    """Rows of two words.  The order (the library's, or the test order
    `SplitOrder` for a distance) is held back so that a visited end is a
    string with a channel in the second word (each run's, for
    `SplitOrder`), and a block is asked of random rows of weight <= 3, the
    strings next to each end and the strings that equal an end in its
    first word but not in its second (so the lowest differing word is the
    second), against the reference layout of the order's positions; with
    extras past the prefix when the order has no high run, as the walk
    leaves them."""
    rng = np.random.default_rng(n + (distance or 0))
    order = VisitOrder(n) if distance is None else SplitOrder(n, distance)
    order.take(5000)
    start = 1 << n if distance is None else order.start
    second_word = 0
    for t in (1 << 65, 1 | 1 << 64, 1 | 1 << 65, 0b11 | 1 << 65, 0b110 | 1 << 64):
        pos = position_of(t, n)
        # visited count k whose low (or high) end is t; `SplitOrder` needs
        # the runs to alternate up to k, that is ceil(k/2) <= start
        k = pos if distance is None else 2 * pos if pos < start else 2 * (pos - start) + 1
        if k > order.taken or distance is not None and (k + 1) // 2 > start:
            continue
        order.hold(order.taken - k)
        layout = _layout_of(order)
        low_end, high_end = layout.prefix, max(start, layout.high[1])
        assert pos in (low_end, high_end)
        probes = [sum(1 << int(c) for c in rng.choice(n, size=k, replace=False))
                  for k in rng.integers(0, 4, size=200)]
        ends = [unrank_position(p, n) for p in (low_end, high_end) if p < 1 << n]
        probes += [unrank_position(p, n) for end in (low_end, high_end)
                   for p in range(max(0, end - 3), min(end + 3, 1 << n))]
        probes += [e & (1 << 64) - 1 | 1 << j for e in ends for j in range(64, n)
                   if e >> 64]
        if distance is None:
            order.extras = {m for m in probes if m not in layout and rng.random() < 0.2}
            layout.extras = set(order.extras)
        assert order.contains_rows(words_of(probes, 2)).tolist() == [m in layout for m in probes]
        second_word += sum(m != e and weight(m) == weight(e) and (m ^ e) >> 64 << 64 == m ^ e
                           for m in probes for e in ends)
    assert second_word  # the rule compared some rows in their second word


@pytest.mark.parametrize("distance", [0, 1, 3, 5, "2n+2"])
def test_split_holds_match_taken_strings(distance):
    """Holds on the test order `SplitOrder`: the held rows of a take may
    come from both runs.  After a hold, each run's visited part is what it
    gave less its share of the held rows; after a take, the last hold's
    count carries over, so the visited strings are the first
    `len(taken) - count` in order of `take`.  Membership of every string,
    the count and the lowest unvisited weight are asked after each `take`
    and each `hold` of random size (0 too)."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        d = 2 * n + 2 if distance == "2n+2" else distance
        w = d // 2 + 1
        order = SplitOrder(n, d)
        given: tuple[list[int], list[int]] = ([], [])  # by the low and the high run
        taken: list[int] = []
        count = 0
        while len(given[0]) + len(given[1]) < 1 << n:
            rows = [_mask(row, n) for row in order.take(int(rng.integers(0, 2 + (1 << n) // 6)))]
            taken += rows
            for m in rows:
                given[weight(m) >= w].append(m)
            _assert_visited(order, n, set(taken[:len(taken) - count]))
            for _ in range(2):  # after each of two holds
                count = int(rng.integers(0, len(rows) + 1))
                order.hold(count)
                high = sum(weight(m) >= w for m in rows[len(rows) - count:]) if count else 0
                held = (count - high, high)
                _assert_visited(order, n, {m for run, h in zip(given, held)
                                           for m in run[:len(run) - h]})
        assert sorted(given[0] + given[1]) == list(range(1 << n))


@pytest.mark.parametrize("n", range(13))
def test_weight_runs_are_the_combinations(n):
    """The visit order, read in takes of random size (0 too, and past its
    end), gives the rows of `itertools.combinations`, weight class by
    weight class, each padded with n to the width of its take."""
    rng = np.random.default_rng(n)
    expect = [c for k in range(n + 1) for c in combinations(range(n), k)]
    for _ in range(3):
        order = VisitOrder(n)
        got = []
        while order.taken < 1 << n:
            rows = order.take(int(rng.integers(0, 2 + len(expect) // 4)))
            for row in rows.tolist():
                k = sum(c < n for c in row)
                assert row[k:] == [n] * (len(row) - k)
                got.append(tuple(row[:k]))
        assert got == expect
        assert order.taken == 1 << n
        assert order.take(3).shape[0] == 0


def test_unranking_is_exact_past_int64():
    """The rank tables switch to Python ints once C(n, m) passes 2^63: the
    weight classes at n = 213 (weight 12) and n = 70 (weight 40) start
    with the combinations, and the first and last ranks of classes on
    either side of the switch unrank as `unrank_in_weight_class` does."""
    for n, w in [(213, 12), (70, 40)]:
        rows = combination_rows(rank_table(n, w), 0, 100)
        assert [tuple(row) for row in rows.tolist()] == list(islice(combinations(range(n), w), 100))
    assert rank_table(66, 33).dtype == np.int64 and rank_table(67, 33).dtype == object
    for n, k in [(66, 33), (66, 66), (67, 33), (67, 34), (70, 40), (213, 12), (213, 200)]:
        table = rank_table(n, k)
        size = comb(n, k)
        for first in (0, max(0, size - 4)):
            rows = combination_rows(table, first, min(4, size))
            assert [sum(1 << c for c in row) for row in rows.tolist()] == [
                unrank_in_weight_class(first + i, n, k) for i in range(len(rows))]
