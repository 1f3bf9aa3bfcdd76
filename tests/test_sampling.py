"""Exact conditional sampling of the unseen tail and KL-Chernoff intervals."""

import math
import time
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qecbound.errorspace import (
    VisitOrder,
    ints_of,
    unrank_position,
    weight,
    words_of,
)
from qecbound.polynomial import BoundAccumulators, MintermEvaluator
from qecbound.sampling import (
    ConfidenceInterval,
    RejectionGuardExceeded,
    TailSampler,
    kl_confidence_interval,
    probabilistic_bounds,
    _tail_table,
    sample_unseen_batch,
)

from reference import (
    ReferenceVisitedSet,
    accumulate,
    SplitOrder,
    draw_tail,
    first_position_of_weight,
    sample_unseen,
    sample_unseen_draw_by_draw,
)


def _sample(v, visited, rng, count, **kw) -> list[int]:
    """`sample_unseen_batch` from a fresh `TailSampler(v)`, its rows read
    as ints."""
    return ints_of(sample_unseen_batch(TailSampler(v), visited, rng, count, **kw))


def test_samples_avoid_visited_set():
    n = 6
    v = (0.3,) * n
    visited = ReferenceVisitedSet(n)
    for pos in range(20):
        visited.add(unrank_position(pos, n))
    rng = np.random.default_rng(0)
    samples = _sample(v, visited, rng, 500)
    assert len(samples) == 500
    assert all(s not in visited for s in samples)


def test_sample_distribution_matches_conditional():
    """Empirical frequencies track p(e)/p(unseen) for a small space."""
    n = 4
    v = (0.25, 0.1, 0.4, 0.3)
    visited = ReferenceVisitedSet(n)
    for pos in range(5):  # weights 0 and 1 visited
        visited.add(unrank_position(pos, n))
    rng = np.random.default_rng(42)
    samples = _sample(v, visited, rng, 40_000)
    ev = MintermEvaluator(v)
    unseen = [e for e in range(1 << n) if e not in visited]
    z = sum(ev(e) for e in unseen)
    counts = {e: 0 for e in unseen}
    for s in samples:
        counts[s] += 1
    for e in unseen:
        expect = ev(e) / z
        got = counts[e] / len(samples)
        assert abs(got - expect) < 5 * math.sqrt(expect * (1 - expect) / len(samples)) + 1e-3


def _assert_frequencies_match(v, visited, samples):
    ev = MintermEvaluator(v)
    unseen = [e for e in range(1 << len(v)) if e not in visited]
    assert set(samples) <= set(unseen)
    z = sum(ev(e) for e in unseen)
    for e in unseen:
        expect = ev(e) / z
        got = samples.count(e) / len(samples)
        assert abs(got - expect) < 5 * math.sqrt(expect * (1 - expect) / len(samples)) + 1e-3


@pytest.mark.parametrize("n", [1, 4, 7, 10])
def test_tail_table_matches_brute_force(n):
    v = np.random.default_rng(n).uniform(0.01, 0.6, size=n)
    lg = _tail_table(v, n)
    assert lg.shape == (n + 1, n + 1)
    for i in range(n + 1):
        tail = [0.0] * (n - i + 2)  # mass of each weight among channels i..n-1
        for bits in product((0, 1), repeat=n - i):
            tail[sum(bits)] += math.prod(v[i + j] if b else 1 - v[i + j]
                                         for j, b in enumerate(bits))
        for k in range(n + 1):
            expect = sum(tail[k:])
            assert math.isclose(math.exp(lg[i, k]), expect, rel_tol=1e-12, abs_tol=0.0)


def test_sample_distribution_with_extras_and_high_run():
    """Frontier prefix, extras and a high run (`SplitOrder`'s) all present."""
    n = 6
    v = (0.3, 0.15, 0.45, 0.2, 0.35, 0.25)
    high = first_position_of_weight(3, n)
    visited = ReferenceVisitedSet(n, 10, high=(high, high + 5))  # weight 2 partly visited
    visited.extras.update(unrank_position(p, n) for p in (12, 15, 50))
    assert visited.lowest_unvisited_weight() == 2
    samples = _sample(v, visited, np.random.default_rng(4), 40_000)
    _assert_frequencies_match(v, visited, samples)


def _layouts(n):
    """Three reference layouts with one membership: the in-order visits
    0..23 (all of weights 0-2 and two weight-3 strings) and two more
    strings."""
    later = [unrank_position(p, n) for p in (30, 45)]
    built = ReferenceVisitedSet(n)
    for p in range(24):
        built.add(unrank_position(p, n))
    for e in later:
        built.add(e)
    ahead = ReferenceVisitedSet(n, 10)  # extras ahead of the prefix, as local moves leave them
    ahead.extras.update(unrank_position(p, n) for p in range(10, 24))
    ahead.extras.update(later)
    split = ReferenceVisitedSet(n, 10, high=(22, 24))  # the weight-3 strings as a high run
    split.extras.update(unrank_position(p, n) for p in range(10, 22))
    split.extras.update(later)
    return built, ahead, split


def test_visited_layouts_give_identical_draws():
    n = 6
    v = (0.3, 0.15, 0.45, 0.2, 0.35, 0.25)
    layouts = _layouts(n)
    members = [[e in vs for e in range(1 << n)] for vs in layouts]
    assert members[0] == members[1] == members[2]
    assert [vs.complete_weight for vs in layouts] == [3, 2, 2]
    states = [repr(vs) for vs in layouts]
    draws = []
    for vs in layouts:
        assert vs.lowest_unvisited_weight() == 3
        draws.append(_sample(v, vs, np.random.default_rng(8), 3000))
    assert draws[0] == draws[1] == draws[2]
    assert [repr(vs) for vs in layouts] == states  # sampling leaves the sets alone
    _assert_frequencies_match(v, layouts[0], draws[0])


def test_order_draws_like_its_reference_layout():
    """A run hands the sampler its visit order: mid-way through the
    two-run test order `SplitOrder`, and through a held-back local walk
    with extras, it gives the same members, lowest unvisited weight and
    draws as the reference layout of the same positions."""
    n = 6
    v = (0.3, 0.15, 0.45, 0.2, 0.35, 0.25)
    split = SplitOrder(n, 3)
    split.take(10)  # positions 0-4 of the low run, 7-11 of the high run
    walk = VisitOrder(n)
    walk.take(30)
    walk.hold(6)  # positions 0-23 visited in order
    walk.extras.update(unrank_position(p, n) for p in (26, 45))
    for order, layout in [(split, ReferenceVisitedSet(n, 5, high=(7, 12))),
                          (walk, ReferenceVisitedSet(n, 24, {unrank_position(p, n)
                                                             for p in (26, 45)}))]:
        assert (order.contains_rows(words_of(range(1 << n), 1)).tolist()
                == [e in layout for e in range(1 << n)])
        assert order.lowest_unvisited_weight() == layout.lowest_unvisited_weight()
        assert (_sample(v, order, np.random.default_rng(8), 500)
                == _sample(v, layout, np.random.default_rng(8), 500))


@pytest.mark.parametrize("seed", range(6))
def test_draws_equal_the_per_row_reference(seed):
    """Every tail weight c <= n, 0 included: a fresh sampler, and one that
    already holds the table of c = n, draw the rows of the per-row
    reference bit for bit (read as ints), on random rates."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 70))
    v = rng.uniform(1e-4, 0.7, size=n)
    held = TailSampler(v)
    held.draw(n, np.random.default_rng(0), 1)
    for c in range(n + 1):
        count = int(rng.integers(0, 300))
        want = draw_tail(v, _tail_table(v, c), np.random.default_rng(c), count)
        assert ints_of(TailSampler(v).draw(c, np.random.default_rng(c), count)) == want
        assert ints_of(held.draw(c, np.random.default_rng(c), count)) == want
        assert all(weight(e) >= c for e in want)


class _Recording(TailSampler):
    """A tail sampler that keeps every batch it draws."""

    def __init__(self, v) -> None:
        super().__init__(v)
        self.batches = []

    def draw(self, c, rng, count):
        self.batches.append(super().draw(c, rng, count))
        return self.batches[-1]


def _accept_like_the_reference(v, visited, seed, count, guard):
    """The batch sampler against the per-draw loop: the same rows in the
    same order, or the same RejectionGuardExceeded.  Returns the
    sampler's batches, each as its membership list, and whether it
    raised."""
    tail = _Recording(v)
    try:
        got = ints_of(sample_unseen_batch(tail, visited, np.random.default_rng(seed), count,
                                          guard=guard))
    except RejectionGuardExceeded as exc:
        got = str(exc)
    try:
        want = sample_unseen_draw_by_draw(v, visited, np.random.default_rng(seed), count,
                                          guard=guard)
    except RejectionGuardExceeded as exc:
        want = str(exc)
    assert got == want
    return [visited.contains_rows(rows).tolist() for rows in tail.batches], isinstance(got, str)


def _random_layout(n, rng):
    """A prefix of the weight order and extras past it, most of the tail."""
    vs = ReferenceVisitedSet(n, int(rng.integers(0, 1 << n)))
    vs.extras.update(m for m in range(1 << n)
                     if m not in vs and rng.random() < rng.uniform(0.5, 0.97))
    return vs


def test_acceptance_matches_the_per_draw_loop():
    """On random layouts, counts and guards the batch sampler accepts and
    raises as the per-draw loop does.  Among them: (a) a guard that trips
    only because a batch's trailing rejections carry into the next, after
    an acceptance, and (b) a count reached in the middle of a batch."""
    carried = mid_batch = 0
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        v = rng.uniform(0.05, 0.6, size=n)
        visited = _random_layout(n, rng)
        if visited.lowest_unvisited_weight() > n:
            continue
        count, guard = int(rng.integers(1, 30)), int(rng.integers(1, 40))
        batches, raised = _accept_like_the_reference(v, visited, seed, count, guard)
        if raised and len(batches) >= 2:
            last, before = batches[-1], batches[-2]
            accepted_at = [i for i, s in enumerate(before) if not s]
            trailing = len(before) - 1 - accepted_at[-1] if accepted_at else 0
            carried += all(last) and len(last) < guard and 0 < trailing
        if not raised:
            free = sum(not s for s in batches[-1]) if batches else 0
            mid_batch += free > count - sum(not s for b in batches[:-1] for s in b)
    assert carried and mid_batch


def test_guard_trips_on_rejections_carried_over_a_batch():
    """Only 0b100 and 0b111 are unvisited (about 7e-10 of the tail): a
    count of 10 draws batches of 20, then 40; a guard of 50 trips only at
    the second, on the 60 rejections of both."""
    v = (0.5, 0.5, 1e-9)
    visited = ReferenceVisitedSet(3, 3, {0b011, 0b101, 0b110})
    batches, raised = _accept_like_the_reference(v, visited, 1, 10, 50)
    assert raised and [len(b) for b in batches] == [20, 40]


def test_past_deadline_returns_no_rows():
    """A deadline that has passed: no batch is drawn, zero rows come back,
    as from the per-draw loop."""
    v = (0.3,) * 5
    visited = ReferenceVisitedSet(5, 3)
    deadline = time.monotonic() - 1.0
    tail = _Recording(v)
    rows = sample_unseen_batch(tail, visited, np.random.default_rng(0), 10, deadline=deadline)
    assert rows.shape == (0, 1) and rows.dtype == np.uint64 and not tail.batches
    assert sample_unseen_draw_by_draw(v, visited, np.random.default_rng(0), 10,
                                      deadline=deadline) == []


def test_deep_tail_does_not_underflow():
    n, c = 48, 40
    v = (1e-9,) * n
    visited = ReferenceVisitedSet(n, first_position_of_weight(c, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lg = _tail_table(np.asarray(v), c)
        samples = _sample(v, visited, np.random.default_rng(5), 50)
    assert not np.isnan(lg).any()
    assert len(samples) == 50
    assert all(weight(e) >= c for e in samples)


def test_single_sample_helper():
    n = 4
    visited = ReferenceVisitedSet(n)
    visited.add(0)
    s = sample_unseen((0.2,) * n, visited, 3)
    assert s != 0


def test_sampler_draws_the_last_unvisited_string():
    n = 3
    v = (0.01,) * n
    visited = ReferenceVisitedSet(n)
    for pos in range(7):  # everything but the all-ones string
        visited.add(unrank_position(pos, n))
    rng = np.random.default_rng(1)
    assert _sample(v, visited, rng, 10, guard=50_000) == [0b111] * 10


def test_rejection_guard_trips_when_tail_nearly_visited():
    # Positions 0-2 are the prefix and the weight-2 strings extras, so only
    # 0b100 and 0b111 are unvisited: about 7e-10 of the tail weight >= 1.
    v = (0.5, 0.5, 1e-9)
    visited = ReferenceVisitedSet(3)
    for pos in range(3):
        visited.add(unrank_position(pos, 3))
    for e in (0b011, 0b101, 0b110):
        visited.add(e)
    assert visited.extras == {0b011, 0b101, 0b110}
    rng = np.random.default_rng(1)
    with pytest.raises(RejectionGuardExceeded):
        _sample(v, visited, rng, 10, guard=50_000)


def test_guard_resets_on_acceptance():
    # acceptance rate ~ 9%; far more than guard draws total, but never
    # `guard` consecutive rejections
    n = 8
    v = (0.3,) * n
    visited = ReferenceVisitedSet(n)
    for pos in range(37):  # weights 0..2
        visited.add(unrank_position(pos, n))
    rng = np.random.default_rng(2)
    samples = _sample(v, visited, rng, 2000, guard=2000)
    assert len(samples) == 2000


def test_kl_interval_contains_estimate():
    ci = kl_confidence_interval(0.3, 1000, 0.01)
    assert 0.0 < ci.lower < 0.3 < ci.upper < 1.0


def test_kl_interval_closed_forms():
    n, alpha = 1000, 0.01
    ci0 = kl_confidence_interval(0.0, n, alpha)
    assert ci0.lower == 0.0
    assert abs(ci0.upper - (1.0 - (alpha / 2) ** (1.0 / n))) < 1e-12
    ci1 = kl_confidence_interval(1.0, n, alpha)
    assert ci1.upper == 1.0
    assert abs(ci1.lower - (alpha / 2) ** (1.0 / n)) < 1e-12


def test_kl_interval_endpoints_satisfy_divergence_equation():
    theta, n, alpha = 0.07, 5000, 0.01
    ci = kl_confidence_interval(theta, n, alpha)
    target = math.log(2.0 / alpha) / n

    def kl(p, q):
        return p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))

    assert abs(kl(theta, ci.lower) - target) < 1e-6
    assert abs(kl(theta, ci.upper) - target) < 1e-6


@given(
    st.floats(0.001, 0.999),
    st.integers(10, 100_000),
    st.floats(0.001, 0.2),
)
@settings(max_examples=80, deadline=None)
def test_kl_interval_properties(theta, n, alpha):
    ci = kl_confidence_interval(theta, n, alpha)
    assert 0.0 <= ci.lower <= theta <= ci.upper <= 1.0
    # width shrinks with more samples
    wider = kl_confidence_interval(theta, max(1, n // 4), alpha)
    assert wider.upper - wider.lower >= ci.upper - ci.lower - 1e-9
    # smaller alpha widens
    stricter = kl_confidence_interval(theta, n, alpha / 10)
    assert stricter.lower <= ci.lower + 1e-9
    assert stricter.upper >= ci.upper - 1e-9


def test_probabilistic_bounds_nest_inside_sound_interval():
    v = (0.01,) * 3
    ev = MintermEvaluator(v)
    acc = BoundAccumulators()
    logical = {0b111, 0b011, 0b110, 0b101}
    for m in [0b000, 0b001, 0b010, 0b100]:
        accumulate(acc, m, m in logical, ev)
    ci = kl_confidence_interval(0.5, 100, 0.01)
    lo, hi, alpha = probabilistic_bounds(acc, ci)
    assert alpha == 0.01
    sound_lo = acc.sum_l.total
    sound_hi = 1.0 - (acc.sum_s.total - acc.sum_l.total)
    assert sound_lo <= lo <= hi <= sound_hi + 1e-15


def test_replay_determinism():
    n = 6
    v = (0.2,) * n
    visited = ReferenceVisitedSet(n)
    visited.add(0)
    a = _sample(v, visited, np.random.default_rng(99), 200)
    b = _sample(v, visited, np.random.default_rng(99), 200)
    assert a == b
