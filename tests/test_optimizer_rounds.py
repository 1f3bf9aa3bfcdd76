"""Pruning in rounds: `TermArray.certify` against per-variable derivatives,
the rounds against a one-variable-at-a-time sweep on a robustness run, the
value as the exact sum of the given terms, a complete round that ends the
search, a polynomial that needs a second round, the memory of one
checkpoint, and the vertex-search deadline."""

import gc
import math
import random
import re
import time
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings

import qecbound.driver as driver
from qecbound import RunConfig, build_greedy_decoder, parse_dem
from qecbound.polynomial import (
    NEG,
    POS,
    Hyperrectangle,
    MintermStore,
    SignedTerm,
    TermArray,
    _optimize,
    maximize,
    minimize,
    robustness_bounds,
)

from conftest import kept_order
from test_optimizer_properties import polynomials


def derivative_bounds(terms, var, box):
    """Term-by-term reference: (d_lo, d_hi, sum |low|, sum |high|) of the
    termwise interval of d/dx_var after merging matching terms."""
    merged: dict[tuple, float] = {}
    for t in terms:
        lits = dict(t.literals)
        if var in lits:
            rest = tuple(lit for lit in t.literals if lit[0] != var)
            c = t.coefficient if lits[var] == POS else -t.coefficient
            merged[rest] = merged.get(rest, 0.0) + c
    low, high = [], []
    for rest, c in merged.items():
        p_min = p_max = 1.0
        for v, pol in rest:
            a, b = box.lower[v], box.upper[v]
            p_min *= a if pol == POS else 1.0 - b
            p_max *= b if pol == POS else 1.0 - a
        low.append(c * (p_max if c < 0 else p_min))
        high.append(c * (p_min if c < 0 else p_max))
    return (math.fsum(low), math.fsum(high),
            math.fsum(map(abs, low)), math.fsum(map(abs, high)))


@given(polynomials())
@settings(max_examples=300, deadline=None)
def test_certify_signs_match_per_variable_derivatives(case):
    terms, box, _, _ = case
    arr = TermArray.from_signed(terms, box.n).merged()
    live, lo_sign, hi_sign = arr.certify(np.array(box.lower), np.array(box.upper))
    assert live.tolist() == arr.variables()
    merged_terms = arr.to_signed()
    for var, s_lo, s_hi in zip(live.tolist(), lo_sign, hi_sign):
        d_lo, d_hi, m_lo, m_hi = derivative_bounds(merged_terms, var, box)
        if abs(d_lo) > 1e-9 * m_lo:
            assert s_lo == np.sign(d_lo)
        if abs(d_hi) > 1e-9 * m_hi:
            assert s_hi == np.sign(d_hi)


def test_certify_takes_the_reference_where_the_sign_is_in_doubt():
    # d/dx0 = x1 + 1e-17 x2 - x3 with x1 = x2 = x3 = 1: added in row order
    # the terms give (1 + 1e-17) - 1 = 0, but their exact sum is 1e-17 > 0
    terms = [
        SignedTerm(1.0, ((0, POS), (1, POS))),
        SignedTerm(1e-17, ((0, POS), (2, POS))),
        SignedTerm(-1.0, ((0, POS), (3, POS))),
    ]
    lo, hi = np.array([0.2, 1.0, 1.0, 1.0]), np.array([0.5, 1.0, 1.0, 1.0])
    arr = TermArray.from_signed(terms, 4)
    live, lo_sign, hi_sign = arr.certify(lo, hi)
    assert arr.derivative(0).termwise(lo, hi) == (1e-17, 1e-17)
    assert live.tolist() == [0, 1, 2, 3]
    assert (lo_sign[0], hi_sign[0]) == (1, 1)


# ---------------------------------------------------------------------------
# A robustness run on the bundled 39-channel model
# ---------------------------------------------------------------------------

def seeded_model(seed: int):
    """`scaling_demo.dem` with each rate within a factor e^0.2 of 1e-2."""
    text = (resources.files("qecbound") / "data" / "scaling_demo.dem").read_text()
    rng = random.Random(seed)
    return parse_dem(re.sub(
        r"^error\([^)]*\)",
        lambda _m: f"error({0.01 * math.exp(rng.uniform(-0.2, 0.2)):.6g})",
        text, flags=re.MULTILINE))


def checkpoint_stores(seed: int, monkeypatch):
    """Box x[0.9, 1.1] and, per checkpoint of a 4096-shot robustness run,
    the (L, S minus L) minterm stores handed to `robustness_bounds`."""
    model = seeded_model(seed)
    box = Hyperrectangle.scaled(model.concrete_probabilities(), 0.9, 1.1)
    mid = tuple(0.5 * (a + b) for a, b in zip(box.lower, box.upper))
    calls = []

    def record(l_store, s_store, box, **kwargs):
        calls.append((l_store.terms(), s_store.terms()))
        return robustness_bounds(l_store, s_store, box, **kwargs)

    monkeypatch.setattr(driver, "robustness_bounds", record)
    driver.run_robustness(model, build_greedy_decoder(model, mid), box,
                          RunConfig(mode="robustness", max_shots=4096))
    monkeypatch.undo()
    return box, calls


def sweep_reference(terms: TermArray, box: Hyperrectangle, sense: int, f_max: int):
    """Pruning one variable at a time, each on the terms left by the
    previous one, repeated while it fixes something; then vertex search.
    Returns (vertex, value, terms left)."""
    lo, hi = np.array(box.lower), np.array(box.upper)
    terms = terms.merged()
    fixed = {}
    progress = True
    while progress:
        progress = False
        for i in terms.variables():
            d_lo, d_hi = terms.derivative(i).termwise(lo, hi)
            if d_lo > 0.0:
                choice = box.upper[i] if sense > 0 else box.lower[i]
            elif d_hi < 0.0:
                choice = box.lower[i] if sense > 0 else box.upper[i]
            else:
                continue
            fixed[i] = choice
            terms = terms.substitute({i: choice})
            progress = True
    free = terms.variables()
    assert len(free) <= f_max
    if free:
        vals = terms.vertex_values(lo, hi, free)
        best = int(np.argmax(vals) if sense > 0 else np.argmin(vals))
        value = float(vals[best])
        for j, var in enumerate(free):
            fixed[var] = box.upper[var] if (best >> j) & 1 else box.lower[var]
    else:
        value = float(terms.coef.sum())
    vertex = tuple(fixed.get(i, box.lower[i]) for i in range(box.n))
    return vertex, value, terms


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rounds_replay_the_sequential_sweep(seed, monkeypatch):
    box, calls = checkpoint_stores(seed, monkeypatch)
    assert len(calls) == 13 and len(calls[-1][1]) > 2048  # 1, 2, ..., 4096 shots
    for l_terms, s_terms in calls:
        for terms, sense in ((l_terms, +1), (s_terms, -1)):
            got, rest = _optimize(terms, box, sense, 24)
            vertex, value, ref_rest = sweep_reference(terms, box, sense, 24)
            assert got.exact
            # same fixed variables with the same choices, same witness
            assert rest.variables() == ref_rest.variables()
            assert got.vertex == vertex
            assert math.isclose(got.value, value, rel_tol=1e-12, abs_tol=0.0)
            # the terms left agree row for row
            assert len(rest) == len(ref_rest)
            np.testing.assert_array_equal(rest.pos, ref_rest.pos)
            np.testing.assert_array_equal(rest.neg, ref_rest.neg)
            np.testing.assert_allclose(rest.coef, ref_rest.coef, rtol=1e-12, atol=0.0)


def given_sum(terms: TermArray, vertex) -> float:
    """`math.fsum` of every row's value at the vertex, each its coefficient
    times its factors multiplied in variable order."""
    x = np.array(vertex)
    prod = np.ones(len(terms))
    for i in range(x.size):
        w, b = divmod(i, 64)
        p = (terms.pos[:, w] >> np.uint64(b)) & np.uint64(1) != 0
        q = (terms.neg[:, w] >> np.uint64(b)) & np.uint64(1) != 0
        prod = prod * np.where(p, x[i], np.where(q, 1.0 - x[i], 1.0))
    return math.fsum((terms.coef * prod).tolist())


def check_value(given, rows: TermArray, box: Hyperrectangle, sense: int):
    """`_optimize` on `given`, whose rows are `rows`: the value is their
    exact sum at the vertex, and with no variable left the terms left are
    the constant term."""
    got, rest = _optimize(given, box, sense, 24)
    assert got.value == given_sum(rows, got.vertex)
    if not rest.variables():
        assert rest.coef.tolist() == ([got.value] if got.value else [])
    return got


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_value_is_the_exact_sum_of_the_given_rows(seed, monkeypatch):
    """At every checkpoint, for a store fed as the driver feeds it (its
    running sum), the store's rows as a TermArray and as SignedTerms."""
    box, calls = checkpoint_stores(seed, monkeypatch)
    stores = [MintermStore(box.n), MintermStore(box.n)]
    for checkpoint in calls:
        for store, terms, sense in zip(stores, checkpoint, (+1, -1)):
            store.extend(terms.pos[len(store):])
            for given in (store, terms, terms.to_signed()):
                check_value(given, terms, box, sense)


@given(polynomials())
@settings(max_examples=200, deadline=None)
def test_value_of_a_polynomial_is_the_exact_sum_of_its_terms(case):
    """Repeated terms and matching partners included: the value sums the
    given terms, not the merged ones."""
    terms, box, _, _ = case
    rows = TermArray.from_signed(terms, box.n)
    for sense in (+1, -1):
        check_value(terms, rows, box, sense)
        check_value(rows, rows, box, sense)


def test_store_value_counts_a_repeat_and_restarts_when_the_vertex_moves():
    box = Hyperrectangle((0.1, 0.5, 0.5), (0.4, 0.6, 0.6))
    store = MintermStore(3)
    for mask in (0b000, 0b001, 0b001):
        store.append(mask)
    first = check_value(store, store.terms(), box, +1)
    # (1 - x0) x1 x2 five times turns the sign of the derivative in x0
    for _ in range(5):
        store.append(0b110)
    second = check_value(store, store.terms(), box, +1)
    assert first.vertex != second.vertex
    assert check_value(store, store.terms(), box, +1) == second


def test_no_whole_store_work_is_left(monkeypatch):
    """On the checkpoints of `checkpoint_stores(1)`: a substitution always
    leaves a variable of its rows free, and no round certifies rows
    without variables, since a round that certifies every live variable
    ends the search."""
    fixes_all, constant = [], []
    substitute, certify = TermArray.substitute, TermArray.certify

    def spy_substitute(self, values):
        fixes_all.append(set(values) >= set(self.variables()))
        return substitute(self, values)

    def spy_certify(self, lo, hi):
        constant.append(not self.variables())
        return certify(self, lo, hi)

    monkeypatch.setattr(TermArray, "substitute", spy_substitute)
    monkeypatch.setattr(TermArray, "certify", spy_certify)
    checkpoint_stores(1, monkeypatch)  # the run, then undo
    assert not any(fixes_all)
    assert not any(constant)


def test_second_round_certifies_what_the_first_could_not(monkeypatch):
    # f = x0 x1 - 0.5 (1 - x0) x1.  d/dx0 = 1.5 x1 > 0, but the termwise
    # interval of d/dx1 = x0 - 0.5 (1 - x0) straddles 0 until x0 is fixed.
    terms = [
        SignedTerm(1.0, ((0, POS), (1, POS))),
        SignedTerm(-0.5, ((0, NEG), (1, POS))),
    ]
    box = Hyperrectangle((0.2, 0.1), (0.5, 0.2))
    lo, hi = np.array(box.lower), np.array(box.upper)
    arr = TermArray.from_signed(terms, 2)
    live, lo_sign, hi_sign = arr.certify(lo, hi)
    assert live.tolist() == [0, 1]
    assert (lo_sign.tolist(), hi_sign.tolist()) == ([1, -1], [1, 1])
    live, lo_sign, hi_sign = arr.substitute({0: 0.5}).certify(lo, hi)
    assert live.tolist() == [1] and lo_sign.tolist() == [1]

    rounds = []
    certify = TermArray.certify
    monkeypatch.setattr(TermArray, "certify",
                        lambda self, a, b: rounds.append(len(self)) or certify(self, a, b))
    mx, mn = maximize(terms, box), minimize(terms, box)
    # rows seen per round: round 2 certifies the last variable, which
    # ends the search
    assert rounds == [2, 1, 2, 1]
    assert mx.exact and mx.vertex == (0.5, 0.2) and math.isclose(mx.value, 0.05)
    assert mn.exact and mn.vertex == (0.2, 0.2) and math.isclose(mn.value, -0.04)


# `checkpoint_peak(1)` with the package as it was before pruning in rounds
# (the one-variable sweep) on the import path; Python 3.11.7, numpy 2.4.6.
# The largest `termwise` of a derivative set that peak.
SWEEP_PEAK_BYTES = 1_947_956


def checkpoint_peak(seed: int, monkeypatch) -> int:
    """tracemalloc peak of one `robustness_bounds` call on the stores of
    the last (4096-shot) checkpoint, stores built as the driver builds
    them."""
    box, calls = checkpoint_stores(seed, monkeypatch)
    l_terms, s_terms = calls[-1]
    n = box.n
    stores = []
    for terms in (l_terms, s_terms):
        store = MintermStore(n)
        store.extend(terms.pos)
        stores.append(store)
    gc.collect()
    tracemalloc.start()
    try:
        robustness_bounds(*stores, box)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkpoint_memory_stays_within_the_sweep(monkeypatch):
    assert checkpoint_peak(1, monkeypatch) <= SWEEP_PEAK_BYTES


# ---------------------------------------------------------------------------
# Deadline inside vertex search
# ---------------------------------------------------------------------------

def chain(k: int) -> list[SignedTerm]:
    """sum_i (-1)^i x_i x_{i+1 mod k}: every partial derivative has one
    positive and one negative term, so pruning fixes nothing."""
    return [SignedTerm.make((-1.0) ** i, ((i, POS), ((i + 1) % k, POS))) for i in range(k)]


def chain_extrema(k: int, box: Hyperrectangle) -> tuple[float, float]:
    """Min and max of `chain(k)` over the box, by dynamic programming over
    the cycle (a multilinear polynomial takes both at vertices)."""
    ends = list(zip(box.lower[:k], box.upper[:k]))
    out = []
    for pick in (min, max):
        best = []
        for a0 in ends[0]:
            acc = {a0: 0.0}  # value of x_i -> best sum of the terms so far
            for i in range(1, k):
                acc = {b: pick(s + (-1.0) ** (i - 1) * a * b for a, s in acc.items())
                       for b in ends[i]}
            best.append(pick(s + (-1.0) ** (k - 1) * a * a0 for a, s in acc.items()))
        out.append(pick(best))
    return out[0], out[1]


def test_vertex_search_stops_at_the_deadline():
    k = 22
    box = Hyperrectangle((0.1,) * k, (0.9,) * k)
    lo, hi = np.array(box.lower), np.array(box.upper)
    # one chunk of the 22-variable search is 2^16 vertices over 22 rows;
    # time it on 16 variables and scale by rows x variables
    small = TermArray.from_signed(chain(16), 16)
    t = time.monotonic()
    small.vertex_values(lo[:16], hi[:16], list(range(16)))
    chunk_s = (time.monotonic() - t) * (k * k) / (16 * 16)

    terms = chain(k)
    start = time.monotonic()
    rb = robustness_bounds(terms, terms, box, f_max=24, deadline=start + 0.2)
    elapsed = time.monotonic() - start
    # the chunk running at the deadline finishes; 0.25 s covers pruning
    assert elapsed <= 0.2 + chunk_s + 0.25
    assert not rb.lower_exact and not rb.upper_exact
    f_min, f_max = chain_extrema(k, box)
    assert rb.lower <= f_max + 1e-12
    assert math.isclose(rb.lower, TermArray.from_signed(terms, k).evaluate(rb.witness_vertex))
    assert 1.0 - rb.upper <= f_min + 1e-12


# ---------------------------------------------------------------------------
# Deadline between pruning rounds
# ---------------------------------------------------------------------------

def at_most(a: float, b: float) -> bool:
    """a <= b up to the rounding by which a value at a vertex, summed with
    `math.fsum`, differs from the same value summed by vertex search."""
    return a <= b + 1e-12 * abs(b)


def counting_certify(monkeypatch) -> list[int]:
    """Rows of every `TermArray.certify` call (every round after a store's
    first), appended as they come."""
    rounds = []
    certify = TermArray.certify
    monkeypatch.setattr(TermArray, "certify",
                        lambda self, a, b: rounds.append(len(self)) or certify(self, a, b))
    return rounds


def wide_box_run(seed: int, strategy: str = "hamming", distance: int | None = None):
    """`seeded_model(seed)`, the box x[0.5, 2] around its rates, where later
    checkpoints need rounds after the first, and a function that runs a
    4096-shot robustness run on them (a `split` run on the test order
    `SplitOrder`, installed for that run only; see `kept_order`)."""
    model = seeded_model(seed)
    box = Hyperrectangle.scaled(model.concrete_probabilities(), 0.5, 2.0)
    mid = tuple(0.5 * (a + b) for a, b in zip(box.lower, box.upper))
    decoder = build_greedy_decoder(model, mid)

    def run():
        with pytest.MonkeyPatch.context() as order_patch:
            config = RunConfig(mode="robustness", max_shots=4096,
                               strategy=kept_order(strategy, distance, order_patch))
            return driver.run_robustness(model, decoder, box, config)

    return box, run


def test_no_round_starts_after_the_deadline(monkeypatch):
    """With the deadline already past, a checkpoint's stores get round 1
    (their running sums) and no later round.  At the 512-shot checkpoint
    of the wide box a later round fixes variables, so the result is
    flagged inexact, and its bounds contain the untruncated ones."""
    box, run = wide_box_run(1)
    calls = []

    def record(l_store, s_store, box, **kwargs):
        calls.append((l_store.terms(), s_store.terms()))
        return robustness_bounds(l_store, s_store, box, **kwargs)

    monkeypatch.setattr(driver, "robustness_bounds", record)
    run()
    monkeypatch.undo()
    l_terms, s_terms = calls[9]

    def stores():
        out = []
        for terms in (l_terms, s_terms):
            store = MintermStore(box.n)
            store.extend(terms.pos)
            out.append(store)
        return out

    rounds = counting_certify(monkeypatch)
    full = robustness_bounds(*stores(), box)
    assert rounds == [17]  # one round after the first, on one side
    rounds.clear()
    late = robustness_bounds(*stores(), box, deadline=time.monotonic() - 1.0)
    assert rounds == []
    assert full.lower_exact and full.upper_exact
    assert not (late.lower_exact and late.upper_exact)
    assert at_most(late.lower, full.lower) and at_most(full.upper, late.upper)
    assert math.isclose(late.lower, l_terms.evaluate(late.witness_vertex), rel_tol=1e-12)
    # terms given as SignedTerm lists: round 1 is one certify per side
    signed = [terms.to_signed() for terms in (l_terms, s_terms)]
    late_signed = robustness_bounds(*signed, box, deadline=time.monotonic() - 1.0)
    assert rounds == [len(l_terms), len(s_terms)]
    assert late_signed == late


@pytest.mark.parametrize("strategy,distance", [("hamming", None), ("split", 3),
                                               ("local-flip", None)])
def test_records_past_the_deadline_are_sound(strategy, distance, monkeypatch):
    """A 4096-shot robustness run on the wide box whose every checkpoint is
    optimized past its deadline: no checkpoint runs a round after the
    first, each bound contains the untruncated one at the same checkpoint,
    and a side stays exact only where round 1 fixed every variable (then
    it equals the untruncated side).  The records are sound: each
    contains the record of the untruncated run."""
    box, run = wide_box_run(2, strategy, distance)
    rounds = counting_certify(monkeypatch)
    inexact = []

    def late_and_full(l_store, s_store, box, **kwargs):
        rounds.clear()
        late = robustness_bounds(l_store, s_store, box,
                                 **{**kwargs, "deadline": time.monotonic() - 1.0})
        assert rounds == []
        full = robustness_bounds(l_store, s_store, box, **kwargs)
        assert at_most(late.lower, full.lower) and at_most(full.upper, late.upper)
        assert not late.lower_exact or late.lower == full.lower
        assert not late.upper_exact or late.upper == full.upper
        inexact.append(not (late.lower_exact and late.upper_exact))
        return late

    monkeypatch.setattr(driver, "robustness_bounds", late_and_full)
    trace = run()
    monkeypatch.undo()
    full = run()
    assert len(inexact) == 13 and sum(inexact) >= 3
    for rec, ref in zip(trace.sound_records, full.sound_records, strict=True):
        assert rec.shots == ref.shots
        assert at_most(rec.lower, ref.lower) and at_most(ref.upper, rec.upper)
