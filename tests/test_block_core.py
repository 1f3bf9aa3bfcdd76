"""The batched enumeration core against a per-shot reference.

The reference below visits one bitstring at a time: one cursor per run of
the weight order, taken in turn (a `split` case runs the driver on the
test order `reference.SplitOrder`, see `conftest.kept_order`), a FIFO of
`local-flip` detours, a
`ReferenceVisitedSet` fed by `add` (membership by rank, one string at a
time, not the library's rule; the tail sampler asks it through its
`contains_rows`, with a fresh `TailSampler` at each checkpoint), the
scalar syndrome/observable functions and `decode`.  A run is exhausted
once it has visited all 2^n strings.  Every record the driver
makes must equal the reference's bit for bit.
"""

from collections import deque

import numpy as np
import pytest

from qecbound.compiler import DetectorErrorModel, parse_dem
from qecbound.decoders import Decoder, GreedyDecoder, build_greedy_decoder
from qecbound.driver import RunConfig, run_accuracy, run_robustness
from qecbound.errorspace import ints_of, observable_of, syndrome_of, unrank_position
from qecbound.polynomial import (
    FP_MARGIN,
    BoundAccumulators,
    Hyperrectangle,
    MintermEvaluator,
    MintermStore,
    accuracy_bounds,
    robustness_bounds,
)
from qecbound.sampling import (
    RejectionGuardExceeded,
    TailSampler,
    kl_confidence_interval,
    probabilistic_bounds,
    sample_unseen_batch,
)

from conftest import kept_case, kept_order, random_model
from test_optimizer_rounds import seeded_model
from reference import ReferenceVisitedSet, accumulate, local_moves_flip, run_cursors

STRATEGIES = [
    ("hamming", None),
    ("split", 3),
    ("local-flip", None),
    ("local-both", None),  # runs local-flip on other models: see kept_case
]

# More split inputs: the low run reaches the high start before the high
# run takes anything (d = 0), the high run is empty (d = 2n+2, so that
# d//2+1 > n), and, with 3-row blocks, runs end inside a block.  Each
# order runs on several random models (the `variant` of `_model`); the
# library's orders also run with 3-row blocks, where a hold spans a
# partly read block.
SPLIT_DISTANCES = [0, 1, 3, 5, "2n+2"]
ORDER_CASES = [
    pytest.param(strategy, distance, variant, None, id=f"{strategy}-{distance}-{variant}")
    for strategy, distance in STRATEGIES for variant in (1, 2, 3, 4)
] + [
    pytest.param("split", distance, variant, rows,
                 id=f"split-{distance}-{variant}" + (f"-rows{rows}" if rows else ""))
    for distance in SPLIT_DISTANCES
    for variant, rows in [(k, None) for k in range(1, 7)] + [(5, 3)]
    if not (distance == 3 and variant <= 4 and rows is None)
] + [
    pytest.param(strategy, None, 5, 3, id=f"{strategy}-None-5-rows3")
    for strategy in ("hamming", "local-flip")
]


class ZeroDecoder(Decoder):
    kind = "zero"

    def __init__(self, n_det, n_obs):
        self.n_det, self.n_obs = n_det, n_obs

    def decode(self, syndrome):
        return 0


class CountingDecoder(Decoder):
    """Greedy decoder that counts its batch calls and syndromes."""

    kind = "counting"

    def __init__(self, model):
        self.inner = build_greedy_decoder(model)
        self.n_det, self.n_obs = self.inner.n_det, self.inner.n_obs
        self.calls = self.syndromes = 0

    def decode(self, syndrome):
        return self.decode_batch([syndrome])[0]

    def decode_batch(self, syndromes):
        syndromes = list(syndromes)
        self.calls += 1
        self.syndromes += len(syndromes)
        return self.inner.decode_batch(syndromes)


class _ReferenceOrder:
    """Per-shot visit order: run cursors in turn plus the detour FIFO."""

    def __init__(self, config, n, distance):
        self.cursors = run_cursors(n, distance)
        self.walks = config.strategy == "local-flip"
        self.n = n
        self.visited = ReferenceVisitedSet(n)
        self.pending = deque()
        self.turn = 0

    def next(self):
        while self.pending:
            e = self.pending.popleft()
            if e not in self.visited:
                return e, False
        while any(not c.exhausted for c in self.cursors):
            for _ in range(len(self.cursors)):
                cursor = self.cursors[self.turn]
                self.turn = (self.turn + 1) % len(self.cursors)
                if cursor.exhausted:
                    continue
                e = cursor.next()
                if e not in self.visited:
                    return e, True
        return None

    def push_neighbors(self, mask):
        self.pending.extend(sorted(local_moves_flip(mask, self.n)))


def _reference_walk(model, decoder, config, distance, visit, checkpoint):
    """Visit strings one by one; checkpoint at 1, 2, 4, ... and at the end.
    `distance` places the high run of a `SplitOrder` (None: the weight
    order).  Returns the shots and whether all 2^n strings were visited."""
    order = _ReferenceOrder(config, model.n_channels, distance)
    size = 1 << model.n_channels
    stop = size if config.max_shots is None else min(size, config.max_shots)
    shots, cp_shots, next_cp = 0, None, 1
    while shots < stop:
        e, planned = order.next()
        order.visited.add(e)
        is_log = decoder.decode(syndrome_of(model, e)) != observable_of(model, e)
        visit(e, is_log)
        if is_log and planned and order.walks:
            order.push_neighbors(e)
        shots += 1
        if shots == next_cp:
            checkpoint(shots, order.visited)
            cp_shots, next_cp = shots, next_cp * 2
    if shots != cp_shots:
        checkpoint(shots, order.visited)
    return shots, shots == size


def reference_accuracy(model, decoder, v, config, distance=None):
    evaluator = MintermEvaluator(v)
    acc = BoundAccumulators()
    rng = np.random.default_rng(config.seed)
    records = []
    sampled = 0
    best = [0.0, 1.0]

    def checkpoint(shots, visited):
        nonlocal sampled
        lo, hi = accuracy_bounds(acc)
        best[0] = max(best[0], max(0.0, lo - FP_MARGIN))
        best[1] = min(best[1], min(1.0, hi + FP_MARGIN))
        records.append((shots + sampled, best[0], best[1], True))
        if config.sample_count and shots < 1 << model.n_channels:
            try:
                samples = ints_of(sample_unseen_batch(TailSampler(v), visited, rng,
                                                      config.sample_count))
            except RejectionGuardExceeded:
                return
            hits = sum(decoder.decode(syndrome_of(model, e)) != observable_of(model, e)
                       for e in samples)
            sampled += len(samples)
            ci = kl_confidence_interval(hits / len(samples), len(samples), config.alpha)
            plo, phi, _ = probabilistic_bounds(acc, ci)
            records.append((shots + sampled, plo, phi, False))

    shots, exhausted = _reference_walk(
        model, decoder, config, distance, lambda e, is_log: accumulate(acc, e, is_log, evaluator),
        checkpoint)
    lo, hi = accuracy_bounds(acc)
    final = (shots + sampled, exhausted) + ((lo, lo) if exhausted else tuple(best))
    return records, final


def reference_robustness(model, decoder, box, config, distance=None):
    n = model.n_channels
    l_store, s_store = MintermStore(n), MintermStore(n)
    records = []

    def visit(e, is_log):
        (l_store if is_log else s_store).append(e)

    def checkpoint(shots, visited):
        rb = robustness_bounds(l_store, s_store, box, f_max=config.f_max)
        records.append((shots, max(0.0, rb.lower - FP_MARGIN), min(1.0, rb.upper + FP_MARGIN),
                        rb.lower_exact, rb.upper_exact))

    _reference_walk(model, decoder, config, distance, visit, checkpoint)
    return records


def reference_robustness_final(model, decoder, box, config, distance=None):
    """The final summary from the per-checkpoint `robustness_bounds` of the
    per-shot walk.  Correctly decoded strings past the term cap are
    dropped; once any were, the upper side gets None and so stays at its
    last sound value."""
    n = model.n_channels
    l_store, s_store = MintermStore(n), MintermStore(n)
    best = [0.0, 1.0]
    dropped, witness, rb = False, None, None

    def visit(e, is_log):
        nonlocal dropped
        if is_log:
            l_store.append(e)
        elif len(s_store) < config.term_cap:
            s_store.append(e)
        else:
            dropped = True

    def checkpoint(shots, visited):
        nonlocal witness, rb
        rb = robustness_bounds(l_store, None if dropped else s_store, box, f_max=config.f_max)
        lo = max(0.0, rb.lower - FP_MARGIN)
        if lo >= best[0]:
            best[0], witness = lo, rb.witness_vertex
        best[1] = min(best[1], min(1.0, rb.upper + FP_MARGIN))

    shots, exhausted = _reference_walk(model, decoder, config, distance, visit, checkpoint)
    exact = exhausted and rb.lower_exact and rb.upper_exact
    return {
        "shots": shots,
        "exhausted": exhausted,
        "lower": rb.lower if exact else best[0],
        "upper": rb.lower if exact else best[1],
        "witness_vertex": None if witness is None else list(witness),
        "exact": [rb.lower_exact, rb.upper_exact],
        "upper_frozen": dropped,
    }


def _strip(trace):
    return [(r.shots, r.lower, r.upper, r.sound) for r in trace.records]


def _final(trace):
    f = trace.final
    return f["shots"], f["exhausted"], f["lower"], f["upper"]


def _model(n, variant=1):
    rng = np.random.default_rng(1000 * variant + n)
    if n <= 64:
        return random_model(rng, n_channels=n, n_det=4, n_obs=2)
    # more than 64 detectors and channels: two-word syndromes and masks
    n_det = 70
    return DetectorErrorModel(
        n_channels=n,
        n_detectors=n_det,
        n_observables=2,
        probabilities=tuple(float(p) for p in rng.uniform(0.005, 0.2, size=n)),
        det_footprints=tuple(sum(1 << int(d) for d in rng.choice(n_det, 3, replace=False))
                             for _ in range(n)),
        obs_footprints=tuple(int(o) for o in rng.integers(0, 4, size=n)),
    )


@pytest.mark.parametrize("n,max_shots", [(7, None), (9, None), (66, 700)])
@pytest.mark.parametrize("decoder_kind", ["zero", "greedy"])
@pytest.mark.parametrize("strategy,distance,variant,block_rows", ORDER_CASES)
def test_accuracy_records_match_per_shot_reference(strategy, distance, variant, block_rows,
                                                   decoder_kind, n, max_shots, monkeypatch):
    import qecbound.driver as driver

    if distance == "2n+2":
        distance = 2 * n + 2
    if block_rows is not None:
        monkeypatch.setattr(driver, "BLOCK_ROWS", block_rows)
    strategy, variant = kept_case(strategy, variant)
    strategy = kept_order(strategy, distance, monkeypatch)
    model = _model(n, variant)
    v = model.concrete_probabilities()
    if decoder_kind == "zero":
        dec = ZeroDecoder(model.n_detectors, model.n_observables)
    else:
        dec = build_greedy_decoder(model)
    config = RunConfig(strategy=strategy, max_shots=max_shots)
    trace = run_accuracy(model, dec, v, config)
    records, final = reference_accuracy(model, dec, v, config, distance)
    assert _strip(trace) == records
    assert _final(trace) == final


# With 3-row blocks a hold spans a partly read block, also while detours
# are pending.
@pytest.mark.parametrize("n,block_rows", [
    pytest.param(n, rows, id=f"{n}" + (f"-rows{rows}" if rows else ""))
    for rows in (None, 3) for n in (7, 66)])
@pytest.mark.parametrize("variant", [1, 3])
@pytest.mark.parametrize("strategy,distance", STRATEGIES)
def test_hybrid_records_match_per_shot_reference(strategy, distance, variant, n, block_rows,
                                                 monkeypatch):
    import qecbound.driver as driver

    if block_rows is not None:
        monkeypatch.setattr(driver, "BLOCK_ROWS", block_rows)
    strategy, variant = kept_case(strategy, variant)
    strategy = kept_order(strategy, distance, monkeypatch)
    model = _model(n, variant)
    v = model.concrete_probabilities()
    dec = build_greedy_decoder(model)
    config = RunConfig(strategy=strategy, max_shots=40, sample_count=60, seed=5)
    trace = run_accuracy(model, dec, v, config)
    records, final = reference_accuracy(model, dec, v, config, distance)
    assert any(not r[3] for r in records)
    assert _strip(trace) == records
    assert _final(trace) == final


@pytest.mark.parametrize("n,max_shots,block_rows", [
    pytest.param(n, shots, rows, id=f"{n}-{shots}" + (f"-rows{rows}" if rows else ""))
    for rows in (None, 3) for n, shots in ((7, None), (66, 96))])
@pytest.mark.parametrize("variant", [1, 3])
@pytest.mark.parametrize("strategy,distance", STRATEGIES)
def test_robustness_records_match_per_shot_reference(strategy, distance, variant,
                                                     n, max_shots, block_rows, monkeypatch):
    import qecbound.driver as driver

    if block_rows is not None:
        monkeypatch.setattr(driver, "BLOCK_ROWS", block_rows)
    strategy, variant = kept_case(strategy, variant)
    strategy = kept_order(strategy, distance, monkeypatch)
    model = _model(n, variant)
    v = model.concrete_probabilities()
    dec = build_greedy_decoder(model)
    box = Hyperrectangle.scaled(v, 0.9, 1.1)
    config = RunConfig(mode="robustness", strategy=strategy, max_shots=max_shots, f_max=8)
    trace = run_robustness(model, dec, box, config)
    expect = reference_robustness(model, dec, box, config, distance)
    # the driver's records keep the best bounds so far
    lo, hi, got = 0.0, 1.0, []
    for shots, r_lo, r_hi, lo_exact, hi_exact in expect:
        lo, hi = max(lo, r_lo), min(hi, r_hi)
        got.append((shots, lo, hi, lo_exact, hi_exact))
    assert [(r.shots, r.lower, r.upper, r.lower_exact, r.upper_exact)
            for r in trace.records] == got


# Rates scaled by 1e-12 keep every lower bound under the floating-point
# margin, so each checkpoint ties with the sound lower bound 0 and the
# witness is the vertex of the last one.
@pytest.mark.parametrize("n,max_shots,term_cap,scale", [
    (7, None, None, 1.0), (66, 96, None, 1.0), (7, None, 20, 1.0), (66, 96, 40, 1.0),
    (7, None, None, 1e-12)])
@pytest.mark.parametrize("variant", [1, 3])
@pytest.mark.parametrize("strategy,distance", STRATEGIES)
def test_robustness_final_matches_per_shot_reference(strategy, distance, variant,
                                                     n, max_shots, term_cap, scale,
                                                     monkeypatch):
    strategy, variant = kept_case(strategy, variant)
    strategy = kept_order(strategy, distance, monkeypatch)
    model = _model(n, variant)
    model = model.with_probabilities([p * scale for p in model.concrete_probabilities()])
    v = model.concrete_probabilities()
    dec = build_greedy_decoder(model)
    box = Hyperrectangle.scaled(v, 0.9, 1.1)
    cap = {} if term_cap is None else {"term_cap": term_cap}
    config = RunConfig(mode="robustness", strategy=strategy, max_shots=max_shots, f_max=8,
                       **cap)
    final = run_robustness(model, dec, box, config).final
    assert final == reference_robustness_final(model, dec, box, config, distance)
    assert final["upper_frozen"] == (term_cap is not None)


def test_back_to_back_runs_repeat_decoder_calls():
    model = _model(9)
    v = model.concrete_probabilities()
    counts = []
    for _ in range(2):
        dec = CountingDecoder(model)
        for config in (RunConfig(max_shots=300), RunConfig(strategy="local-flip")):
            run_accuracy(model, dec, v, config)
        counts.append((dec.calls, dec.syndromes))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0


def test_repeated_runs_on_one_decoder_repeat_calls():
    """The syndrome cache belongs to the run, not to the decoder."""
    model = _model(9)
    v = model.concrete_probabilities()
    dec = CountingDecoder(model)
    seen = []
    for _ in range(2):
        before = (dec.calls, dec.syndromes)
        run_accuracy(model, dec, v, RunConfig(max_shots=300))
        seen.append((dec.calls - before[0], dec.syndromes - before[1]))
    assert seen[0] == seen[1]


class ForwardingDecoder:
    """Forwards `decode_batch(syndromes)` and lends every other attribute
    from the decoder it wraps, as a tracing proxy does."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def decode_batch(self, syndromes):
        syndromes = list(syndromes)
        self.batches.append(syndromes)
        return self.inner.decode_batch(syndromes)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _greedy_batches(monkeypatch) -> list:
    """The syndrome lists `GreedyDecoder.decode_batch` is called with,
    from now on."""
    batches = []
    decode_batch = GreedyDecoder.decode_batch

    def spy(self, syndromes):
        batches.append(list(syndromes))
        return decode_batch(self, syndromes)

    monkeypatch.setattr(GreedyDecoder, "decode_batch", spy)
    return batches


@pytest.mark.parametrize("n,shots", [(9, None), (39, 4096), (70, 2048)])
def test_a_forwarding_decoder_gives_the_same_records_and_calls(n, shots, monkeypatch):
    """A wrapper that forwards only `decode_batch` still hands the run's
    cache to the greedy decoder inside it, through `__getattr__`."""
    model = seeded_model(1) if n == 39 else _model(n)
    v = model.concrete_probabilities()
    config = RunConfig(max_shots=shots)
    batches = _greedy_batches(monkeypatch)
    bare = build_greedy_decoder(model)
    records = _strip(run_accuracy(model, bare, v, config))
    bare_batches = batches[:]
    del batches[:]
    inner = build_greedy_decoder(model)
    wrapped = ForwardingDecoder(inner)
    assert _strip(run_accuracy(model, wrapped, v, config)) == records
    assert wrapped.batches == batches == bare_batches
    assert len(inner._cache) == len(bare._cache) > 0


def test_each_run_hands_the_decoder_a_fresh_cache(monkeypatch):
    """Two identical runs on one decoder: each starts from an empty cache
    of its own and makes the same calls."""
    model = seeded_model(1)
    v = model.concrete_probabilities()
    batches = _greedy_batches(monkeypatch)
    handed = []
    use_cache = GreedyDecoder.use_cache

    def spy(self, cache):
        handed.append((cache, len(cache)))
        use_cache(self, cache)

    monkeypatch.setattr(GreedyDecoder, "use_cache", spy)
    dec = build_greedy_decoder(model)
    calls = []
    for _ in range(2):
        run_accuracy(model, dec, v, RunConfig(max_shots=4096))
        calls.append(batches[:])
        del batches[:]
    assert calls[0] == calls[1]
    (first, first_len), (second, second_len) = handed
    assert first is not second and first_len == second_len == 0
    assert dec._cache is second and len(second) == len(first) > 0


def test_blocks_are_evaluated_ahead_of_the_checkpoints(monkeypatch):
    """A `hamming` run evaluates whole blocks ahead of its checkpoints: 4096
    shots make one decode call per block of `BLOCK_ROWS` strings, not one
    per checkpoint, and a 5-shot run one call with the syndromes of just
    the 5 strings it visits."""
    model = seeded_model(1)
    v = model.concrete_probabilities()
    dec = CountingDecoder(model)
    run_accuracy(model, dec, v, RunConfig(max_shots=4096))
    assert (dec.calls, dec.syndromes) == (2, 3668)
    batches = _greedy_batches(monkeypatch)
    run_accuracy(model, CountingDecoder(model), v, RunConfig(max_shots=5))
    assert batches == [sorted({syndrome_of(model, unrank_position(p, model.n_channels))
                               for p in range(5)})]


def test_walk_reads_whole_blocks(monkeypatch):
    """The `local-flip` walk refills by the rule `hamming` uses: whole
    blocks of `BLOCK_ROWS` strings, whatever the next checkpoint, so 4096
    shots make one decode call per block plus the calls for new detour
    syndromes, and a 5-shot run one call with the syndromes of the first
    5 strings of the weight order."""
    model = seeded_model(1)
    v = model.concrete_probabilities()
    dec = CountingDecoder(model)
    run_accuracy(model, dec, v, RunConfig(strategy="local-flip", max_shots=4096))
    assert (dec.calls, dec.syndromes) == (4, 2640)
    batches = _greedy_batches(monkeypatch)
    run_accuracy(model, CountingDecoder(model), v,
                 RunConfig(strategy="local-flip", max_shots=5))
    assert batches == [sorted({syndrome_of(model, unrank_position(p, model.n_channels))
                               for p in range(5)})]


def test_full_cache_decodes_again_with_same_records(monkeypatch):
    """A cache that stops growing makes the decoder see syndromes again,
    with the same records.  Whole-block reads fit every string of the
    model in one call, so the capped run takes 8-row blocks to reach the
    cap."""
    import qecbound.decoders as decoders
    import qecbound.driver as driver

    model = _model(9)
    v = model.concrete_probabilities()
    config = RunConfig(strategy="local-flip")
    dec = CountingDecoder(model)
    full = _strip(run_accuracy(model, dec, v, config))
    monkeypatch.setattr(decoders, "CACHE_CAP", 4)
    monkeypatch.setattr(driver, "BLOCK_ROWS", 8)
    capped = CountingDecoder(model)
    assert _strip(run_accuracy(model, capped, v, config)) == full
    assert capped.syndromes > dec.syndromes


def test_block_rows_cap_and_checkpoints(monkeypatch, detours):
    """Small blocks give the same records as the default cap, also while
    the walk makes detours."""
    import qecbound.driver as driver

    model = _model(9)
    v = model.concrete_probabilities()
    dec = build_greedy_decoder(model)
    config = RunConfig(strategy="local-flip")
    full = _strip(run_accuracy(model, dec, v, config))
    assert detours
    monkeypatch.setattr(driver, "BLOCK_ROWS", 3)
    assert _strip(run_accuracy(model, dec, v, config)) == full


def test_zero_channel_model():
    model = parse_dem("dem 1 1\n")
    dec = ZeroDecoder(model.n_detectors, model.n_observables)
    trace = run_accuracy(model, dec, (), RunConfig())
    assert trace.final == {"shots": 1, "exhausted": True, "lower": 0.0, "upper": 0.0}


def test_time_limit_stops_within_a_block():
    text = "dem 2 1\n" + "".join(f"error(0.01) D{i % 2} L0\n" for i in range(30))
    model = parse_dem(text)
    v = model.concrete_probabilities()
    dec = build_greedy_decoder(model)
    trace = run_accuracy(model, dec, v, RunConfig(time_limit=0.0))
    assert not trace.final["exhausted"]
    assert trace.final["shots"] <= 1
