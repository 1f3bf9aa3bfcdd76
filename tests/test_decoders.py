"""Built-in decoders and the external subprocess protocol."""

import io
import select
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qecbound.decoders as decoders
from qecbound.compiler import DetectorErrorModel, compile_to_dem, parse_dem, write_dem
from qecbound.decoders import (
    GreedyDecoder,
    MlDecoder,
    ProtocolError,
    SyndromeCache,
    build_greedy_decoder,
    build_ml_decoder,
    connect_external_decoder,
    serve,
)
from qecbound.errorspace import (
    ints_of,
    key_words,
    n_words,
    observable_of,
    row_keys,
    syndrome_of,
    words_of,
)
from qecbound.frontend import parse_program
from qecbound.polynomial import MintermEvaluator

from conftest import exact_rate, random_model
from reference import reference_ml_table


@pytest.fixture
def repetition_model(repetition_program_text):
    return compile_to_dem(parse_program(repetition_program_text))


def test_ml_logical_error_set(repetition_model):
    """The ML decoder misclassifies exactly the weight >= 2 bitstrings."""
    model = repetition_model
    dec = build_ml_decoder(model, model.concrete_probabilities())
    logical = {
        e
        for e in range(8)
        if dec.decode(syndrome_of(model, e)) != observable_of(model, e)
    }
    assert logical == {0b111, 0b011, 0b101, 0b110}


def test_ml_decoder_is_optimal_on_random_models():
    """No decoder beats ML: compare against every possible response for
    each syndrome via per-syndrome class masses."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_channels=6, n_det=3, n_obs=1)
        v = model.concrete_probabilities()
        dec = build_ml_decoder(model, v)
        ev = MintermEvaluator(v)
        mass: dict[int, dict[int, float]] = {}
        for e in range(1 << model.n_channels):
            s = syndrome_of(model, e)
            o = observable_of(model, e)
            mass.setdefault(s, {})[o] = mass.setdefault(s, {}).get(o, 0.0) + ev(e)
        for s, classes in mass.items():
            best = max(classes.values())
            assert classes[dec.decode(s)] >= best - 1e-15


def test_ml_tie_breaks_to_zero():
    # two channels with identical probability and the same syndrome but
    # different observables: prefer the all-zeros class
    from qecbound.compiler import DetectorErrorModel

    model = DetectorErrorModel(
        n_channels=2,
        n_detectors=1,
        n_observables=1,
        probabilities=(0.1, 0.1),
        det_footprints=(1, 1),
        obs_footprints=(1, 0),
    )
    dec = build_ml_decoder(model, (0.1, 0.1))
    assert dec.decode(1) == 0


def test_ml_channel_cap():
    rng = np.random.default_rng(0)
    model = random_model(rng, n_channels=30, n_det=4)
    with pytest.raises(ValueError):
        build_ml_decoder(model, model.concrete_probabilities())


def test_ml_unseen_syndrome_decodes_to_zero(repetition_model):
    dec = build_ml_decoder(repetition_model, (0.01,) * 3)
    assert dec.decode(0b11111) == 0


def test_greedy_decodes_single_errors(repetition_model):
    dec = build_greedy_decoder(repetition_model)
    for e in (0b001, 0b010, 0b100):
        assert dec.decode(syndrome_of(repetition_model, e)) == observable_of(
            repetition_model, e
        )


def test_greedy_gives_up_on_uncoverable_syndrome():
    from qecbound.compiler import DetectorErrorModel

    model = DetectorErrorModel(
        n_channels=1,
        n_detectors=2,
        n_observables=1,
        probabilities=(0.1,),
        det_footprints=(0b11,),
        obs_footprints=(1,),
    )
    dec = GreedyDecoder(model)
    # syndrome 0b01 cannot be improved: footprint covers 1, misses 1
    assert dec.decode(0b01) == 0


def test_greedy_prefers_higher_probability():
    from qecbound.compiler import DetectorErrorModel

    model = DetectorErrorModel(
        n_channels=2,
        n_detectors=1,
        n_observables=1,
        probabilities=(0.01, 0.2),
        det_footprints=(1, 1),
        obs_footprints=(1, 0),
    )
    dec = GreedyDecoder(model)
    assert dec.decode(1) == 0  # channel 1 has higher probability


def test_decode_batch_matches_single(repetition_model):
    dec = build_ml_decoder(repetition_model, (0.01,) * 3)
    syndromes = [syndrome_of(repetition_model, e) for e in range(8)]
    assert dec.decode_batch(syndromes) == [dec.decode(s) for s in syndromes]


def _serve_command(dem_path: str) -> str:
    return f"{sys.executable} -m qecbound.cli serve-ml {dem_path}"


def test_external_decoder_round_trip(repetition_model, tmp_path):
    dem_path = tmp_path / "model.dem"
    dem_path.write_text(write_dem(repetition_model))
    local = build_ml_decoder(repetition_model, (0.01,) * 3)
    remote = connect_external_decoder(
        _serve_command(dem_path), repetition_model.n_detectors, repetition_model.n_observables
    )
    try:
        syndromes = [syndrome_of(repetition_model, e) for e in range(8)]
        assert remote.decode_batch(syndromes) == local.decode_batch(syndromes)
        assert remote.decode(0b11) == local.decode(0b11)
    finally:
        remote.close()


def test_external_decoder_dimension_mismatch(repetition_model, tmp_path):
    dem_path = tmp_path / "model.dem"
    dem_path.write_text(write_dem(repetition_model))
    with pytest.raises(ProtocolError):
        dec = connect_external_decoder(_serve_command(dem_path), 7, 1)
        try:
            dec.decode(0)
        finally:
            dec.close()


def test_external_close_closes_both_pipes(repetition_model, tmp_path):
    dem_path = tmp_path / "model.dem"
    dem_path.write_text(write_dem(repetition_model))
    remote = connect_external_decoder(
        _serve_command(dem_path), repetition_model.n_detectors, repetition_model.n_observables
    )
    remote.decode(0b11)
    remote.close()
    assert remote._proc.returncode is not None
    assert remote._proc.stdin.closed and remote._proc.stdout.closed


def test_failed_handshake_reaps_the_child(repetition_model, tmp_path, monkeypatch):
    import subprocess

    spawned = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spawned.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    dem_path = tmp_path / "model.dem"
    dem_path.write_text(write_dem(repetition_model))
    with pytest.raises(ProtocolError):
        connect_external_decoder(_serve_command(dem_path), 7, 1)
    [child] = spawned
    assert child.returncode is not None  # exited and reaped
    assert child.stdin.closed and child.stdout.closed


def test_exact_rate_oracle_consistency(repetition_model):
    dec = build_ml_decoder(repetition_model, (0.01,) * 3)
    rate = exact_rate(repetition_model, dec, (0.01,) * 3)
    assert abs(rate - (3 * 0.01**2 * 0.99 + 0.01**3)) < 1e-15


def _footprint_model(rng, n, n_det, n_obs, rates):
    """Channels drawn from a few footprints and rates, so scores and masses tie."""
    from qecbound.compiler import DetectorErrorModel

    pool = [sum(1 << int(d) for d in rng.choice(n_det, int(rng.integers(1, 4)), replace=False))
            for _ in range(max(2, n // 2))]
    return DetectorErrorModel(
        n_channels=n,
        n_detectors=n_det,
        n_observables=n_obs,
        probabilities=tuple(float(rng.choice(rates)) for _ in range(n)),
        det_footprints=tuple(pool[int(rng.integers(len(pool)))] for _ in range(n)),
        obs_footprints=tuple(int(rng.integers(0, 1 << n_obs)) for _ in range(n)),
    )


@pytest.mark.parametrize("n_det", [5, 64, 70, 130])
def test_greedy_decode_batch_matches_decode(n_det):
    rng = np.random.default_rng(n_det)
    model = _footprint_model(rng, 24, n_det, 2, [0.01, 0.02])
    dec = GreedyDecoder(model)
    syndromes = [0, (1 << n_det) - 1]
    syndromes += [sum(1 << int(d) for d in np.flatnonzero(rng.random(n_det) < q))
                  for q in (0.05, 0.2, 0.5) for _ in range(100)]
    syndromes += [syndrome_of(model, int(e)) for e in rng.integers(0, 1 << 24, size=100)]
    assert dec.decode_batch(syndromes) == [dec.decode(s) for s in syndromes]
    assert dec.decode_batch([]) == []


def _brute_force_ml_table(model, v):
    """The ML table by a plain loop over all 2^n bitstrings."""
    ev = MintermEvaluator(v)
    mass = {}
    for e in range(1 << model.n_channels):
        key = (syndrome_of(model, e), observable_of(model, e))
        mass[key] = mass.get(key, 0.0) + ev(e)
    table = {}
    for (s, o), m in mass.items():
        rank = (-m, o != 0, [o >> i & 1 for i in range(model.n_observables)])
        if s not in table or rank < table[s][0]:
            table[s] = (rank, o)
    return {s: o for s, (_, o) in table.items()}


@pytest.mark.parametrize("seed", range(6))
def test_ml_table_matches_brute_force(seed, monkeypatch):
    import qecbound.decoders as decoders

    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    model = _footprint_model(rng, n, int(rng.choice([3, 6, 70])), int(rng.integers(1, 4)),
                             [0.05, 0.1, 0.3])
    v = model.concrete_probabilities()
    expect = _brute_force_ml_table(model, v)
    assert build_ml_decoder(model, v).table == expect
    monkeypatch.setattr(decoders, "ML_CHUNK", 8)  # several chunks
    assert build_ml_decoder(model, v).table == expect


@pytest.mark.parametrize("seed, n, n_det", [(0, 12, 6), (1, 14, 70), (2, 16, 6),
                                           (3, 18, 70), (4, 20, 6), (5, 20, 70)])
def test_ml_table_matches_the_chunked_reference(seed, n, n_det, monkeypatch):
    """The doubling build equals the chunk-by-chunk reference, ties
    included, on tied models with one and two detector words, for low
    tables of 2, 8 and the default number of strings (the small ones only
    where they give at most 2^15 chunks)."""
    import qecbound.decoders as decoders

    rng = np.random.default_rng(seed)
    model = _footprint_model(rng, n, n_det, int(rng.integers(1, 4)), [0.05, 0.1, 0.3])
    v = model.concrete_probabilities()
    expect = reference_ml_table(model, v)
    for chunk in (2, 8, decoders.ML_CHUNK):
        if (1 << n) // chunk <= 1 << 15:
            monkeypatch.setattr(decoders, "ML_CHUNK", chunk)
            assert build_ml_decoder(model, v).table == expect


def test_ml_table_at_the_channel_cap():
    """Eight independent 3-channel chains (`D_a L0`, `D_a D_b`, `D_b`) give
    24 channels.  Each chain's most likely explanation flips L0 only for
    its syndrome (1, 0), so the ML prediction is the parity of the number
    of chains showing (1, 0), for every one of the 2^16 syndromes."""
    rng = np.random.default_rng(24)
    det, obs = [], []
    for a in range(0, 16, 2):
        det += [1 << a, 1 << a | 1 << a + 1, 1 << a + 1]
        obs += [1, 0, 0]
    model = DetectorErrorModel(
        n_channels=24,
        n_detectors=16,
        n_observables=1,
        probabilities=tuple(float(0.01 * np.exp(x)) for x in rng.uniform(-0.2, 0.2, 24)),
        det_footprints=tuple(det),
        obs_footprints=tuple(obs),
    )
    dec = build_ml_decoder(model, model.concrete_probabilities())
    assert len(dec.table) == 1 << 16
    for s in range(1 << 16):
        ones = sum((s >> a & 3) == 1 for a in range(0, 16, 2))
        assert dec.decode(s) == ones % 2, s


def test_serve_reads_the_whole_batch_before_it_answers(tmp_path):
    """A 300-detector model's 1024-syndrome batch is about 300 KB, and the
    client writes all of it before it reads.  Replies sent line by line
    (about 100 KB) would fill the reply pipe and stall the server, and
    with it the client.  The batch runs in a thread, so a stall fails the
    test instead of hanging it."""
    text = "dem 300 100\nerror(0.01) D0 L0\nerror(0.01) D0 D299\nerror(0.01) D299 L99\n"
    dem_path = tmp_path / "model.dem"
    dem_path.write_text(text)
    model = parse_dem(text)
    local = build_ml_decoder(model, model.concrete_probabilities())
    rng = np.random.default_rng(300)
    syndromes = [int.from_bytes(rng.bytes(38), "little") >> 4 for _ in range(1024)]
    syndromes[:4] = [0, 1, 1 | 1 << 299, 1 << 299]
    remote = connect_external_decoder(_serve_command(dem_path), 300, 100)
    got = []
    worker = threading.Thread(target=lambda: got.append(remote.decode_batch(syndromes)),
                              daemon=True)
    try:
        worker.start()
        worker.join(timeout=30)
        if worker.is_alive():
            remote._proc.kill()
            pytest.fail("decode_batch did not return within 30 s")
        assert got == [local.decode_batch(syndromes)]
    finally:
        remote.close()


def test_decode_batch_reads_replies_of_a_decoder_that_answers_line_by_line(tmp_path):
    """A decoder that writes each reply as it reads its syndrome fills the
    reply pipe while the client is still writing the chunk, unless the
    chunk's replies fit in the pipe.  At 100 observables a chunk holds at
    most PIPE_BUF // 101 syndromes.  The batch runs in a thread, so a
    stall fails the test instead of hanging it."""
    stub = tmp_path / "stub.py"
    stub.write_text(
        "import sys\n"
        "sys.stdin.readline()\n"
        "print('READY', flush=True)\n"
        "for line in sys.stdin:\n"
        "    if not line.startswith('DECODE'):\n"
        "        break\n"
        "    for _ in range(int(line.split()[1])):\n"
        "        print(sys.stdin.readline()[:100], flush=True)\n"
    )
    rng = np.random.default_rng(300)
    syndromes = [int.from_bytes(rng.bytes(38), "little") >> 4 for _ in range(1024)]
    remote = connect_external_decoder(f"{sys.executable} {stub}", 300, 100)
    got = []
    worker = threading.Thread(target=lambda: got.append(remote.decode_batch(syndromes)),
                              daemon=True)
    try:
        worker.start()
        worker.join(timeout=10)
        if worker.is_alive():
            remote._proc.kill()
            pytest.fail("decode_batch did not return within 10 s")
        # the stub echoes each syndrome's first 100 detector bits
        assert got == [[s & ((1 << 100) - 1) for s in syndromes]]
    finally:
        remote.close()


def test_external_decode_batch_sends_one_payload_per_chunk(repetition_model, tmp_path, monkeypatch):
    import qecbound.decoders as decoders

    dem_path = tmp_path / "model.dem"
    dem_path.write_text(write_dem(repetition_model))
    remote = connect_external_decoder(
        _serve_command(dem_path), repetition_model.n_detectors, repetition_model.n_observables
    )
    sent = []
    send = decoders.ExternalDecoder._send
    monkeypatch.setattr(decoders.ExternalDecoder, "_send",
                        lambda self, text: sent.append(text) or send(self, text))
    try:
        # one observable: a chunk holds PIPE_BUF // 2 = 2048 syndromes on Linux
        step = select.PIPE_BUF // 2
        syndromes = [syndrome_of(repetition_model, e % 8) for e in range(2 * step + 4)]
        local = build_ml_decoder(repetition_model, (0.01,) * 3)
        assert remote.decode_batch(syndromes) == local.decode_batch(syndromes)
        assert [t.splitlines()[0] for t in sent] == [f"DECODE {step}", f"DECODE {step}",
                                                     "DECODE 4"]
    finally:
        remote.close()


def test_external_close_kills_a_child_that_ignores_quit(tmp_path, monkeypatch):
    import time

    import qecbound.decoders as decoders

    stub = tmp_path / "stub.py"
    stub.write_text(
        "import sys, time\n"
        "sys.stdin.readline()\n"
        "print('READY', flush=True)\n"
        "time.sleep(60)\n"
    )
    monkeypatch.setattr(decoders, "CLOSE_TIMEOUT", 0.2)
    dec = connect_external_decoder(f"{sys.executable} {stub}", 2, 1)
    t0 = time.monotonic()
    dec.close()
    assert time.monotonic() - t0 < 30
    assert dec._proc.returncode is not None  # killed and reaped


@pytest.mark.parametrize("text, bad", [
    ("INIT 2 1\n\n", "\n"),
    ("INIT 2 1\nDECODE\n", "DECODE\n"),
    ("INIT 2 1\nDECODE x\n", "DECODE x\n"),
    ("INIT 2 1\nDECODE -1\n", "DECODE -1\n"),
    ("INIT two 1\nDECODE 1\n00\n", "INIT two 1\n"),
])
def test_serve_rejects_malformed_lines(text, bad):
    out = io.StringIO()
    with pytest.raises(ProtocolError) as info:
        serve(MlDecoder(2, 1, {}), io.StringIO(text), out)
    assert repr(bad) in str(info.value)


@st.composite
def _greedy_cases(draw):
    """A model with tied rates and footprints (some empty), and a batch
    with duplicates, 0, all-ones, channel syndromes and random masks."""
    n_det = draw(st.one_of(st.integers(1, 3), st.sampled_from([64, 65]), st.integers(1, 130)))
    full = (1 << n_det) - 1
    masks = st.integers(0, full)
    pool = draw(st.lists(masks, min_size=1, max_size=5))
    n = draw(st.integers(0, 80))
    det = draw(st.lists(st.one_of(st.sampled_from([0, *pool]), masks), min_size=n, max_size=n))
    model = DetectorErrorModel(
        n_channels=n,
        n_detectors=n_det,
        n_observables=2,
        probabilities=tuple(draw(st.lists(st.sampled_from([0.01, 0.02, 0.1]),
                                          min_size=n, max_size=n))),
        det_footprints=tuple(det),
        obs_footprints=tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))),
    )
    batch = [0, full, *draw(st.lists(masks, max_size=30))]
    batch += [1 << int(d) for d in draw(st.lists(st.integers(0, n_det - 1), max_size=5))]
    if n:
        errors = st.lists(st.integers(0, n - 1), min_size=1, max_size=4)
        batch += [syndrome_of(model, sum(1 << i for i in set(e)))
                  for e in draw(st.lists(errors, max_size=30))]
    batch += draw(st.lists(st.sampled_from(batch), max_size=20))
    return model, draw(st.permutations(batch))


@given(_greedy_cases())
@settings(max_examples=100, deadline=None)
def test_greedy_decode_batch_is_decode_on_random_models(case):
    model, batch = case
    dec = GreedyDecoder(model)
    assert dec.decode_batch(batch) == [dec.decode(s) for s in batch]


def _add_to_cache(cache: SyndromeCache, dec: GreedyDecoder, syndromes) -> None:
    """Add the syndromes the cache does not hold, with dec's predictions,
    as a classifier adds a block's new syndromes."""
    words = words_of(syndromes, n_words(dec.n_det))
    keys, first = np.unique(row_keys(words), return_index=True)
    at, hit = cache.find(keys)
    pred = words_of(dec.decode_batch(ints_of(words[first][~hit])), n_words(dec.n_obs))
    cache.add(at[~hit], keys[~hit], row_keys(pred))


@given(_greedy_cases(), st.data())
@settings(max_examples=100, deadline=None)
def test_greedy_decode_batch_with_a_cache_is_decode_on_random_models(case, data):
    """The batch cut into parts: each part's decode_batch, which reads the
    residuals the parts before it put in the cache, is decode() row for
    row.  Under a small `CACHE_CAP` the cache stops growing, and the
    entries it holds are still read."""
    model, batch = case
    cap = data.draw(st.sampled_from([decoders.CACHE_CAP, 1, 4]))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(batch)), max_size=3)))
    dec = GreedyDecoder(model)
    cache = SyndromeCache(n_words(model.n_detectors), n_words(model.n_observables))
    dec.use_cache(cache)
    with mock.patch.object(decoders, "CACHE_CAP", cap):
        for a, b in zip([0, *cuts], [*cuts, len(batch)]):
            part = batch[a:b]
            assert dec.decode_batch(part) == [dec.decode(s) for s in part]
            held = len(cache)
            _add_to_cache(cache, dec, part)
            assert len(cache) == (held if held >= cap else len(set(batch[:b])))
    held = ints_of(key_words(cache.keys, n_words(model.n_detectors)))
    assert ints_of(key_words(cache.pred, n_words(model.n_observables))) == [
        dec.decode(s) for s in held]


def test_greedy_decode_batch_takes_the_residual_from_the_cache():
    """decode(0b111) peels channel 0 and then decodes the residual 0b100;
    with that residual in the cache, decode_batch reads it instead.  A
    cache entry that is not decode()'s shows that it was read."""
    model = parse_dem("dem 3 2\nerror(0.1) D0 D1 L0\nerror(0.1) D2 L1\n")
    dec = GreedyDecoder(model)
    assert dec.decode(0b111) == 0b11 and dec.decode(0b100) == 0b10
    cache = SyndromeCache(1, 1)
    keys = np.array([0b100], dtype=np.uint64)
    cache.add(cache.find(keys)[0], keys, np.array([0b10], dtype=np.uint64))
    dec.use_cache(cache)
    assert dec.decode_batch([0b111, 0b011]) == [0b11, 0b01]
    cache.pred[0] = 0
    assert dec.decode_batch([0b111, 0b011]) == [0b01, 0b01]


@pytest.mark.parametrize("chunk_rows", [None, 7])
def test_greedy_decode_batch_across_score_chunks(chunk_rows, monkeypatch):
    """A cell bound of 1 scores one row at a time; one of 7 rows' cells
    leaves a part-filled last chunk in every round."""
    import qecbound.decoders as decoders

    rng = np.random.default_rng(7)
    model = _footprint_model(rng, 30, 70, 2, [0.01, 0.02])
    dec = GreedyDecoder(model)
    cells = 1 if chunk_rows is None else chunk_rows * dec._live.size
    monkeypatch.setattr(decoders, "GREEDY_CELLS", cells)
    syndromes = [syndrome_of(model, int(e)) for e in rng.integers(0, 1 << 30, size=300)]
    syndromes += [sum(1 << int(d) for d in np.flatnonzero(rng.random(70) < 0.1))
                  for _ in range(100)]
    assert len(set(syndromes)) % 7
    assert dec.decode_batch(syndromes) == [dec.decode(s) for s in syndromes]


@pytest.mark.parametrize("table_bytes", [None, 0])
@pytest.mark.parametrize("chunk_rows", [None, 7])
@pytest.mark.parametrize("n_det", [1, 7, 8, 9, 63, 64, 65, 130])
def test_greedy_decode_batch_at_byte_edges(n_det, chunk_rows, table_bytes, monkeypatch):
    """The score table cuts syndromes into bytes, the last one partial
    unless 8 divides n_det.  Footprints and syndromes lie across byte and
    word edges and in the last byte alone.  A cell bound of 1 scores one
    row at a time, one of 7 rows leaves a part-filled last chunk, and a
    table cap of 0 counts the scores from the words instead."""
    if table_bytes is not None:
        monkeypatch.setattr(decoders, "GREEDY_TABLE_BYTES", table_bytes)
    rng = np.random.default_rng(n_det)
    last = range(8 * ((n_det - 1) // 8), n_det)  # the last byte's detectors
    pool = [sum(1 << int(d) for d in rng.choice(n_det, int(rng.integers(1, min(4, n_det + 1))),
                                                replace=False)) for _ in range(8)]
    pool += [sum(1 << d for d in last if rng.random() < 0.6) or 1 << last[-1] for _ in range(4)]
    pool += [1 << d | 1 << last[0] for d in (7, 8, 63, 64) if d < n_det]
    n = 24
    model = DetectorErrorModel(
        n_channels=n, n_detectors=n_det, n_observables=2,
        probabilities=tuple(float(rng.choice([0.01, 0.02])) for _ in range(n)),
        det_footprints=tuple(pool[int(rng.integers(len(pool)))] for _ in range(n)),
        obs_footprints=tuple(int(rng.integers(0, 4)) for _ in range(n)))
    dec = GreedyDecoder(model)
    assert (dec._table is None) == (table_bytes == 0)
    cells = 1 if chunk_rows is None else chunk_rows * dec._live.size
    monkeypatch.setattr(decoders, "GREEDY_CELLS", cells)
    syndromes = [0, (1 << n_det) - 1]
    syndromes += [sum(1 << d for d in last if rng.random() < 0.5) for _ in range(40)]
    syndromes += [sum(1 << int(d) for d in np.flatnonzero(rng.random(n_det) < q))
                  for q in (0.1, 0.5) for _ in range(40)]
    syndromes += [syndrome_of(model, int(e)) for e in rng.integers(0, 1 << n, size=100)]
    assert dec.decode_batch(syndromes) == [dec.decode(s) for s in syndromes]


def test_greedy_decode_batch_on_a_circuit_model():
    """The d = 5 repetition-memory circuit (695 channels): syndromes of
    weight-2 and weight-3 errors."""
    from test_compiler import repetition_memory_text

    model = compile_to_dem(parse_program(repetition_memory_text(5)))
    assert model.n_channels == 695
    rng = np.random.default_rng(5)
    syndromes = [syndrome_of(model, sum(1 << int(i) for i in
                                        rng.choice(model.n_channels, w, replace=False)))
                 for w in (2, 3) for _ in range(150)]
    dec = GreedyDecoder(model)
    assert dec.decode_batch(syndromes) == [dec.decode(s) for s in syndromes]
