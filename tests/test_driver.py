"""End-to-end runs: soundness under interruption, worker independence,
strategy equivalence, trace plumbing."""

import io
import json
import math

import numpy as np
import pytest

from qecbound.compiler import compile_to_dem, parse_dem
from qecbound.decoders import Decoder, build_greedy_decoder, build_ml_decoder
from qecbound.driver import (
    BoundsTrace,
    RunConfig,
    TraceRecord,
    convergence_shots,
    emit_trace,
    run_accuracy,
    run_robustness,
)
from qecbound.frontend import parse_program
from qecbound.polynomial import Hyperrectangle

from conftest import exact_rate, random_model


class ZeroDecoder(Decoder):
    kind = "zero"

    def __init__(self, n_det, n_obs):
        self.n_det, self.n_obs = n_det, n_obs

    def decode(self, syndrome):
        return 0


@pytest.fixture
def repetition_model(repetition_program_text):
    return compile_to_dem(parse_program(repetition_program_text))


def test_exhaustive_accuracy_fig_model(repetition_model):
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    trace = run_accuracy(repetition_model, dec, v, RunConfig())
    assert trace.final["exhausted"]
    assert trace.final["shots"] == 8
    expect = 3 * 0.01**2 * 0.99 + 0.01**3
    assert abs(trace.final["lower"] - expect) < 1e-12
    assert abs(trace.final["upper"] - expect) < 1e-12


def test_partial_enumeration_upper_bound(repetition_model):
    """After weights 0-1 (4 shots) the upper bound is one minus the four
    enumerated minterms."""
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    trace = run_accuracy(repetition_model, dec, v, RunConfig(max_shots=4))
    rec = trace.sound_records[-1]
    mass = 0.99**3 + 3 * 0.01 * 0.99**2
    assert rec.lower == 0.0
    assert abs(rec.upper - (1.0 - mass)) < 1e-9


def test_always_zero_decoder_rate(repetition_model):
    """Predicting 0 everywhere fails exactly on the observable-1 rows."""
    v = repetition_model.concrete_probabilities()
    dec = ZeroDecoder(repetition_model.n_detectors, repetition_model.n_observables)
    trace = run_accuracy(repetition_model, dec, v, RunConfig())
    expect = 0.01 * 0.99**2 + 2 * 0.01**2 * 0.99 + 0.01**3
    assert abs(trace.final["lower"] - expect) < 1e-12
    assert abs(trace.final["upper"] - expect) < 1e-12


def test_sound_records_bracket_exact_rate_and_are_monotone(repetition_model):
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    exact = exact_rate(repetition_model, dec, v)
    trace = run_accuracy(repetition_model, dec, v, RunConfig())
    prev_lo, prev_hi = -1.0, 2.0
    for rec in trace.sound_records:
        assert rec.lower <= exact <= rec.upper
        assert rec.lower >= prev_lo
        assert rec.upper <= prev_hi
        prev_lo, prev_hi = rec.lower, rec.upper


@pytest.mark.parametrize("strategy,distance", [
    ("hamming", None),
    ("split", 3),
    ("local-flip", None),
    ("local-shift", None),
    ("local-both", None),
])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_strategies_and_workers_agree_at_exhaustion(strategy, distance, workers):
    rng = np.random.default_rng(5)
    model = random_model(rng, n_channels=9, n_det=4)
    v = model.concrete_probabilities()
    dec = build_ml_decoder(model, v)
    exact = exact_rate(model, dec, v)
    config = RunConfig(strategy=strategy, worker_count=workers, distance_ansatz=distance)
    trace = run_accuracy(model, dec, v, config)
    assert trace.final["exhausted"]
    assert trace.final["shots"] == 1 << model.n_channels
    assert math.isclose(trace.final["lower"], exact, rel_tol=1e-12, abs_tol=1e-12)
    assert abs(trace.final["upper"] - exact) < 1e-9
    for rec in trace.sound_records:
        assert rec.lower - 1e-15 <= exact <= rec.upper + 1e-15


def test_max_shots_interruption_is_sound():
    rng = np.random.default_rng(11)
    model = random_model(rng, n_channels=10, n_det=4)
    v = model.concrete_probabilities()
    dec = build_greedy_decoder(model)
    exact = exact_rate(model, dec, v)
    for max_shots in (1, 7, 64, 500):
        trace = run_accuracy(model, dec, v, RunConfig(max_shots=max_shots))
        assert not trace.final["exhausted"]
        for rec in trace.sound_records:
            assert rec.lower <= exact <= rec.upper


def test_shot_accounting_counts_detours_once():
    rng = np.random.default_rng(3)
    model = random_model(rng, n_channels=8, n_det=4)
    v = model.concrete_probabilities()
    dec = build_greedy_decoder(model)
    trace = run_accuracy(model, dec, v, RunConfig(strategy="local-both"))
    assert trace.final["shots"] == 1 << model.n_channels


def test_sampling_records_nest_in_sound_records(repetition_model):
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    trace = run_accuracy(
        repetition_model, dec, v, RunConfig(sample_count=200, max_shots=4, seed=7)
    )
    probabilistic = [r for r in trace.records if not r.sound]
    assert probabilistic
    for rec in probabilistic:
        idx = trace.records.index(rec)
        sound = trace.records[idx - 1]
        assert sound.sound
        assert sound.lower <= rec.lower + 1e-15
        assert rec.upper <= sound.upper + 1e-15
        assert rec.alpha == 0.01


def test_sampling_shots_counted(repetition_model):
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    trace = run_accuracy(
        repetition_model, dec, v, RunConfig(sample_count=50, max_shots=2, seed=1)
    )
    # enumerated shots plus 50 samples at each of the checkpoints
    n_prob = sum(1 for r in trace.records if not r.sound)
    assert trace.final["shots"] == 2 + 50 * n_prob


def test_replay_reproduces_probabilistic_records(repetition_model):
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    config = RunConfig(sample_count=100, max_shots=4, seed=123)
    t1 = run_accuracy(repetition_model, dec, v, config)
    t2 = run_accuracy(repetition_model, dec, v, config)
    r1 = [(r.shots, r.lower, r.upper) for r in t1.records if not r.sound]
    r2 = [(r.shots, r.lower, r.upper) for r in t2.records if not r.sound]
    assert r1 == r2


def test_robustness_exhaustion_oracle(repetition_model):
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    box = Hyperrectangle((0.009,) * 3, (0.011,) * 3)
    trace = run_robustness(repetition_model, dec, box, RunConfig(mode="robustness"))
    expect = 3 * 0.011**2 * 0.989 + 0.011**3
    assert trace.final["exhausted"]
    assert abs(trace.final["lower"] - expect) < 1e-12
    assert abs(trace.final["upper"] - expect) < 1e-12
    assert trace.final["witness_vertex"] == [0.011, 0.011, 0.011]
    assert trace.final["exact"] == [True, True]


def test_robustness_degenerate_box_equals_accuracy(repetition_model):
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    box = Hyperrectangle(v, v)
    rtrace = run_robustness(repetition_model, dec, box, RunConfig(mode="robustness"))
    atrace = run_accuracy(repetition_model, dec, v, RunConfig())
    assert abs(rtrace.final["lower"] - atrace.final["lower"]) < 1e-12
    assert abs(rtrace.final["upper"] - atrace.final["upper"]) < 1e-12


def test_robustness_sound_under_interruption():
    rng = np.random.default_rng(21)
    model = random_model(rng, n_channels=8, n_det=3)
    v = model.concrete_probabilities()
    dec = build_greedy_decoder(model)
    box = Hyperrectangle.scaled(v, 0.8, 1.2)
    # brute-force worst case over vertices using the exact-rate oracle
    worst = 0.0
    for corner in range(1 << model.n_channels):
        point = [
            box.upper[i] if corner >> i & 1 else box.lower[i]
            for i in range(model.n_channels)
        ]
        worst = max(worst, exact_rate(model, dec, point))
    for max_shots in (4, 32, 200):
        trace = run_robustness(
            model, dec, box, RunConfig(mode="robustness", max_shots=max_shots)
        )
        for rec in trace.sound_records:
            assert rec.lower <= worst + 1e-12
            assert rec.upper >= worst - 1e-12


def test_robustness_term_cap_freezes_upper(repetition_model):
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    box = Hyperrectangle((0.009,) * 3, (0.011,) * 3)
    trace = run_robustness(
        repetition_model, dec, box, RunConfig(mode="robustness", term_cap=2)
    )
    assert trace.final["upper_frozen"]
    expect = 3 * 0.011**2 * 0.989 + 0.011**3
    # lower still converges; upper stays a sound over-estimate
    assert abs(trace.final["lower"] - expect) < 1e-9
    assert trace.final["upper"] >= expect


def test_final_checkpoint_not_repeated(repetition_model):
    """A run that stops right after a geometric checkpoint (max_shots a
    power of two, or exhaustion at 8 = 2^3 shots) records it once."""
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    box = Hyperrectangle((0.009,) * 3, (0.011,) * 3)
    traces = [
        run_accuracy(repetition_model, dec, v, RunConfig()),
        run_accuracy(repetition_model, dec, v, RunConfig(max_shots=4)),
        run_robustness(repetition_model, dec, box, RunConfig(mode="robustness")),
        run_robustness(repetition_model, dec, box, RunConfig(mode="robustness", max_shots=4)),
    ]
    for trace in traces:
        shots = [r.shots for r in trace.sound_records]
        assert all(a < b for a, b in zip(shots, shots[1:])), shots
        assert shots[-1] == trace.final["shots"]

    # Hybrid: each enumeration checkpoint yields at most one probabilistic
    # record, so the enumerated count strictly increases across sound records.
    trace = run_accuracy(
        repetition_model, dec, v, RunConfig(sample_count=200, max_shots=4, seed=7)
    )
    enumerated = []
    sampled = 0
    for i, rec in enumerate(trace.records):
        if rec.sound:
            enumerated.append(rec.shots - sampled)
        else:
            assert trace.records[i - 1].sound
            sampled = rec.shots - enumerated[-1]
    assert enumerated == [1, 2, 4]
    assert all(a < b for a, b in zip(enumerated, enumerated[1:]))


def test_truncated_vertex_search_upper_is_sound():
    """Two channels with footprint D0 L0, a decoder that always predicts 0,
    box [0,1]^2 and no vertex search: the worst case is 1.0 at x = (1, 0)."""
    model = parse_dem("dem 1 1\nerror(0.1) D0 L0\nerror(0.1) D0 L0\n")
    dec = ZeroDecoder(model.n_detectors, model.n_observables)
    box = Hyperrectangle((0.0, 0.0), (1.0, 1.0))
    trace = run_robustness(model, dec, box, RunConfig(mode="robustness", f_max=0))
    assert trace.final["exhausted"]
    for rec in trace.sound_records:
        assert rec.lower <= 1.0 <= rec.upper
    assert trace.final["upper"] >= 1.0
    assert trace.final["exact"] == [False, False]


def _chain_dem(rates) -> str:
    """Repetition chains of 3 sharing observable L0: D_a L0, D_a D_b, D_b."""
    lines = [f"dem {2 * len(rates) // 3} 1"]
    for c in range(len(rates) // 3):
        a, b = 2 * c, 2 * c + 1
        for row, p in zip((f"D{a} L0", f"D{a} D{b}", f"D{b}"), rates[3 * c:3 * c + 3]):
            lines.append(f"error({p!r}) {row}")
    return "\n".join(lines) + "\n"


def _block_rate(model, decoder, rates) -> float:
    """Exact rate of a decoder that factors over independent 3-channel
    blocks: each block fails with q_b (its syndrome decoded alone), and the
    model fails when an odd number of blocks fail."""
    prod = 1.0
    for c in range(model.n_channels // 3):
        q = 0.0
        for m in range(8):
            p, syn, obs = 1.0, 0, 0
            for j in range(3):
                ch = 3 * c + j
                if m >> j & 1:
                    p *= rates[ch]
                    syn ^= model.det_footprints[ch]
                    obs ^= model.obs_footprints[ch]
                else:
                    p *= 1.0 - rates[ch]
            if decoder.decode(syn) != obs:
                q += p
        prod *= 1.0 - 2.0 * q
    return (1.0 - prod) / 2.0


def test_robustness_beyond_64_channels():
    """66 channels need two words per term; every sound record brackets the
    worst case between P_L(witness) and P_L(all-upper)."""
    rng = np.random.default_rng(17)
    rates = [float(p) for p in 0.01 * np.exp(rng.uniform(-0.2, 0.2, size=66))]
    model = parse_dem(_chain_dem(rates))
    assert model.n_channels == 66
    box = Hyperrectangle.scaled(rates, 0.9, 1.1)
    mid = tuple(0.5 * (lo + hi) for lo, hi in zip(box.lower, box.upper))
    dec = build_greedy_decoder(model, mid)
    trace = run_robustness(model, dec, box, RunConfig(mode="robustness", max_shots=1024))
    witness = trace.final["witness_vertex"]
    p_witness = _block_rate(model, dec, witness)
    p_upper = _block_rate(model, dec, box.upper)
    assert trace.sound_records[-1].lower > 0.0
    for rec in trace.sound_records:
        assert rec.lower <= p_witness
        assert rec.upper >= p_upper


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(mode="bogus")
    with pytest.raises(ValueError):
        RunConfig(mode="robustness", sample_count=10)


def test_emit_trace_format(repetition_model):
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    trace = run_accuracy(repetition_model, dec, v, RunConfig())
    sink = io.StringIO()
    emit_trace(trace, sink)
    lines = sink.getvalue().strip().splitlines()
    header = json.loads(lines[0])["header"]
    assert header["n_channels"] == 3
    assert header["n_detectors"] == 2
    assert header["seed"] == 0
    assert "model_digest" in header and "config" in header
    for line in lines[1:-1]:
        rec = json.loads(line)
        assert {"shots", "lower", "upper", "sound", "elapsed_s"} <= set(rec)
    final = json.loads(lines[-1])["final"]
    assert final["exhausted"] is True


def test_convergence_shots():
    trace = BoundsTrace(header={})
    trace.records = [
        TraceRecord(1, 0.0, 1.0, True, 0.0),
        TraceRecord(2, 0.001, 0.5, True, 0.0),
        TraceRecord(4, 0.01, 0.02, True, 0.0),
    ]
    assert convergence_shots(trace, math.sqrt(10)) == 4
    assert convergence_shots(trace, 1000.0) == 2
    assert convergence_shots(trace, 2.5) == 4
    trace.records = [TraceRecord(1, 0.0, 1.0, True, 0.0)]
    assert convergence_shots(trace, 10.0) is None
    with pytest.raises(ValueError):
        convergence_shots(trace, 1.0)
