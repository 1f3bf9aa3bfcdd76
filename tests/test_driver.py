"""End-to-end runs: soundness under interruption, strategy equivalence,
trace plumbing."""

import io
import itertools
import json
import math
import time
from fractions import Fraction
from importlib import resources

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

from conftest import exact_rate, kept_case, kept_order, random_model


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
    ("local-both", None),
])
# The name and the leading id (1, 2, 4) predate the removal of worker
# counts and are kept so the case ids stay stable; the id now picks the
# random model.  The `local-both` ids are kept the same way (see kept_case),
# and a `split` case runs the test order `SplitOrder` (see kept_order).
@pytest.mark.parametrize("variant", [1, 2, 4])
def test_strategies_and_workers_agree_at_exhaustion(strategy, distance, variant, monkeypatch):
    strategy, variant = kept_case(strategy, variant)
    strategy = kept_order(strategy, distance, monkeypatch)
    rng = np.random.default_rng(4 + variant)
    model = random_model(rng, n_channels=9, n_det=4)
    v = model.concrete_probabilities()
    dec = build_ml_decoder(model, v)
    exact = exact_rate(model, dec, v)
    trace = run_accuracy(model, dec, v, RunConfig(strategy=strategy))
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


def test_shot_accounting_counts_detours_once(detours):
    rng = np.random.default_rng(3)
    model = random_model(rng, n_channels=8, n_det=4)
    v = model.concrete_probabilities()
    dec = build_greedy_decoder(model)
    trace = run_accuracy(model, dec, v, RunConfig(strategy="local-flip"))
    assert detours
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


def test_tail_sampler_stops_at_the_time_limit():
    """The tail sampler draws no batch past the time limit: two million
    samples per checkpoint at a 0.05 s limit end within about a second,
    with every probabilistic record nested in the sound one before it."""
    model = parse_dem((resources.files("qecbound") / "data" / "scaling_demo.dem").read_text())
    v = model.concrete_probabilities()
    dec = build_greedy_decoder(model, v)
    t0 = time.monotonic()
    trace = run_accuracy(model, dec, v, RunConfig(time_limit=0.05, sample_count=2_000_000))
    assert time.monotonic() - t0 < 1.0
    assert not trace.final["exhausted"]
    assert trace.records[0].sound
    for prev, rec in zip(trace.records, trace.records[1:]):
        if not rec.sound:
            assert prev.sound and prev.lower <= rec.lower and rec.upper <= prev.upper
            assert prev.shots < rec.shots < prev.shots + 2_000_000
    assert trace.final["shots"] == trace.records[-1].shots


def test_sampling_stops_at_a_tail_of_mass_0(monkeypatch):
    """Three channels, the middle one at rate 0: after 7 of the 8 strings the
    only unvisited one holds it, so the tail weight >= 3 has mass 0 and the
    sampler stops at once instead of drawing toward the rejection guard.
    Every probabilistic record nests in the sound record before it."""
    import qecbound.sampling as sampling

    drawn = []
    draw = sampling.TailSampler.draw
    monkeypatch.setattr(sampling.TailSampler, "draw",
                        lambda self, c, rng, count: drawn.append(count) or draw(self, c, rng, count))
    model = parse_dem("dem 2 1\nerror(0.01) D0 L0\nerror(0) D0 D1\nerror(0.02) D1\n")
    v = model.concrete_probabilities()
    trace = run_accuracy(model, build_greedy_decoder(model, v), v,
                         RunConfig(sample_count=10, max_shots=7, seed=1))
    assert sum(drawn) < 1000
    assert [r.shots for r in trace.records if r.sound][-1] == 7 + 30  # 3 sampled checkpoints
    assert trace.records[-1].sound and not trace.final["exhausted"]
    for prev, rec in zip(trace.records, trace.records[1:]):
        if not rec.sound:
            assert prev.sound and prev.lower <= rec.lower and rec.upper <= prev.upper


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


def test_low_noise_hybrid_samples_the_unexplored_tail(repetition_program_text):
    """At p = 1e-4 the unexplored space after weights 0 and 1 holds about
    3e-8 of the mass; sampling it still gives a probabilistic record."""
    p = 1e-4
    model = compile_to_dem(parse_program(repetition_program_text.replace("0.01", repr(p))))
    v = model.concrete_probabilities()
    dec = build_ml_decoder(model, v)
    trace = run_accuracy(model, dec, v, RunConfig(sample_count=200, max_shots=4, seed=1))
    # checkpoints at 1, 2 and 4 enumerated shots; the last is the 4-shot one
    sound = [i for i, r in enumerate(trace.records) if r.sound]
    assert len(sound) == 3
    idx = sound[-1]
    assert idx + 1 < len(trace.records)
    rec = trace.records[idx + 1]
    assert not rec.sound
    exact = 3 * p**2 * (1 - p) + p**3
    # every unexplored string is a logical error, so the upper end is the
    # unexplored mass 1 - sum_S, rounded; criterion 8 allows the same slack
    assert rec.lower - 1e-15 <= exact <= rec.upper + 1e-15
    assert rec.lower > 0.9 * exact
    assert trace.records[idx].lower <= rec.lower and rec.upper <= trace.records[idx].upper


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


def _exact_logical_rate(model, decoder, v) -> Fraction:
    from qecbound.errorspace import observable_of, syndrome_of

    total = Fraction(0)
    for e in range(1 << model.n_channels):
        if decoder.decode(syndrome_of(model, e)) != observable_of(model, e):
            term = Fraction(1)
            for i, p in enumerate(v):
                term *= Fraction(p) if e >> i & 1 else 1 - Fraction(p)
            total += term
    return total


@pytest.mark.parametrize("p", [1e-3, 1e-5, 1e-7, 1e-9])
def test_exhausted_finals_give_one_exact_value(repetition_program_text, p):
    """An exhausted run's final summary is one value on both sides, within
    1 ulp of the exact rational rate, also where 1 - (sum_S - sum_L)
    keeps too few digits to give it."""
    model = compile_to_dem(parse_program(repetition_program_text.replace("0.01", repr(p))))
    v = model.concrete_probabilities()
    dec = build_ml_decoder(model, v)
    final = run_accuracy(model, dec, v, RunConfig()).final
    assert final["exhausted"] and final["lower"] == final["upper"]
    exact = _exact_logical_rate(model, dec, v)
    assert abs(Fraction(final["lower"]) - exact) <= math.ulp(float(exact))

    box = Hyperrectangle.scaled(v, 0.9, 1.1)
    final = run_robustness(model, dec, box, RunConfig(mode="robustness")).final
    assert final["exhausted"] and final["exact"] == [True, True]
    assert final["lower"] == final["upper"]
    worst = max(_exact_logical_rate(model, dec, vertex)
                for vertex in itertools.product(*zip(box.lower, box.upper)))
    assert abs(Fraction(final["lower"]) - worst) <= math.ulp(float(worst))


@pytest.mark.parametrize("strategy,distance", [("hamming", None), ("split", 1),
                                               ("local-flip", None)])
def test_run_stopped_at_two_to_the_n_shots_is_exhausted(strategy, distance, monkeypatch):
    """A run stopped by `max_shots` = 2^n has visited every string: its
    final is exhausted and gives the exact rate on both sides, as a run
    with no shot limit does, in both modes."""
    strategy = kept_order(strategy, distance, monkeypatch)
    model = parse_dem("dem 2 1\nerror(0.1) D0 L0\nerror(0.1) D0 D1\nerror(0.1) D1\n")
    v = model.concrete_probabilities()
    dec = build_ml_decoder(model, v)
    plan = {"strategy": strategy}
    final = run_accuracy(model, dec, v, RunConfig(max_shots=8, **plan)).final
    assert final["shots"] == 8 and final["exhausted"]
    unlimited = run_accuracy(model, dec, v, RunConfig(**plan)).final
    assert final["lower"] == final["upper"] == unlimited["lower"]
    # Each minterm is a product of n = 3 rounded factors.
    exact = _exact_logical_rate(model, dec, v)
    assert abs(Fraction(final["lower"]) - exact) <= 4 * math.ulp(float(exact))

    box = Hyperrectangle.scaled(v, 0.9, 1.1)
    final = run_robustness(model, dec, box, RunConfig(mode="robustness", max_shots=8, **plan)).final
    assert final["shots"] == 8 and final["exhausted"] and final["exact"] == [True, True]
    unlimited = run_robustness(model, dec, box, RunConfig(mode="robustness", **plan)).final
    assert final["lower"] == final["upper"] == unlimited["lower"]


def _order_case_model(case):
    """A seeded random model, or a 3-channel model at p = 0.1, whose sum
    in visit order differs between `hamming` and `local-flip`."""
    if case == "three-channel":
        model = parse_dem("dem 2 1\nerror(0.1) D0 L0\nerror(0.1) D0 D1\nerror(0.1) D1\n")
        return model, build_ml_decoder(model, model.concrete_probabilities())
    rng = np.random.default_rng(100 + case)
    model = random_model(rng, n_channels=int(rng.integers(3, 9)), n_det=int(rng.integers(2, 5)))
    build = build_ml_decoder if case % 2 else build_greedy_decoder
    return model, build(model, model.concrete_probabilities())


@pytest.mark.parametrize("case", [*range(20), "three-channel"])
def test_exhausted_final_is_one_sum_in_any_visit_order(case, monkeypatch):
    """An exhausted accuracy final is the run's logical minterms summed and
    rounded once, whatever the strategy (or the test order `SplitOrder`)
    and the block size."""
    import qecbound.driver as driver
    from qecbound.errorspace import observable_of, syndrome_of
    from qecbound.polynomial import MintermEvaluator

    model, dec = _order_case_model(case)
    v = model.concrete_probabilities()
    evaluator = MintermEvaluator(v)
    want = math.fsum(evaluator(e) for e in range(1 << model.n_channels)
                     if dec.decode(syndrome_of(model, e)) != observable_of(model, e))
    finals = set()
    for block_rows in (1, 3, 2048):
        monkeypatch.setattr(driver, "BLOCK_ROWS", block_rows)
        for strategy, distance in (("hamming", None), ("split", 1), ("split", 3),
                                   ("local-flip", None)):
            with monkeypatch.context() as order_patch:
                config = RunConfig(strategy=kept_order(strategy, distance, order_patch))
                final = run_accuracy(model, dec, v, config).final
            assert final["exhausted"] and final["lower"] == final["upper"]
            finals.add(final["lower"])
    assert finals == {want}


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


def test_robustness_term_cap_freezes_upper(repetition_model, monkeypatch):
    import qecbound.driver as driver

    monkeypatch.setattr(driver, "TERM_CAP_DEFAULT", 2)
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    box = Hyperrectangle((0.009,) * 3, (0.011,) * 3)
    trace = run_robustness(repetition_model, dec, box, RunConfig(mode="robustness"))
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


def test_truncated_vertex_search_upper_is_sound(monkeypatch):
    """Two channels with footprint D0 L0, a decoder that always predicts 0,
    box [0,1]^2 and no vertex search: the worst case is 1.0 at x = (1, 0)."""
    import qecbound.driver as driver

    monkeypatch.setattr(driver, "F_MAX_DEFAULT", 0)
    model = parse_dem("dem 1 1\nerror(0.1) D0 L0\nerror(0.1) D0 L0\n")
    dec = ZeroDecoder(model.n_detectors, model.n_observables)
    box = Hyperrectangle((0.0, 0.0), (1.0, 1.0))
    trace = run_robustness(model, dec, box, RunConfig(mode="robustness"))
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
    with pytest.raises(ValueError, match="strategy"):
        RunConfig(strategy="local_flip")
    with pytest.raises(ValueError, match="sample_count"):
        RunConfig(sample_count=-2)
    for alpha in (0.0, 1.0, -0.5, 1.5, float("nan"), "0.1"):
        with pytest.raises(ValueError, match="alpha"):
            RunConfig(sample_count=10, alpha=alpha)
    RunConfig(alpha=0.0)  # alpha is unused without sampling
    RunConfig(time_limit=2, alpha=np.float64(0.05), sample_count=10)  # any real but a bool
    for name in ("max_shots", "time_limit"):
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: -1})
    with pytest.raises(ValueError, match="time_limit"):
        RunConfig(time_limit=float("nan"))
    RunConfig(max_shots=0, time_limit=0.0)
    # `split` is no longer a strategy (see test_distance_without_split_is_rejected).
    with pytest.raises(ValueError, match="unknown strategy 'split'"):
        RunConfig(strategy="split")


@pytest.mark.parametrize("name,value", [
    ("max_shots", 2.5), ("max_shots", True), ("sample_count", True), ("sample_count", 3.0),
    ("sample_count", None), ("seed", -3), ("seed", 1.5), ("seed", False), ("seed", None),
    ("time_limit", True), ("time_limit", "1"), ("alpha", True), ("alpha", "0.1"),
    ("alpha", None)])
def test_config_rejects_counts_that_are_not_integers(name, value):
    """`max_shots` (or None), `sample_count` and `seed` are non-negative
    ints: a float, a bool or None would otherwise reach numpy mid-run, and
    a negative seed numpy's generator, in errors that name no field.
    `time_limit` (or None) and `alpha` are real numbers that are not bools:
    True is no limit of 1 s, and a string would fail a comparison with a
    TypeError."""
    with pytest.raises(ValueError, match=name):
        RunConfig(**{name: value})


@pytest.mark.parametrize("strategy", ["hamming", "local-flip"])
def test_distance_without_split_is_rejected(strategy):
    """A distance ansatz placed the high run of the former `split`
    strategy; no strategy takes one now, so a config given one is an
    error rather than a run that ignores it."""
    with pytest.raises(TypeError, match="distance_ansatz"):
        RunConfig(strategy=strategy, distance_ansatz=3)
    RunConfig(strategy=strategy)


def test_run_functions_reject_the_other_mode(repetition_model):
    v = repetition_model.concrete_probabilities()
    dec = build_ml_decoder(repetition_model, v)
    box = Hyperrectangle.scaled(v, 0.9, 1.1)
    with pytest.raises(ValueError, match="mode"):
        run_robustness(repetition_model, dec, box, RunConfig())
    with pytest.raises(ValueError, match="mode"):
        run_accuracy(repetition_model, dec, v, RunConfig(mode="robustness"))


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


@pytest.mark.parametrize("mode,strategy,gathered", [
    ("accuracy", "hamming", False), ("accuracy", "local-flip", True),
    ("robustness", "hamming", True)])
def test_channel_masks_are_gathered_only_where_read(mode, strategy, gathered, monkeypatch):
    """The blocks' channel bit sets are read by robustness (its stores) and
    by the `local-flip` walk; other accuracy runs do not gather them."""
    from qecbound.errorspace import Footprints, n_words, words_of

    model = parse_dem((resources.files("qecbound") / "data" / "scaling_demo.dem").read_text())
    v = model.concrete_probabilities()
    n = model.n_channels
    chan = words_of([*(1 << i for i in range(n)), 0], n_words(n))
    tables = []
    xor = Footprints.xor
    monkeypatch.setattr(Footprints, "xor", staticmethod(
        lambda table, cols: tables.append(table.shape == chan.shape and (table == chan).all())
        or xor(table, cols)))
    decoder = build_greedy_decoder(model, v)
    config = RunConfig(mode=mode, strategy=strategy, max_shots=1024)
    if mode == "accuracy":
        run_accuracy(model, decoder, v, config)
    else:
        run_robustness(model, decoder, Hyperrectangle.scaled(v, 0.9, 1.1), config)
    assert any(tables) == gathered
