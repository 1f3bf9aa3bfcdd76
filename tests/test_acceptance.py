"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
status lines.
"""

import math
import sys

import numpy as np
import pytest

from qecbound.compiler import compile_to_dem, parse_dem, write_dem
from qecbound.decoders import Decoder, build_greedy_decoder, build_ml_decoder, connect_external_decoder
from qecbound.driver import RunConfig, convergence_shots, run_accuracy, run_robustness
from qecbound.errorspace import bits_to_str, observable_of, str_to_bits, syndrome_of
from qecbound.frontend import parse_program
from qecbound.polynomial import (
    NEG,
    POS,
    Hyperrectangle,
    MintermEvaluator,
    SignedTerm,
    bound_terms_individually,
    evaluate_terms,
    maximize,
    minimize,
    minterm_term,
    partial_derivative_simplified,
    terms_from_bitstrings,
)
from qecbound.sampling import direct_sampling_interval, kl_confidence_interval

from conftest import (
    REPETITION_PROGRAM,
    dense_channels,
    dense_parity,
    dense_run,
    exact_rate,
    random_model,
    random_program_text,
)

RATE_001 = 3 * 0.01**2 * 0.99 + 0.01**3  # 2.98e-4
WORST_CASE = 3 * 0.011**2 * 0.989 + 0.011**3  # 3.6034e-4


def _verdict(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


@pytest.fixture(scope="module")
def repetition():
    model = compile_to_dem(parse_program(REPETITION_PROGRAM))
    v = model.concrete_probabilities()
    return model, v, build_ml_decoder(model, v)


def test_criterion_01_repetition_distribution(repetition):
    """Compiled three-bit repetition model reproduces the full
    (error, syndrome, observable, probability) table at v = 0.01."""
    model, v, _ = repetition
    ev = MintermEvaluator(v)
    table = {
        "000": ("00", 0, 0.99**3),
        "111": ("00", 1, 0.01**3),
        "001": ("01", 0, 0.99**2 * 0.01),
        "110": ("01", 1, 0.01**2 * 0.99),
        "011": ("10", 0, 0.01**2 * 0.99),
        "100": ("10", 1, 0.99**2 * 0.01),
        "010": ("11", 0, 0.99**2 * 0.01),
        "101": ("11", 1, 0.01**2 * 0.99),
    }
    ok = model.n_channels == 3 and model.n_detectors == 2 and model.n_observables == 1
    for estr, (sstr, obs, prob) in table.items():
        e = str_to_bits(estr)
        ok &= bits_to_str(syndrome_of(model, e), 2) == sstr
        ok &= observable_of(model, e) == obs
        ok &= math.isclose(ev(e), prob, rel_tol=1e-15)
    _verdict("criterion 1: repetition-code distribution table", ok)


def test_criterion_02_ml_set_and_exact_rate(repetition):
    model, v, decoder = repetition
    logical = {
        bits_to_str(e, 3)
        for e in range(8)
        if decoder.decode(syndrome_of(model, e)) != observable_of(model, e)
    }
    ok = logical == {"111", "110", "011", "101"}
    trace = run_accuracy(model, decoder, v, RunConfig())
    ok &= trace.final["exhausted"]
    ok &= abs(trace.final["lower"] - RATE_001) < 1e-12
    ok &= abs(trace.final["upper"] - RATE_001) < 1e-12
    _verdict("criterion 2: ML logical-error set and exact rate 2.98e-4", ok)


def test_criterion_03_optimizer_worked_examples():
    box2 = Hyperrectangle((0.009,) * 2, (0.011,) * 2)
    box3 = Hyperrectangle((0.009,) * 3, (0.011,) * 3)

    # d/dx0 of x0(1-x1) + (1-x0)x1 bounded termwise: [0.978, 0.982],
    # certifies the sign, so the maximum fixes x0 at its upper bound
    d1 = [SignedTerm(1.0, ((1, NEG),)), SignedTerm(-1.0, ((1, POS),))]
    lo, hi = bound_terms_individually(d1, box2)
    ok = abs(lo - 0.978) < 1e-12 and abs(hi - 0.982) < 1e-12 and lo > 0
    res = maximize(terms_from_bitstrings([0b01, 0b10], 2), box2)
    ok &= res.vertex[0] == 0.011

    # d/dx0 of x0(1-x1)x2 + (1-x0)x1(1-x2): interval [-0.002, 0.002]
    # straddles zero, so no pruning certificate for x0
    d2 = [
        SignedTerm(1.0, ((1, NEG), (2, POS))),
        SignedTerm(-1.0, ((1, POS), (2, NEG))),
    ]
    lo, hi = bound_terms_individually(d2, box3)
    ok &= abs(lo + 0.002) < 1e-12 and abs(hi - 0.002) < 1e-12
    ok &= lo < 0 < hi

    # x0(1-x1)x2 + (1-x0)(1-x1)x2 + x0x1x2: unsimplified derivative bound
    # straddles zero at [-1.9e-3, 2.1e-3]; matching-term simplification
    # leaves x1x2 with bound [8.1e-5, 1.21e-4], which prunes x0 to upper
    raw = [
        SignedTerm(1.0, ((1, NEG), (2, POS))),
        SignedTerm(-1.0, ((1, NEG), (2, POS))),
        SignedTerm(1.0, ((1, POS), (2, POS))),
    ]
    lo, hi = bound_terms_individually(raw, box3)
    ok &= abs(lo - -1.919e-3) < 1e-12 and abs(hi - 2.121e-3) < 1e-12
    ok &= lo < 0 < hi
    p = [minterm_term(0b101, 3), minterm_term(0b100, 3), minterm_term(0b111, 3)]
    simplified = partial_derivative_simplified(p, 0)
    ok &= simplified == [SignedTerm(1.0, ((1, POS), (2, POS)))]
    lo, hi = bound_terms_individually(simplified, box3)
    ok &= abs(lo - 8.1e-5) < 1e-12 and abs(hi - 1.21e-4) < 1e-12 and lo > 0
    res = maximize(p, box3)
    ok &= res.vertex[0] == 0.011 and res.exact
    _verdict("criterion 3: optimizer worked examples and prune outcomes", ok)


def _brute_force_vertices(terms, box):
    n = box.n
    idx = np.arange(1 << n, dtype=np.int64)
    total = np.zeros(1 << n)
    for t in terms:
        val = np.full(1 << n, t.coefficient)
        for var, pol in t.literals:
            bit = (idx >> var) & 1
            x = np.where(bit, box.upper[var], box.lower[var])
            val *= x if pol == POS else 1.0 - x
        total += val
    return float(total.min()), float(total.max())


def test_criterion_04_optimizer_exactness():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 15))
        k = int(rng.integers(1, min(25, 1 << n) + 1))
        masks = [int(m) for m in rng.choice(1 << n, size=k, replace=False)]
        terms = terms_from_bitstrings(masks, n)
        lo = rng.uniform(0.0, 0.3, size=n)
        hi = np.minimum(lo + rng.uniform(0.0, 0.3, size=n), 1.0)
        box = Hyperrectangle(tuple(float(x) for x in lo), tuple(float(x) for x in hi))
        bf_min, bf_max = _brute_force_vertices(terms, box)
        mx = maximize(terms, box)
        mn = minimize(terms, box)
        ok &= mx.exact and mn.exact
        ok &= math.isclose(mx.value, bf_max, rel_tol=1e-12, abs_tol=1e-15)
        ok &= math.isclose(mn.value, bf_min, rel_tol=1e-12, abs_tol=1e-15)
        ok &= math.isclose(
            evaluate_terms(terms, mx.vertex), bf_max, rel_tol=1e-12, abs_tol=1e-15
        )
        if not ok:
            break
    _verdict("criterion 4: optimizer equals brute force on 200 instances", ok)


def test_criterion_05_robustness_oracle(repetition):
    model, v, decoder = repetition
    box = Hyperrectangle((0.009,) * 3, (0.011,) * 3)
    trace = run_robustness(model, decoder, box, RunConfig(mode="robustness"))
    ok = trace.final["exhausted"]
    ok &= abs(trace.final["lower"] - WORST_CASE) < 1e-12
    ok &= abs(trace.final["upper"] - WORST_CASE) < 1e-12
    degen = run_robustness(
        model, decoder, Hyperrectangle(v, v), RunConfig(mode="robustness")
    )
    ok &= abs(degen.final["lower"] - RATE_001) < 1e-12
    ok &= abs(degen.final["upper"] - RATE_001) < 1e-12
    _verdict("criterion 5: robustness oracle 3.6034e-4 and degenerate box", ok)


class _ZeroDecoder(Decoder):
    kind = "zero"

    def __init__(self, n_det, n_obs):
        self.n_det, self.n_obs = n_det, n_obs

    def decode(self, syndrome):
        return 0


def _random_suite(count, rng):
    for _ in range(count):
        n = int(rng.integers(4, 11))
        n_det = int(rng.integers(2, 6))
        yield random_model(rng, n_channels=n, n_det=n_det)


def test_criterion_06_sandwich_and_monotone_refinement():
    rng = np.random.default_rng(66)
    ok = True
    for model in _random_suite(50, rng):
        v = model.concrete_probabilities()
        decoders = [
            build_ml_decoder(model, v),
            build_greedy_decoder(model),
            _ZeroDecoder(model.n_detectors, model.n_observables),
        ]
        for dec in decoders:
            exact = exact_rate(model, dec, v)
            trace = run_accuracy(model, dec, v, RunConfig())
            prev_lo, prev_hi = -1.0, 2.0
            for rec in trace.sound_records:
                ok &= rec.lower <= exact <= rec.upper
                ok &= rec.lower >= prev_lo and rec.upper <= prev_hi
                prev_lo, prev_hi = rec.lower, rec.upper
            ok &= abs(trace.final["lower"] - exact) < 1e-12
            if not ok:
                break
        if not ok:
            break
    _verdict("criterion 6: sound sandwich with monotone refinement", ok)


def test_criterion_07_confidence_interval_coverage():
    rng = np.random.default_rng(7)
    alpha = 0.01
    trials = 2000
    ok = True
    for theta in (0.001, 0.01, 0.1):
        for n in (1000, 10_000):
            hits = rng.binomial(n, theta, size=trials)
            cache = {}
            covered = 0
            for h in hits:
                h = int(h)
                if h not in cache:
                    cache[h] = kl_confidence_interval(h / n, n, alpha)
                ci = cache[h]
                if ci.lower <= theta <= ci.upper:
                    covered += 1
            coverage = covered / trials
            # allow three binomial standard deviations below 99%
            floor = 0.99 - 3 * math.sqrt(0.99 * 0.01 / trials)
            ok &= coverage >= floor
    # closed-form branches
    for n in (1000, 10_000):
        ci0 = kl_confidence_interval(0.0, n, alpha)
        ok &= ci0.lower == 0.0
        ok &= abs(ci0.upper - (1.0 - (alpha / 2) ** (1.0 / n))) < 1e-12
        ci1 = kl_confidence_interval(1.0, n, alpha)
        ok &= ci1.upper == 1.0
        ok &= abs(ci1.lower - (alpha / 2) ** (1.0 / n)) < 1e-12
    _verdict("criterion 7: KL-Chernoff interval coverage", ok)


def test_criterion_08_hybrid_nesting(repetition):
    model, v, decoder = repetition
    ok = True

    # (a) probabilistic records nest inside the concurrent sound records
    rng = np.random.default_rng(88)
    for sample_model in _random_suite(10, rng):
        mv = sample_model.concrete_probabilities()
        dec = build_ml_decoder(sample_model, mv)
        trace = run_accuracy(
            sample_model, dec, mv,
            RunConfig(sample_count=100, max_shots=16, seed=3),
        )
        for i, rec in enumerate(trace.records):
            if rec.sound:
                continue
            sound = trace.records[i - 1]
            ok &= sound.lower <= rec.lower + 1e-15
            ok &= rec.upper <= sound.upper + 1e-15

    # (b) hybrid intervals contain the exact rate in >= 99% of seeded runs
    contained = 0
    runs = 1000
    for seed in range(runs):
        trace = run_accuracy(
            model, decoder, v, RunConfig(sample_count=200, max_shots=4, seed=seed)
        )
        probs = [r for r in trace.records if not r.sound]
        if probs and all(r.lower - 1e-15 <= RATE_001 <= r.upper + 1e-15 for r in probs):
            contained += 1
    ok &= contained >= int(0.99 * runs)
    _verdict(
        f"criterion 8: hybrid nesting (containment {contained}/{runs})", ok
    )


def test_criterion_09_compiler_oracle():
    from qecbound.compiler import check_well_defined

    ok = True
    # 50 restricted programs: always well-defined; check the full map
    for seed in range(50):
        rng = np.random.default_rng(seed)
        prog = parse_program(random_program_text(rng, restricted=True))
        report = check_well_defined(prog)
        ok &= report.well_defined
        model = compile_to_dem(prog)
        noiseless = dense_run(prog, 0, np.random.default_rng(0))
        syndromes = [d for d in prog.declarations if d.kind == "syndrome"]
        observables = [d for d in prog.declarations if d.kind == "observable"]
        for e in range(1 << model.n_channels):
            out = dense_run(prog, e, np.random.default_rng(1))
            s = sum(
                1 << j
                for j, d in enumerate(syndromes)
                if dense_parity(prog, d, out) != dense_parity(prog, d, noiseless)
            )
            o = sum(
                1 << j
                for j, d in enumerate(observables)
                if dense_parity(prog, d, out) != dense_parity(prog, d, noiseless)
            )
            ok &= syndrome_of(model, e) == s and observable_of(model, e) == o
        if not ok:
            break

    # 50 general programs: verdict per declaration matches 1000-trial
    # dense randomization.  Trial t runs once per program and feeds every
    # declaration still open; a randomized declaration closes once it has
    # seen both parities.
    for seed in range(50):
        if not ok:
            break
        rng = np.random.default_rng(seed + 50_000)
        prog = parse_program(random_program_text(rng, restricted=False))
        decls = check_well_defined(prog).declarations
        parities = [set() for _ in decls]
        live = list(range(len(decls)))
        for t in range(1000):
            if not live:
                break
            out = dense_run(prog, 0, np.random.default_rng(t))
            for i in live:
                parities[i].add(dense_parity(prog, decls[i].declaration, out))
            live = [i for i in live if decls[i].deterministic or len(parities[i]) < 2]
        for r, seen in zip(decls, parities):
            ok &= seen == ({r.value} if r.deterministic else {0, 1})
    _verdict("criterion 9: compiler matches dense state-vector oracle", ok)


def test_criterion_10_black_box_parity(repetition, tmp_path):
    model, v, local = repetition
    dem_path = tmp_path / "model.dem"
    dem_path.write_text(write_dem(model))
    remote = connect_external_decoder(
        f"{sys.executable} -m qecbound.cli serve-ml {dem_path}",
        model.n_detectors,
        model.n_observables,
    )
    try:
        t_local = run_accuracy(model, local, v, RunConfig())
        t_remote = run_accuracy(model, remote, v, RunConfig())
    finally:
        remote.close()
    strip = lambda tr: [(r.shots, r.lower, r.upper, r.sound) for r in tr.records]
    ok = strip(t_local) == strip(t_remote)
    ok &= t_local.final == t_remote.final
    _verdict("criterion 10: external decoder trace parity", ok)


def _enumeration_shots_to_ratio(model, v, ratio):
    work = model.with_probabilities(v)
    dec = build_greedy_decoder(work)
    trace = run_accuracy(work, dec, list(v), RunConfig(max_shots=40_000))
    return convergence_shots(trace, ratio)


def _sampling_shots_to_ratio(model, v, ratio, cap=200_000):
    work = model.with_probabilities(v)
    dec = build_greedy_decoder(work)
    n = 250
    while n <= cap:
        lo, hi = direct_sampling_interval(work, v, dec, n, 0.01, rng_seed=11)
        if lo > 0.0 and hi / lo <= ratio:
            return n
        n *= 2
    return None  # censored at the budget


def test_criterion_11_scaling_trend():
    import importlib.resources as resources

    text = (resources.files("qecbound") / "data" / "scaling_demo.dem").read_text()
    model = parse_dem(text)
    assert model.n_channels == 39
    ratio = math.sqrt(10.0)
    enum_hi = _enumeration_shots_to_ratio(model, (1e-2,) * 39, ratio)
    enum_lo = _enumeration_shots_to_ratio(model, (1e-4,) * 39, ratio)
    samp_hi = _sampling_shots_to_ratio(model, (1e-2,) * 39, ratio)
    samp_lo = _sampling_shots_to_ratio(model, (1e-4,) * 39, ratio)
    ok = enum_hi is not None and enum_lo is not None
    ok &= ok and enum_lo < enum_hi  # enumeration gets cheaper at low noise
    # sampling converges at high noise but blows past the budget at low
    ok &= samp_hi is not None and (samp_lo is None or samp_lo > samp_hi)
    _verdict(
        f"criterion 11: scaling trend (enum {enum_hi}->{enum_lo} shots, "
        f"sampling {samp_hi}->{samp_lo or 'censored'})",
        ok,
    )
