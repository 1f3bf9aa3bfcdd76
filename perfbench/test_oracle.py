"""Tests of the benchmark's own oracle and input generation.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import oracle  # noqa: E402
from qecbound import (  # noqa: E402
    RunConfig,
    build_greedy_decoder,
    build_ml_decoder,
    parse_dem,
    run_accuracy,
)
from workloads import DEMO_DEM, block_dem, make_inputs, reseed_dem, seeded_rates  # noqa: E402


def brute_rate(model, rates, decode) -> float:
    """Logical error rate by summing over all 2^n strings of the model."""
    total = 0.0
    n = model.n_channels
    for e in range(1 << n):
        p, s, o = 1.0, 0, 0
        for i in range(n):
            if e >> i & 1:
                p *= rates[i]
                s ^= model.det_footprints[i]
                o ^= model.obs_footprints[i]
            else:
                p *= 1.0 - rates[i]
        if decode(s) != o:
            total += p
    return total


@pytest.mark.parametrize("seed", range(4))
def test_oracle_matches_exhausted_runs(seed):
    model = parse_dem(block_dem(random.Random(seed), [2, 4, 4]))
    v = model.concrete_probabilities()
    ml = build_ml_decoder(model, v)
    greedy = build_greedy_decoder(model, v)
    for decoder, exact in (
        (ml, oracle.ml_rate(v, model.det_footprints, model.obs_footprints)),
        (greedy, oracle.rate_with_decoder(v, model.det_footprints, model.obs_footprints,
                                          greedy.decode)),
    ):
        final = run_accuracy(model, decoder, v, RunConfig()).final
        assert final["exhausted"]
        assert final["lower"] == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert final["upper"] == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_oracle_at_other_rates_matches_brute_force():
    rng = random.Random(7)
    model = parse_dem(block_dem(rng, [3, 4, 2, 2]))
    decoder = build_greedy_decoder(model, model.concrete_probabilities())
    rates = [0.02 + 0.03 * rng.random() for _ in range(model.n_channels)]
    got = oracle.rate_with_decoder(rates, model.det_footprints, model.obs_footprints,
                                   decoder.decode)
    assert got == pytest.approx(brute_rate(model, rates, decoder.decode), rel=1e-12)


def test_demo_model_blocks_and_table_size():
    root = HERE.parent
    model = parse_dem((root / DEMO_DEM).read_text())
    groups = oracle.blocks(model.det_footprints)
    assert [len(g) for g in groups] == [3] * 13
    small = parse_dem(block_dem(random.Random(3), [3, 4, 4]))
    table = build_ml_decoder(small, small.concrete_probabilities()).table
    assert oracle.syndrome_count(small.det_footprints) == len(table)


def test_oracle_refuses_several_observables():
    with pytest.raises(ValueError):
        oracle.ml_rate([0.1, 0.1], [1, 1], [1, 2])


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = make_inputs("exec-ml20", 5, HERE.parent, tmp_path)
    text_a = Path(a["input"]).read_text()
    b = make_inputs("exec-ml20", 5, HERE.parent, tmp_path)
    assert a == b and Path(b["input"]).read_text() == text_a
    c = make_inputs("exec-ml20", 6, HERE.parent, tmp_path)
    assert Path(c["input"]).read_text() != text_a
    assert parse_dem(text_a).n_channels == 18


def test_reseed_dem_keeps_footprints():
    text = (HERE.parent / DEMO_DEM).read_text()
    base = parse_dem(text)
    rates = seeded_rates(random.Random(1), base.n_channels)
    model = parse_dem(reseed_dem(text, rates))
    assert model.det_footprints == base.det_footprints
    assert model.obs_footprints == base.obs_footprints
    assert list(model.probabilities) == rates
    with pytest.raises(ValueError):
        reseed_dem(text, rates + [0.01])
