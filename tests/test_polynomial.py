"""Minterm arithmetic, bound accumulators, and box optimization."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qecbound.polynomial import (
    NEG,
    POS,
    BoundAccumulators,
    Hyperrectangle,
    MintermEvaluator,
    SignedTerm,
    accuracy_bounds,
    bound_terms_individually,
    evaluate_terms,
    maximize,
    minimize,
    minterm_term,
    partial_derivative_simplified,
    robustness_bounds,
    terms_from_bitstrings,
)

from reference import accumulate, minterm_eval

BOX3 = Hyperrectangle((0.009,) * 3, (0.011,) * 3)


def test_minterm_eval_basics():
    v = (0.01, 0.02, 0.5)
    assert math.isclose(minterm_eval(0, v), 0.99 * 0.98 * 0.5, rel_tol=1e-15)
    assert math.isclose(minterm_eval(0b111, v), 0.01 * 0.02 * 0.5, rel_tol=1e-15)
    assert math.isclose(minterm_eval(0b001, v), 0.01 * 0.98 * 0.5, rel_tol=1e-15)


def test_minterm_evaluator_rejects_boundary():
    with pytest.raises(ValueError):
        MintermEvaluator((0.0, 0.5))
    with pytest.raises(ValueError):
        MintermEvaluator((0.5, 1.0))


@given(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_minterms_partition_unity(v):
    n = len(v)
    ev = MintermEvaluator(v)
    total = sum(ev(m) for m in range(1 << n))
    assert math.isclose(total, 1.0, rel_tol=1e-9)


def test_accumulators_and_sandwich():
    v = (0.01, 0.01, 0.01)
    ev = MintermEvaluator(v)
    acc = BoundAccumulators()
    logical = {0b111, 0b011, 0b110, 0b101}
    exact = sum(ev(m) for m in logical)
    for m in range(8):
        accumulate(acc, m, m in logical, ev)
        lo, hi = accuracy_bounds(acc)
        assert lo - 1e-15 <= exact <= hi + 1e-15
    lo, hi = accuracy_bounds(acc)
    assert math.isclose(lo, exact, rel_tol=1e-12)
    assert abs(hi - exact) < 1e-12


@given(st.lists(st.tuples(st.floats(1.0, 10.0), st.integers(-30, -1), st.booleans()),
                max_size=60),
       st.lists(st.integers(0, 8), max_size=20))
@settings(max_examples=200, deadline=None)
def test_accumulators_round_the_exact_sum_once(values, cuts):
    """Whatever the blocks (empty ones too), each running sum is the sum of
    every value added, correctly rounded."""
    acc = BoundAccumulators()
    probs = np.array([m * 10.0 ** k for m, k, _ in values])
    logical = np.array([flag for _, _, flag in values], dtype=bool)
    start = 0
    for size in cuts + [len(values)]:
        acc.accumulate_block(probs[start:start + size], logical[start:start + size])
        start += size
    assert acc.sum_s.total == float(sum(map(Fraction, probs.tolist())))
    assert acc.sum_l.total == float(sum(map(Fraction, probs[logical].tolist())))


def test_hyperrectangle_validation():
    with pytest.raises(ValueError):
        Hyperrectangle((0.2,), (0.1,))
    with pytest.raises(ValueError):
        Hyperrectangle((0.1, 0.1), (0.2,))
    with pytest.raises(ValueError):
        Hyperrectangle((-0.1,), (0.2,))


def test_hyperrectangle_scaled_clips():
    box = Hyperrectangle.scaled((0.6, 0.01), 0.5, 2.0)
    assert box.lower == (0.3, 0.005)
    assert box.upper == (1.0, 0.02)


@pytest.mark.parametrize("v,lo_scale,hi_scale", [
    ((0.6, 0.01), math.nan, 1.1), ((0.6, 0.01), 0.9, math.nan), ((0.6, 0.01), math.nan, math.nan),
    ((0.0, 0.01), 0.9, math.inf),  # 0 * inf is NaN
])
def test_hyperrectangle_scaled_rejects_a_nan_end(v, lo_scale, hi_scale):
    with pytest.raises(ValueError, match="box scale"):
        Hyperrectangle.scaled(v, lo_scale, hi_scale)


def test_evaluate_terms_matches_direct():
    terms = terms_from_bitstrings([0b01, 0b10], 2)
    v = (0.3, 0.7)
    expect = 0.3 * 0.3 + 0.7 * 0.7
    assert math.isclose(evaluate_terms(terms, v), expect, rel_tol=1e-15)


def test_two_variable_pruning_interval():
    """d/dx1 of x1(1-x2) + (1-x1)x2 bounded termwise over [0.009, 0.011]^2
    gives [0.978, 0.982]."""
    terms = [
        SignedTerm(1.0, ((1, NEG),)),
        SignedTerm(-1.0, ((1, POS),)),
    ]
    box = Hyperrectangle((0.009,) * 2, (0.011,) * 2)
    lo, hi = bound_terms_individually(terms, box)
    assert math.isclose(lo, 0.978, rel_tol=1e-12)
    assert math.isclose(hi, 0.982, rel_tol=1e-12)


def test_partial_derivative_requires_variable():
    with pytest.raises(ValueError):
        partial_derivative_simplified([SignedTerm(1.0, ((1, POS),))], 0)


def test_matching_term_cancellation():
    # d/dx0 of x0(1-x1)x2 + (1-x0)(1-x1)x2 + x0x1x2 simplifies to x1x2
    p = [
        minterm_term(0b101, 3),
        minterm_term(0b100, 3),
        minterm_term(0b111, 3),
    ]
    d = partial_derivative_simplified(p, 0)
    assert d == [SignedTerm(1.0, ((1, POS), (2, POS)))]


def brute_force_extrema(terms, box):
    n = box.n
    best_max, best_min = -math.inf, math.inf
    for corner in itertools.product((0, 1), repeat=n):
        point = [box.upper[i] if corner[i] else box.lower[i] for i in range(n)]
        val = evaluate_terms(terms, point)
        best_max = max(best_max, val)
        best_min = min(best_min, val)
    return best_min, best_max


def test_maximize_single_minterm():
    box = Hyperrectangle((0.1, 0.2), (0.3, 0.4))
    res = maximize([minterm_term(0b01, 2)], box)
    assert res.exact
    assert res.vertex == (0.3, 0.2)
    assert math.isclose(res.value, 0.3 * 0.8, rel_tol=1e-15)


def test_minimize_single_minterm():
    box = Hyperrectangle((0.1, 0.2), (0.3, 0.4))
    res = minimize([minterm_term(0b01, 2)], box)
    assert res.vertex == (0.1, 0.4)
    assert math.isclose(res.value, 0.1 * 0.6, rel_tol=1e-15)


def test_empty_polynomial():
    res = maximize([], BOX3)
    assert res.value == 0.0 and res.exact


def test_repetition_logical_set_maximum():
    # max over [0.009, 0.011]^3 of the 4-minterm logical polynomial is at
    # the all-upper vertex: 3 * 0.011^2 * 0.989 + 0.011^3
    terms = terms_from_bitstrings([0b111, 0b011, 0b101, 0b110], 3)
    res = maximize(terms, BOX3)
    assert res.exact
    assert res.vertex == (0.011, 0.011, 0.011)
    expect = 3 * 0.011**2 * 0.989 + 0.011**3
    assert abs(res.value - expect) < 1e-12


def test_wide_box_maximum_is_half():
    terms = terms_from_bitstrings([0b111, 0b011, 0b101, 0b110], 3)
    res = maximize(terms, Hyperrectangle((0.0,) * 3, (0.5,) * 3))
    assert res.exact
    assert abs(res.value - 0.5) < 1e-12


@pytest.mark.parametrize("seed", range(30))
def test_optimizer_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    k = int(rng.integers(1, min(12, 1 << n) + 1))
    masks = rng.choice(1 << n, size=k, replace=False)
    terms = terms_from_bitstrings([int(m) for m in masks], n)
    lo = rng.uniform(0.0, 0.4, size=n)
    hi = lo + rng.uniform(0.0, 0.4, size=n)
    box = Hyperrectangle(tuple(lo), tuple(np.minimum(hi, 1.0)))
    bf_min, bf_max = brute_force_extrema(terms, box)
    mx = maximize(terms, box)
    mn = minimize(terms, box)
    assert mx.exact and mn.exact
    assert math.isclose(mx.value, bf_max, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(mn.value, bf_min, rel_tol=1e-12, abs_tol=1e-15)
    # witness vertices actually achieve the reported values
    assert math.isclose(evaluate_terms(terms, mx.vertex), mx.value, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(evaluate_terms(terms, mn.vertex), mn.value, rel_tol=1e-12, abs_tol=1e-15)


def test_fallback_when_too_many_free_variables():
    # anti-symmetric polynomial on a symmetric box defeats pruning; with
    # f_max=0 the optimizer must fall back and flag inexactness
    terms = [
        SignedTerm(1.0, ((0, POS), (1, NEG))),
        SignedTerm(1.0, ((0, NEG), (1, POS))),
    ]
    box = Hyperrectangle((0.2, 0.2), (0.8, 0.8))
    res = maximize(terms, box, f_max=0)
    assert not res.exact
    bf_min, bf_max = brute_force_extrema(terms, box)
    assert res.value <= bf_max + 1e-15  # sound under-estimate of the max
    res2 = minimize(terms, box, f_max=0)
    assert not res2.exact
    assert res2.value >= bf_min - 1e-15


def test_robustness_bounds_sandwich():
    l_terms = terms_from_bitstrings([0b111, 0b011, 0b101, 0b110], 3)
    s_not_l = terms_from_bitstrings([0b000, 0b001, 0b010, 0b100], 3)
    rb = robustness_bounds(l_terms, s_not_l, BOX3)
    assert rb.lower_exact and rb.upper_exact
    expect = 3 * 0.011**2 * 0.989 + 0.011**3
    assert abs(rb.lower - expect) < 1e-12
    assert abs(rb.upper - expect) < 1e-12
    assert rb.witness_vertex == (0.011, 0.011, 0.011)


def test_robustness_bounds_partial_knowledge():
    # with only some bitstrings classified, lower <= true <= upper
    l_terms = terms_from_bitstrings([0b011], 3)
    s_not_l = terms_from_bitstrings([0b000], 3)
    rb = robustness_bounds(l_terms, s_not_l, BOX3)
    true_worst = 3 * 0.011**2 * 0.989 + 0.011**3
    assert rb.lower <= true_worst <= rb.upper
