"""Box optimizer on random signed polynomials: brute-force vertex extrema,
term-by-term derivative reference, truncation soundness, and variables in
several 64-bit words."""

import itertools
import math

from hypothesis import given, settings, strategies as st

from qecbound.polynomial import (
    NEG,
    POS,
    Hyperrectangle,
    SignedTerm,
    maximize,
    minimize,
    partial_derivative_simplified,
    robustness_bounds,
)

OTHER = (0.1, 0.2)  # interval of variables no term uses


def reference_value(terms, point) -> float:
    vals = []
    for t in terms:
        val = t.coefficient
        for var, pol in t.literals:
            val *= point[var] if pol == POS else 1.0 - point[var]
        vals.append(val)
    return math.fsum(vals)


def brute_force_extrema(terms, box, used):
    lo, hi = math.inf, -math.inf
    point = list(box.lower)
    for corner in itertools.product((0, 1), repeat=len(used)):
        for var, c in zip(used, corner):
            point[var] = box.upper[var] if c else box.lower[var]
        val = reference_value(terms, point)
        lo, hi = min(lo, val), max(hi, val)
    return lo, hi


endpoints = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
coefficients = st.sampled_from([1.0, -1.0]) | st.floats(-2.0, 2.0)


@st.composite
def polynomials(draw, need_var=False):
    """(terms, box, used variables, one used variable).  Variables sit
    anywhere in 0..n-1 with n up to 150, so terms span several words;
    intervals include degenerate ones and the endpoints 0 and 1."""
    k = draw(st.integers(1, 7))
    n = draw(st.integers(k, 150))
    used = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    lower, upper = [OTHER[0]] * n, [OTHER[1]] * n
    for var in used:
        a = draw(endpoints)
        b = draw(st.just(a) | endpoints)
        lower[var], upper[var] = min(a, b), max(a, b)
    box = Hyperrectangle(tuple(lower), tuple(upper))
    var = draw(st.sampled_from(used))
    terms = []
    for _ in range(draw(st.integers(0 if not need_var else 1, 12))):
        # each used variable is absent, x_i or 1 - x_i; minterms are the
        # case with every variable present
        pols = draw(st.lists(st.sampled_from([None, POS, NEG]), min_size=k, max_size=k))
        if need_var and pols[used.index(var)] is None:
            pols[used.index(var)] = draw(st.sampled_from([POS, NEG]))
        lits = tuple((v, p) for v, p in zip(used, pols) if p is not None)
        terms.append(SignedTerm(draw(coefficients), lits))
        if draw(st.booleans()):
            # a matching partner: same literals but `var` flipped
            flipped = tuple((v, -p if v == var else p) for v, p in lits)
            terms.append(SignedTerm(draw(coefficients), flipped))
    return terms, box, used, var


def close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@given(polynomials())
@settings(max_examples=300, deadline=None)
def test_extrema_match_brute_force(case):
    terms, box, used, _ = case
    bf_min, bf_max = brute_force_extrema(terms, box, used)
    mx = maximize(terms, box)
    mn = minimize(terms, box)
    assert mx.exact and mn.exact
    assert close(mx.value, bf_max)
    assert close(mn.value, bf_min)
    assert close(reference_value(terms, mx.vertex), mx.value)
    assert close(reference_value(terms, mn.vertex), mn.value)
    for var in range(box.n):
        if var not in used:
            assert mx.vertex[var] == box.lower[var]


@given(polynomials(need_var=True))
@settings(max_examples=300, deadline=None)
def test_partial_derivative_matches_term_by_term_reference(case):
    terms, _, _, var = case
    expect: dict[tuple, float] = {}
    for t in terms:
        pol = dict(t.literals)[var]
        rest = tuple(lit for lit in t.literals if lit[0] != var)
        expect[rest] = expect.get(rest, 0.0) + (t.coefficient if pol == POS else -t.coefficient)
    got = partial_derivative_simplified(terms, var)
    got_map = {t.literals: t.coefficient for t in got}
    assert len(got_map) == len(got)  # merged: no literal set twice
    assert all(t.coefficient != 0.0 for t in got)
    for lits in set(expect) | set(got_map):
        assert close(got_map.get(lits, 0.0), expect.get(lits, 0.0))
    # first-appearance order of the surviving literal sets
    order = [lits for lits in expect if lits in got_map]
    assert [t.literals for t in got] == order


@given(polynomials(), st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_truncated_search_stays_sound(case, f_max):
    terms, box, used, _ = case
    bf_min, bf_max = brute_force_extrema(terms, box, used)
    mx = maximize(terms, box, f_max=f_max)
    assert mx.value <= bf_max + 1e-12
    assert close(reference_value(terms, mx.vertex), mx.value)
    # the minimize side of the robustness sandwich never over-estimates
    rb = robustness_bounds([], terms, box, f_max=f_max)
    assert 1.0 - rb.upper <= bf_min + 1e-12
    assert rb.upper_exact == minimize(terms, box, f_max=f_max).exact


def test_minterms_across_word_boundary():
    # x63 x64 (1 - x65) + (1 - x63) x64 x65 on a 130-variable box
    terms = [
        SignedTerm(1.0, ((63, POS), (64, POS), (65, NEG))),
        SignedTerm(1.0, ((63, NEG), (64, POS), (65, POS))),
    ]
    lower = [0.1] * 130
    upper = [0.2] * 130
    upper[65] = 0.9
    box = Hyperrectangle(tuple(lower), tuple(upper))
    bf_min, bf_max = brute_force_extrema(terms, box, [63, 64, 65])
    mx = maximize(terms, box)
    assert mx.exact and close(mx.value, bf_max)
    assert mx.vertex[63] == 0.1 and mx.vertex[64] == 0.2 and mx.vertex[65] == 0.9
    assert close(minimize(terms, box).value, bf_min)
    d = partial_derivative_simplified(terms, 64)
    assert d == [
        SignedTerm(1.0, ((63, POS), (65, NEG))),
        SignedTerm(1.0, ((63, NEG), (65, POS))),
    ]
