"""The first pruning round in factored form (`_SignPass`): its signs equal
the per-variable reference on random models, its sums lie within the
documented bound of the dense sums (`reference.DenseSignPass`), the
underflow guard reads the rows actually fed, and robustness records equal
those made with the per-variable reference in every first round."""

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qecbound.driver as driver
from qecbound import RunConfig, build_greedy_decoder, compile_to_dem, parse_program
from qecbound.errorspace import n_words, words_of
from qecbound.polynomial import (
    NEG,
    POS,
    Hyperrectangle,
    MintermStore,
    SignedTerm,
    TermArray,
    _SignPass,
)

from conftest import kept_order
from reference import DenseSignPass, unrank_position
from test_compiler import repetition_memory_text
from test_optimizer_rounds import seeded_model

U = 2.0 ** -53


def gamma(m: int) -> float:
    return m * U / (1.0 - m * U)


def reference_signs(terms: TermArray, lo, hi):
    """(live, lo_sign, hi_sign) from each variable's own merged derivative."""
    live = terms.variables()
    signs = np.array([np.sign(terms.derivative(v).termwise(lo, hi)) for v in live])
    signs = signs.reshape(len(live), 2)
    return np.array(live, dtype=np.intp), signs[:, 0], signs[:, 1]


def assert_same(got, expect):
    for a, b in zip(got, expect):
        np.testing.assert_array_equal(a, b)


def in_weight_order(terms: TermArray, rng: random.Random) -> TermArray:
    """The rows shuffled, then sorted by their number of positive literals."""
    order = list(range(len(terms)))
    rng.shuffle(order)
    weight = np.bitwise_count(terms.pos).sum(axis=1)
    order.sort(key=lambda t: weight[t])
    return terms[np.array(order, dtype=np.intp)]


def fed_in_parts(terms: TermArray, cuts, lo, hi, cover):
    """A `_SignPass` and a `DenseSignPass`, each fed the rows, all of one
    cover, in the parts that `cuts` gives."""
    new = _SignPass(lo, hi, cover)
    dense = DenseSignPass(lo, hi, terms.pos.shape[1])
    ends = [0, *sorted(min(c, len(terms)) for c in cuts), len(terms)]
    for a, b in zip(ends, ends[1:]):
        assert new.update(terms[a:b])
        dense.update(terms[a:b])
    return new, dense


def guarded(sign_pass: _SignPass, live) -> bool:
    """Whether `signs` doubts every variable whatever its sums."""
    return (sign_pass.floor - 53 < -1000 or sign_pass.ceiling + 1 > 960
            or bool((sign_pass.hi[live] == 1.0).any()))


def assert_within_bound(new: _SignPass, dense: DenseSignPass, live):
    """Both sums lie within their bounds of the exact sum of the reference's
    operands, so within the sum of the two bounds of each other; and the
    factored `mags` bounds the dense one, whose operands it holds."""
    v = live.size
    m_new = 2 * (new.count + 2 * v + 2 * new.heaviest + 1)
    m_dense = 2 * (dense.count + v + 2)
    got, ref = new.sums[:, live], dense.sums[:, live]
    slack = gamma(m_new) * new.mags[:, live] + gamma(m_dense) * dense.mags[:, live]
    assert (np.abs(got - ref) <= slack).all()
    assert (new.mags[:, live] >= dense.mags[:, live] * (1.0 - gamma(m_new + m_dense))).all()


ends = st.sampled_from([0.0, 0.5]) | st.floats(0.001, 0.999)
coefficients = (st.sampled_from([1.0, -1.0]) | st.floats(0.01, 2.0)
                | st.floats(-2.0, -0.01))
# ends at 1 (a factor 1 - x_j of 0) and products that could underflow
extreme_ends = st.sampled_from([0.0, 1.0, 1e-300, 1e-200, 1e-20]) | st.floats(0.0, 1.0)
extreme_coefficients = st.sampled_from([1e-300, -1e-300]) | st.floats(-2.0, 2.0)


@st.composite
def models(draw):
    """(rows, box): up to 24 distinct signed rows over up to 7 variables
    placed anywhere in 0..n-1 (n up to 130, so rows span words), with
    covers that differ from row to row or one cover for all; many rows
    come with a partner (one variable flipped).  Half the models draw from
    the extreme ends and coefficients too."""
    extreme = draw(st.booleans())
    end = ends | extreme_ends if extreme else ends
    coefficient = extreme_coefficients if extreme else coefficients
    k = draw(st.integers(1, 7))
    n = draw(st.integers(k, 130))
    used = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    lower, upper = [0.1] * n, [0.2] * n
    for var in used:
        a, b = draw(end), draw(end)
        lower[var], upper[var] = min(a, b), max(a, b)
    box = Hyperrectangle(tuple(lower), tuple(upper))
    minterms = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 12))):
        choices = [POS, NEG] if minterms else [None, POS, NEG]
        pols = draw(st.lists(st.sampled_from(choices), min_size=k, max_size=k))
        lits = tuple((v, p) for v, p in zip(used, pols) if p is not None)
        terms.append(SignedTerm(draw(coefficient), lits))
        if lits and draw(st.booleans()):
            flip = draw(st.sampled_from([v for v, _ in lits]))
            terms.append(SignedTerm(draw(coefficient),
                                    tuple((v, -p if v == flip else p) for v, p in lits)))
    return TermArray.from_signed(terms, n).merged(), box


@given(models(), st.lists(st.integers(0, 24), max_size=4), st.randoms())
@settings(max_examples=400, deadline=None)
def test_signs_equal_the_per_variable_reference(case, cuts, rng):
    terms, box = case
    if not len(terms):
        return
    terms = in_weight_order(terms, rng)
    lo, hi = np.array(box.lower), np.array(box.upper)
    # a pass holds rows of one cover: each cover's rows go to passes of their own
    covers, which = np.unique(terms.pos | terms.neg, axis=0, return_inverse=True)
    for i, cover in enumerate(covers):
        part = terms[which.ravel() == i]
        new, dense = fed_in_parts(part, cuts, lo, hi, cover)
        expect = reference_signs(part, lo, hi)
        assert_same(new.signs(part), expect)
        if not guarded(new, expect[0]):
            assert_within_bound(new, dense, expect[0])


@pytest.mark.parametrize("n,seed", [(39, 1), (39, 2), (70, 3), (150, 4)])
def test_store_sums_lie_within_the_bound_of_the_dense_sums(n, seed):
    """Weight-order strings fed at doubling checkpoints, as a robustness run
    feeds a store, on boxes around rates of about 1e-2."""
    rng = random.Random(seed)
    v = [0.01 * np.exp(rng.uniform(-0.2, 0.2)) for _ in range(n)]
    box = Hyperrectangle.scaled(v, 0.9, 1.1)
    lo, hi = np.array(box.lower), np.array(box.upper)
    masks = [unrank_position(p, n) for p in range(3000)]
    store = MintermStore(n)
    store.extend(words_of(masks, n_words(n)))
    terms = store.terms()
    cuts = [1 << k for k in range(12)]
    new, dense = fed_in_parts(terms, cuts, lo, hi, terms.pos[0] | terms.neg[0])
    live = np.arange(n)
    assert not guarded(new, live)
    assert_within_bound(new, dense, live)
    assert_same(new.signs(terms), reference_signs(terms, lo, hi))


def test_circuit_first_round_takes_no_reference(monkeypatch):
    """On d = 3 repetition memory (213 channels) every factor product of
    2048 weight-order strings stays far above underflow: round 1 calls
    `derivative` for no variable, and its signs equal the reference."""
    model = compile_to_dem(parse_program(repetition_memory_text(3)))
    n = model.n_channels
    assert n == 213
    box = Hyperrectangle.scaled(model.concrete_probabilities(), 0.9, 1.1)
    store = MintermStore(n)
    store.extend(words_of([unrank_position(p, n) for p in range(2048)], n_words(n)))
    calls = []
    derivative = TermArray.derivative
    monkeypatch.setattr(TermArray, "derivative",
                        lambda self, var: calls.append(var) or derivative(self, var))
    terms, signs = store.first_round(box)
    assert calls == []
    monkeypatch.undo()
    assert_same(signs, reference_signs(terms, np.array(box.lower), np.array(box.upper)))


@pytest.mark.parametrize("rate,heaviest,guard", [(1e-300, 4, True), (1e-300, 0, False),
                                                (1e-60, 4, False), (1e-60, 20, True)])
def test_rows_that_could_underflow_doubt_every_variable(rate, heaviest, guard, monkeypatch):
    """The guard reads the rows fed: at rates near 1e-300 a row with a
    positive literal has a product below 2^-1000, and every variable takes
    the reference, while the all-zeros row alone keeps the guard off.  At
    1e-60, four positive literals stay in range and twenty do not."""
    n = 24
    box = Hyperrectangle.scaled([rate] * n, 0.9, 1.1)
    masks = {m for m in range(1 << 10) if m.bit_count() <= min(heaviest, 2)}
    masks.add((1 << heaviest) - 1)
    store = MintermStore(n)
    store.extend(words_of(sorted(masks, key=int.bit_count), n_words(n)))
    calls = []
    derivative = TermArray.derivative
    monkeypatch.setattr(TermArray, "derivative",
                        lambda self, var: calls.append(var) or derivative(self, var))
    terms, signs = store.first_round(box)
    monkeypatch.undo()
    live = np.array(terms.variables())
    assert guarded(store._pass, live) == guard
    if guard:
        assert sorted(calls) == live.tolist()
    assert_same(signs, reference_signs(terms, np.array(box.lower), np.array(box.upper)))


def test_products_out_of_range_doubt_every_variable(monkeypatch):
    """At rates 1 - 2^-45 the product G of 30 factors 1 - x underflows and
    a row's ratio product, about 2^1350, overflows; coefficients of 2^970
    alone put the operands near overflow.  Either way every variable takes
    the reference, without a floating-point warning."""
    n = 30
    rate = 1.0 - 2.0 ** -45
    box = Hyperrectangle((rate,) * n, (rate,) * n)
    store = MintermStore(n)
    store.extend(words_of([0, 1, 2, 4, (1 << n) - 1], n_words(n)))
    near_one = store.terms()
    big = TermArray(np.full(5, 2.0 ** 970), near_one.pos, near_one.neg)
    plain = (np.full(n, 0.01), np.full(n, 0.02))
    calls = []
    derivative = TermArray.derivative
    monkeypatch.setattr(TermArray, "derivative",
                        lambda self, var: calls.append(var) or derivative(self, var))
    lo, hi = np.array(box.lower), np.array(box.upper)
    for terms, (a, b), floor in ((near_one, (lo, hi), False), (big, plain, True)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new, _ = fed_in_parts(terms, [], a, b, terms.pos[0] | terms.neg[0])
            calls.clear()
            signs = new.signs(terms)
        assert new.ceiling + 1 > 960 and (new.floor - 53 >= -1000) == floor
        assert sorted(calls) == list(range(n))
        assert_same(signs, reference_signs(terms, a, b))


def test_an_end_at_one_sends_every_variable_to_the_reference(monkeypatch):
    """A factor 1 - x_j of 0 (hi_j = 1) leaves no G to factor out."""
    n = 6
    box = Hyperrectangle((0.1,) * n, (0.2,) * (n - 1) + (1.0,))
    store = MintermStore(n)
    store.extend(words_of(list(range(1 << n)), n_words(n)))
    calls = []
    derivative = TermArray.derivative
    monkeypatch.setattr(TermArray, "derivative",
                        lambda self, var: calls.append(var) or derivative(self, var))
    terms, signs = store.first_round(box)
    assert sorted(calls) == list(range(n))
    monkeypatch.undo()
    assert_same(signs, reference_signs(terms, np.array(box.lower), np.array(box.upper)))


@pytest.mark.parametrize("strategy,distance", [("hamming", None), ("split", 3),
                                               ("local-flip", None)])
@pytest.mark.parametrize("seed", [1, 2])
def test_records_equal_those_of_per_variable_first_rounds(strategy, distance, seed, monkeypatch):
    """Bit for bit, the robustness records of 4096-shot runs equal the
    records made when every checkpoint's first round is the per-variable
    reference."""
    strategy = kept_order(strategy, distance, monkeypatch)
    model = seeded_model(seed)
    box = Hyperrectangle.scaled(model.concrete_probabilities(), 0.9, 1.1)
    mid = tuple(0.5 * (a + b) for a, b in zip(box.lower, box.upper))
    decoder = build_greedy_decoder(model, mid)
    config = RunConfig(mode="robustness", strategy=strategy, max_shots=4096)

    def run():
        trace = driver.run_robustness(model, decoder, box, config)
        return [(r.shots, r.lower, r.upper, r.lower_exact, r.upper_exact)
                for r in trace.records], trace.final

    fast = run()

    def reference_round(self, box):
        terms = self.terms().merged()
        return terms, reference_signs(terms, np.array(box.lower), np.array(box.upper))

    monkeypatch.setattr(MintermStore, "first_round", reference_round)
    assert run() == fast
