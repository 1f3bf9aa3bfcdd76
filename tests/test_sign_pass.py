"""The first pruning round as a running sum (`_SignPass`): fed rows in
chunks it gives what one `TermArray.certify` of all of them gives, and a
`MintermStore` feeds each row to its pass once."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qecbound.driver as driver
import qecbound.polynomial as polynomial
from qecbound import RunConfig, build_greedy_decoder
from qecbound.errorspace import n_words, words_of
from qecbound.polynomial import (
    NEG,
    POS,
    Hyperrectangle,
    MintermStore,
    SignedTerm,
    TermArray,
    _SignPass,
    robustness_bounds,
)

from conftest import kept_order
from test_optimizer_properties import polynomials
from test_optimizer_rounds import seeded_model
from test_sign_pass_factored import reference_signs


def rows(terms: TermArray, a: int, b: int) -> TermArray:
    return TermArray(terms.coef[a:b], terms.pos[a:b], terms.neg[a:b])


def fed_in_parts(terms: TermArray, cuts, lo, hi):
    sign_pass = _SignPass(lo, hi, terms.pos[0] | terms.neg[0])
    ends = [0, *cuts, len(terms)]
    for a, b in zip(ends, ends[1:]):
        assert sign_pass.update(rows(terms, a, b))
    return sign_pass.signs(terms)


def assert_same(got, expect):
    for a, b in zip(got, expect):
        np.testing.assert_array_equal(a, b)


@given(polynomials(), st.lists(st.integers(0, 24), max_size=4), st.randoms())
@settings(max_examples=300, deadline=None)
def test_rows_fed_in_parts_give_one_certify(case, cuts, rng):
    terms, box, _, _ = case
    arr = TermArray.from_signed(terms, box.n).merged()
    order = list(range(len(arr)))
    rng.shuffle(order)
    # a pass takes rows in weight order: no row lighter than one it holds
    weight = np.bitwise_count(arr.pos).sum(axis=1)
    order.sort(key=lambda t: weight[t])
    arr = TermArray(arr.coef[order], arr.pos[order], arr.neg[order])
    lo, hi = np.array(box.lower), np.array(box.upper)
    assert_same(arr.certify(lo, hi), reference_signs(arr, lo, hi))
    # a pass holds rows of one cover: each cover's rows go to a pass of their own
    covers, which = np.unique(arr.pos | arr.neg, axis=0, return_inverse=True)
    for i in range(len(covers)):
        part = arr[which.ravel() == i]
        part_cuts = sorted(min(c, len(part)) for c in cuts)
        assert_same(fed_in_parts(part, part_cuts, lo, hi), part.certify(lo, hi))


def test_lighter_row_after_a_heavier_one_is_refused():
    n = 4
    lo, hi = np.full(n, 0.1), np.full(n, 0.2)
    store = MintermStore(n)
    store.extend(words_of([0b0011, 0b0101, 0b0111], n_words(n)))
    sign_pass = _SignPass(lo, hi, words_of([(1 << n) - 1], n_words(n))[0])
    assert sign_pass.update(store.terms())
    state = [sign_pass.sums.copy(), sign_pass.mags.copy(), sign_pass.count,
             sign_pass.keys.copy(), sign_pass.coef.copy()]
    lighter = MintermStore(n)
    lighter.extend(words_of([0b1111, 0b0001], n_words(n)))
    assert not sign_pass.update(lighter.terms())
    for before, after in zip(state, [sign_pass.sums, sign_pass.mags, sign_pass.count,
                                     sign_pass.keys, sign_pass.coef]):
        np.testing.assert_array_equal(before, after)
    # a row as heavy as the heaviest held is taken
    same = MintermStore(n)
    same.extend(words_of([0b1011], n_words(n)))
    assert sign_pass.update(same.terms())
    store.extend(words_of([0b1011], n_words(n)))
    assert_same(sign_pass.signs(store.terms()), store.terms().certify(lo, hi))


def test_doubt_is_resolved_when_the_rows_come_in_two_updates(monkeypatch):
    # the example of test_certify_takes_the_reference_where_the_sign_is_in_doubt
    # on one cover: d/dx0 = x1 (1-x2)(1-x3) + 1e-17 (1-x1) x2 (1-x3)
    # - (1-x1)(1-x2) x3 at x1 = x2 = x3 = 0.5 sums to 0 in row order, but
    # its exact value is 1.25e-18 > 0
    terms = TermArray.from_signed([
        SignedTerm(1.0, ((0, POS), (1, POS), (2, NEG), (3, NEG))),
        SignedTerm(1e-17, ((0, POS), (1, NEG), (2, POS), (3, NEG))),
        SignedTerm(-1.0, ((0, POS), (1, NEG), (2, NEG), (3, POS))),
    ], 4)
    lo, hi = np.array([0.2, 0.5, 0.5, 0.5]), np.array([0.5, 0.5, 0.5, 0.5])
    assert terms.derivative(0).termwise(lo, hi) == (1.25e-18, 1.25e-18)
    doubted, derivative = [], TermArray.derivative

    def recorded_derivative(self, var):
        doubted.append(var)
        return derivative(self, var)

    monkeypatch.setattr(TermArray, "derivative", recorded_derivative)
    live, lo_sign, hi_sign = fed_in_parts(terms, [2], lo, hi)
    assert live.tolist() == [0, 1, 2, 3]
    assert 0 in doubted  # the pass's sum is in doubt, so x0 takes the reference
    assert (lo_sign[0], hi_sign[0]) == (1, 1)


def random_box(rng: random.Random, n: int) -> Hyperrectangle:
    v = [rng.uniform(0.005, 0.2) for _ in range(n)]
    return Hyperrectangle.scaled(v, rng.uniform(0.5, 1.0), rng.uniform(1.0, 2.0))


def clustered_masks(rng: random.Random, n: int, count: int) -> list[int]:
    """Distinct low-weight strings in random order, with many pairs that
    differ in one bit, so partners often arrive in another chunk."""
    out: set[int] = set()
    while len(out) < count:
        base = 0
        for i in rng.sample(range(n), rng.randint(0, 3)):
            base |= 1 << i
        out.add(base)
        for i in rng.sample(range(n), 3):
            out.add(base ^ 1 << i)
    masks = sorted(out)[:count]
    rng.shuffle(masks)
    return masks


def grow(store: MintermStore, masks, rng: random.Random, box: Hyperrectangle):
    """Extend the store in random chunks, asking about the box after each;
    check every answer against a fresh certify of the merged terms.
    Returns the store's pass after each chunk."""
    lo, hi = np.array(box.lower), np.array(box.upper)
    at = 0
    passes = []
    while at < len(masks):
        step = rng.randint(1, max(1, len(masks) // 3))
        store.extend(words_of(masks[at:at + step], n_words(store.n)))
        at += step
        terms, signs = store.first_round(box)
        merged = store.terms().merged()
        np.testing.assert_array_equal(terms.coef, merged.coef)
        np.testing.assert_array_equal(terms.pos, merged.pos)
        assert_same(signs, merged.certify(lo, hi))
        passes.append(store._pass)
    return passes


@pytest.mark.parametrize("n,count", [(5, 32), (39, 400), (70, 300)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_store_grown_in_chunks_matches_certify(n, count, seed):
    rng = random.Random(f"{n}:{seed}")
    masks = list(range(32)) if n == 5 else clustered_masks(rng, n, count)
    rng.shuffle(masks)
    box = random_box(rng, n)
    # in random order the pass starts over whenever a lighter row comes
    store = MintermStore(n)
    grow(store, masks, rng, box)
    assert len(store) == len(masks)
    # in weight order one pass takes every row, and A exceeds the rows:
    # some operands were taken back, as partners arrived in a later chunk
    store = MintermStore(n)
    passes = grow(store, sorted(masks, key=int.bit_count), rng, box)
    assert all(p is passes[0] for p in passes)
    assert store._pass.count > len(store)


@pytest.mark.parametrize("n", [5, 39, 70])
def test_store_asked_about_a_second_box_equals_a_fresh_store(n):
    rng = random.Random(n)
    masks = list(range(32)) if n == 5 else clustered_masks(rng, n, 200)
    first, second = random_box(rng, n), random_box(rng, n)
    store = MintermStore(n)
    grow(store, masks[:len(masks) // 2], rng, first)
    grow(store, masks[len(masks) // 2:], rng, second)
    fresh = MintermStore(n)
    fresh.extend(words_of(masks, n_words(n)))
    assert_same(store.first_round(second)[1], fresh.first_round(second)[1])
    # and back to the first box
    assert_same(store.first_round(first)[1], fresh.first_round(first)[1])


@pytest.mark.parametrize("n", [5, 70])
def test_duplicate_row_takes_the_merged_path(n):
    rng = random.Random(n)
    masks = clustered_masks(rng, n, 20)
    box = random_box(rng, n)
    lo, hi = np.array(box.lower), np.array(box.upper)
    store = MintermStore(n)
    store.extend(words_of(masks, n_words(n)))
    store.first_round(box)
    new = next(m for m in itertools.count() if m not in masks)
    store.extend(words_of([masks[3], new], n_words(n)))
    terms, signs = store.first_round(box)
    assert len(terms) == len(masks) + 1
    assert terms.coef.tolist().count(2.0) == 1
    assert_same(signs, store.terms().merged().certify(lo, hi))
    # the same bounds as the terms given one by one, the repeat included
    signed = store.terms().to_signed()
    assert robustness_bounds(store, store, box) == robustness_bounds(signed, signed, box)
    # rows after the repeat are fed to the rebuilt pass
    more = clustered_masks(rng, n, min(60, (1 << n) - 1))  # no weight 5 at n = 5
    grow(store, [m for m in more if m not in masks and m != new][:20], rng, box)


def test_store_rejects_rows_outside_its_width():
    store = MintermStore(3)
    store.append(0b111)
    for bad in (0b1000, -1):
        with pytest.raises(ValueError, match="width 3"):
            store.append(bad)
    with pytest.raises(ValueError, match="width 3"):
        store.extend(np.array([[0b1001]], dtype=np.uint64))
    with pytest.raises(ValueError, match="width 3"):
        store.extend(np.zeros((1, 2), dtype=np.uint64))  # two words
    with pytest.raises(ValueError, match="width 3"):
        store.extend(np.zeros((1, 1), dtype=np.int64))
    wide = MintermStore(70)
    with pytest.raises(ValueError, match="width 70"):
        wide.extend(words_of([1 << 70], 2))
    with pytest.raises(ValueError, match="width 70"):
        wide.extend(np.zeros((2, 1), dtype=np.uint64))
    # the rejected rows left the store as it was
    assert len(store) == 1 and len(wide) == 0
    box = Hyperrectangle((0.1,) * 3, (0.2,) * 3)
    assert robustness_bounds(store, store, box).lower_exact
    with pytest.raises(ValueError, match="width 3"):
        robustness_bounds(store, store, Hyperrectangle((0.1,) * 2, (0.2,) * 2))
    # a wider box leaves its extra variables at their lower ends
    wider = Hyperrectangle((0.1,) * 4, (0.2,) * 4)
    signed = store.terms().to_signed()
    assert robustness_bounds(store, store, wider) == robustness_bounds(signed, signed, wider)


def test_each_row_reaches_the_pass_once(monkeypatch):
    """On a 4096-shot robustness run, the rows fed to each store's pass add
    up to the store's final size: no checkpoint feeds a row twice."""
    fed = []
    update = _SignPass.update
    monkeypatch.setattr(_SignPass, "update",
                        lambda self, r: fed.append((self, len(r))) or update(self, r))
    stores = []
    first_round = MintermStore.first_round

    def remember(self, box):
        if self not in stores:
            stores.append(self)
        return first_round(self, box)

    monkeypatch.setattr(MintermStore, "first_round", remember)
    model = seeded_model(1)
    box = Hyperrectangle.scaled(model.concrete_probabilities(), 0.9, 1.1)
    mid = tuple(0.5 * (a + b) for a, b in zip(box.lower, box.upper))
    driver.run_robustness(model, build_greedy_decoder(model, mid), box,
                          RunConfig(mode="robustness", max_shots=4096))
    assert [len(s) for s in stores] == [428, 3668]
    for store in stores:
        assert sum(size for p, size in fed if p is store._pass) == len(store)


@pytest.mark.parametrize("strategy,distance", [
    ("hamming", None), ("split", 3), ("split", 5), ("local-flip", None)])
def test_first_round_of_every_checkpoint_matches_certify(strategy, distance, monkeypatch):
    """On 4096-shot robustness runs every `first_round` equals a fresh
    certify of the merged terms, whichever order the strategy (or the test
    order `SplitOrder`) stores rows in.  `hamming` stores them in weight
    order, so a pass that holds rows never starts over; `local-flip`'s
    detours and `SplitOrder`'s high run store a heavier row before lighter
    ones, which makes one start over."""
    out_of_order = strategy != "hamming"
    strategy = kept_order(strategy, distance, monkeypatch)
    first_round = MintermStore.first_round
    calls, restarts = [], []

    def checked(self, box):
        held, fed = self._pass, self._fed
        terms, signs = first_round(self, box)
        merged = self.terms().merged()
        np.testing.assert_array_equal(terms.coef, merged.coef)
        assert_same(signs, merged.certify(*(np.array(b) for b in (box.lower, box.upper))))
        calls.append(self)
        if fed and self._pass is not held:
            restarts.append(self)
        return terms, signs

    monkeypatch.setattr(MintermStore, "first_round", checked)
    model = seeded_model(1)
    box = Hyperrectangle.scaled(model.concrete_probabilities(), 0.9, 1.1)
    mid = tuple(0.5 * (a + b) for a, b in zip(box.lower, box.upper))
    driver.run_robustness(model, build_greedy_decoder(model, mid), box,
                          RunConfig(mode="robustness", strategy=strategy, max_shots=4096))
    assert len(calls) > 20
    assert bool(restarts) == out_of_order


def test_a_store_keeps_its_pass_while_it_is_empty(monkeypatch):
    """A `hamming` robustness run builds one `_SignPass` per store.  The
    logical store is still empty at the first checkpoints, and it keeps
    the pass of its first call rather than building one at each."""
    made = []

    class Counted(_SignPass):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    first_round = MintermStore.first_round
    built, empty_calls = {}, []

    def counted(self, box):
        before = len(made)
        if not len(self):
            empty_calls.append(self)
        out = first_round(self, box)
        built[self] = built.get(self, 0) + len(made) - before
        return out

    monkeypatch.setattr(polynomial, "_SignPass", Counted)
    monkeypatch.setattr(MintermStore, "first_round", counted)
    model = seeded_model(1)
    box = Hyperrectangle.scaled(model.concrete_probabilities(), 0.9, 1.1)
    mid = tuple(0.5 * (a + b) for a, b in zip(box.lower, box.upper))
    driver.run_robustness(model, build_greedy_decoder(model, mid), box,
                          RunConfig(mode="robustness", max_shots=4096))
    assert len(built) == 2
    assert len(empty_calls) >= 2 and len(set(empty_calls)) == 1
    assert list(built.values()) == [1, 1]


@pytest.mark.parametrize("scale", [(0.9, 1.1), (0.3, 3.0)])
@pytest.mark.parametrize("strategy,distance", [("hamming", None), ("split", 3),
                                               ("local-flip", None)])
def test_every_pass_of_a_robustness_run_holds_one_cover(strategy, distance, scale, monkeypatch):
    """Stores and substituted rounds hold rows of one cover: on 4096-shot
    robustness runs every `certify` call and every row fed to a
    `_SignPass` has its pass's one cover, so no run takes the per-variable
    reference that `certify` keeps for rows of several covers."""
    strategy = kept_order(strategy, distance, monkeypatch)
    certified, made, fed = [], [], []
    certify, init, update = TermArray.certify, _SignPass.__init__, _SignPass.update

    def one_cover(rows: TermArray, cover) -> bool:
        return bool(((rows.pos | rows.neg) == cover).all())

    def checked_certify(self, lo, hi):
        certified.append(not len(self) or one_cover(self, self.pos[0] | self.neg[0]))
        return certify(self, lo, hi)

    def checked_init(self, lo, hi, cover):
        made.append(cover)
        init(self, lo, hi, cover)

    def checked_update(self, rows):
        fed.append(one_cover(rows, self.cover))
        return update(self, rows)

    monkeypatch.setattr(TermArray, "certify", checked_certify)
    monkeypatch.setattr(_SignPass, "__init__", checked_init)
    monkeypatch.setattr(_SignPass, "update", checked_update)
    model = seeded_model(1)
    box = Hyperrectangle.scaled(model.concrete_probabilities(), *scale)
    mid = tuple(0.5 * (a + b) for a, b in zip(box.lower, box.upper))
    driver.run_robustness(model, build_greedy_decoder(model, mid), box,
                          RunConfig(mode="robustness", strategy=strategy, max_shots=4096))
    assert made and fed and certified
    assert all(fed) and all(certified)
