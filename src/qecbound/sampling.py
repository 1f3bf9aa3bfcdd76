"""Hybrid sampling support: exact sampling of unseen bitstrings and
KL-Chernoff confidence intervals.

Every string of weight below c, the lowest weight of any unvisited string,
is visited, so the unexplored space lies in the tail "weight >= c".  The
sampler draws from the model's distribution conditioned on that tail
exactly, channel by channel, and rejects only the visited strings of the
tail.  Accepted samples therefore follow the model's error distribution
conditioned on the unexplored space, at any noise level.  Draws stay
[count, n_words(n)] uint64 word rows from the draw to the classifier: a
batch's membership is one `contains_rows` call on the visited set, and a
run's `TailSampler` builds its table of set probabilities once per tail
weight, not at every checkpoint.  Intervals invert the Kullback-Leibler
form of the Chernoff bound by bisection.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .decoders import LogicalErrorClassifier
from .errorspace import n_words, supports_of_words, words_of_bits
from .polynomial import BoundAccumulators

REJECTION_GUARD = 1_000_000
_BATCH = 1 << 14


class RejectionGuardExceeded(RuntimeError):
    """The visited strings hold nearly all of the mass of the tail
    weight >= c that the sampler draws from; stop sampling."""


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _draw_batch(v: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """[count, n] bool rows of independent Bernoulli(v_i) draws."""
    return rng.random((count, v.size)) < v


def _tail_table(v: np.ndarray, c: int) -> np.ndarray:
    """[n + 1, c + 1] table of log P(at least k of channels i..n-1 are set)
    at row i, column k.  Logs keep the deep tail from underflowing."""
    n = v.size
    lg = np.full((n + 1, c + 1), -np.inf)
    lg[:, 0] = 0.0
    lv, lq = np.log(v), np.log1p(-v)
    for i in range(n - 1, -1, -1):
        lg[i, 1:] = np.logaddexp(lv[i] + lg[i + 1, :-1], lq[i] + lg[i + 1, 1:])
    return lg


def _set_probabilities(v: np.ndarray, c: int) -> np.ndarray:
    """[n, c + 1] table: at row i, column `need`, the probability
    v_i g[i+1, need-1] / g[i, need] that channel i is set in a row that
    still needs `need` more set bits, from the tail table g of weight c.
    The cells with need > n - i are -inf - -inf; no row reaches them, since
    a row with need = n - i sets channel i with probability exactly 1."""
    lg = _tail_table(v, c)
    before = np.maximum(np.arange(c + 1) - 1, 0)
    with np.errstate(invalid="ignore"):
        return np.exp(np.log(v)[:, None] + lg[1:, before] - lg[:-1])


class TailSampler:
    """Draws from the model at rates v conditioned on the tail weight >= c,
    channel by channel, as word rows.  It holds the set probabilities of
    the largest c asked so far (`_set_probabilities`) and rebuilds them only
    when a larger c is asked for; a run's lowest unvisited weight never
    falls, so a run builds one table per tail weight."""

    def __init__(self, v) -> None:
        self.v = np.asarray(v, dtype=float)
        self._p = np.zeros((self.v.size, 0))

    def draw(self, c: int, rng: np.random.Generator, count: int) -> np.ndarray:
        """`count` bit sets drawn from the tail weight >= c, as
        [count, n_words(n)] uint64 rows."""
        n = self.v.size
        if c >= self._p.shape[1]:
            self._p = _set_probabilities(self.v, c)
        u = rng.random((n, count))
        need = np.full(count, c)
        words = np.zeros((count, n_words(n)), dtype=np.uint64)
        for i, (u_i, p_i) in enumerate(zip(u, self._p)):
            bit = u_i < p_i[need]
            words[:, i >> 6] |= bit.astype(np.uint64) << np.uint64(i & 63)
            need = np.maximum(need - bit, 0)
        return words


def sample_unseen_batch(tail: TailSampler, visited, rng, count: int,
                        guard: int = REJECTION_GUARD,
                        deadline: float | None = None) -> np.ndarray:
    """Draw `count` bitstrings, as [count, n_words(n)] uint64 rows, from
    the model distribution of `tail` conditioned on the complement of
    `visited`, which answers `visited.contains_rows(rows)` and
    `visited.lowest_unvisited_weight()` (a run passes its `VisitOrder`).
    Draws come from the tail weight >= c, with c the lowest unvisited
    weight, and visited strings of that tail are redrawn: each batch's
    first unvisited draws are accepted in draw order, and the rejections
    after its last acceptance carry into the next batch.  Once `deadline`
    (a `time.monotonic()` value) has passed, no further batch is drawn and
    the samples accepted so far, possibly none, are returned.  Raises
    RejectionGuardExceeded after `guard` consecutive rejections, or at
    once when every string is visited."""
    rng = _as_rng(rng)
    c = visited.lowest_unvisited_weight()
    if c > tail.v.size:
        raise RejectionGuardExceeded("every bitstring is visited")
    accepted = [np.zeros((0, n_words(tail.v.size)), dtype=np.uint64)]
    got = 0
    rejects = 0  # consecutive rejections since the last acceptance
    while got < count:
        if deadline is not None and time.monotonic() > deadline:
            break
        # Twice the shortfall, and more after rejections, so that a nearly
        # visited tail reaches the guard in a few batches.
        size = min(_BATCH, 2 * (count - got) + rejects)
        rows = tail.draw(c, rng, size)
        free = np.flatnonzero(~visited.contains_rows(rows))[:count - got]
        if free.size:
            accepted.append(rows[free])
            got += free.size
            rejects = size - 1 - int(free[-1])
        else:
            rejects += size
        if rejects >= guard and got < count:
            raise RejectionGuardExceeded(
                f"{rejects} consecutive rejections; "
                "enumeration already covers nearly all of the tail"
            )
    return np.concatenate(accepted)


@dataclass(frozen=True)
class ConfidenceInterval:
    alpha: float
    lower: float
    upper: float
    theta_hat: float
    n: int


def _kl(p: float, q: float) -> float:
    term1 = p * math.log(p / q) if p > 0.0 else 0.0
    term2 = (1.0 - p) * math.log((1.0 - p) / (1.0 - q)) if p < 1.0 else 0.0
    return term1 + term2


def _solve_kl(theta: float, target: float, lo: float, hi: float, rising: bool) -> float:
    """Root of KL(theta||q) = target for q in [lo, hi], monotone side."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-12:
            break
        val = _kl(theta, mid)
        # On [theta, 1): KL rises in q, so the root is above any mid with
        # val < target; on (0, theta] KL falls in q and the logic flips.
        if (val < target) == rising:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kl_confidence_interval(theta_hat: float, n: int, alpha: float) -> ConfidenceInterval:
    """1-alpha interval for a Bernoulli parameter from its sample mean."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 <= theta_hat <= 1.0:
        raise ValueError("theta_hat must lie in [0, 1]")
    if theta_hat == 0.0:
        return ConfidenceInterval(alpha, 0.0, 1.0 - (alpha / 2.0) ** (1.0 / n), theta_hat, n)
    if theta_hat == 1.0:
        return ConfidenceInterval(alpha, (alpha / 2.0) ** (1.0 / n), 1.0, theta_hat, n)
    target = math.log(2.0 / alpha) / n
    lower = _solve_kl(theta_hat, target, 0.0, theta_hat, rising=False)
    upper = _solve_kl(theta_hat, target, theta_hat, 1.0, rising=True)
    return ConfidenceInterval(alpha, lower, upper, theta_hat, n)


def probabilistic_bounds(acc: BoundAccumulators, ci: ConfidenceInterval) -> tuple[float, float, float]:
    """Combine enumerated mass with the sampled unexplored fraction:
    p_L in [sum_L + (1-sum_S)*ci.lower, sum_L + (1-sum_S)*ci.upper] with
    probability >= 1-alpha.  Always nested in the sound interval."""
    unexplored = max(0.0, 1.0 - acc.sum_s.total)
    lower = acc.sum_l.total + unexplored * ci.lower
    upper = acc.sum_l.total + unexplored * ci.upper
    return lower, upper, ci.alpha


def direct_sampling_interval(model, v, decoder, n: int, alpha: float, rng_seed) -> tuple[float, float]:
    """Baseline: estimate the rate by N unconditional samples and return
    the KL-Chernoff interval around the sample mean."""
    rng = _as_rng(rng_seed)
    varr = np.asarray(v, dtype=float)
    classify = LogicalErrorClassifier(model, decoder)
    hits = 0
    remaining = n
    while remaining > 0:
        take = min(remaining, _BATCH)
        supp = supports_of_words(words_of_bits(_draw_batch(varr, rng, take)), varr.size)
        hits += int(np.count_nonzero(classify(supp.T)))
        remaining -= take
    ci = kl_confidence_interval(hits / n, n, alpha)
    return ci.lower, ci.upper
