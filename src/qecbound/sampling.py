"""Hybrid sampling support: exact sampling of unseen bitstrings and
KL-Chernoff confidence intervals.

Every string of weight below c, the lowest weight of any unvisited string,
is visited, so the unexplored space lies in the tail "weight >= c".  The
sampler draws from the model's distribution conditioned on that tail
exactly, channel by channel from a table of tail probabilities, and
rejects only the visited strings of the tail.  Accepted samples therefore
follow the model's error distribution conditioned on the unexplored space,
at any noise level.  Intervals invert the Kullback-Leibler form of the
Chernoff bound by bisection.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .decoders import LogicalErrorClassifier
from .errorspace import VisitOrder, ints_of, n_words, supports_of_words, words_of_bits
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


def _draw_tail(v: np.ndarray, lg: np.ndarray, rng: np.random.Generator,
               count: int) -> list[int]:
    """`count` bitstrings drawn from the model conditioned on weight >= c,
    where c is the last column of the tail table `lg`.  Channel i is set
    with probability v_i g[i+1, need-1] / g[i, need], where `need` is how
    many more set bits the row still needs."""
    n = v.size
    lv = np.log(v)
    u = rng.random((n, count))
    need = np.full(count, lg.shape[1] - 1)
    words = np.zeros((count, n_words(n)), dtype=np.uint64)
    for i in range(n):
        bit = u[i] < np.exp(lv[i] + lg[i + 1, np.maximum(need - 1, 0)] - lg[i, need])
        words[:, i >> 6] |= bit.astype(np.uint64) << np.uint64(i & 63)
        need = np.maximum(need - bit, 0)
    return ints_of(words)


def sample_unseen_batch(v, visited: VisitOrder, rng, count: int,
                        guard: int = REJECTION_GUARD,
                        deadline: float | None = None) -> list[int]:
    """Draw `count` bitstrings from the model distribution conditioned on
    the complement of `visited`, which answers `e in visited` and
    `visited.lowest_unvisited_weight()` (a run passes its `VisitOrder`).
    Draws come from the tail weight >= c, with c the lowest unvisited
    weight, and visited strings of that tail are redrawn.  Once `deadline`
    (a `time.monotonic()` value) has passed, no further batch is drawn and
    the samples accepted so far, possibly none, are returned.  Raises
    RejectionGuardExceeded after `guard` consecutive rejections, or at
    once when every string is visited."""
    rng = _as_rng(rng)
    varr = np.asarray(v, dtype=float)
    c = visited.lowest_unvisited_weight()
    if c > varr.size:
        raise RejectionGuardExceeded("every bitstring is visited")
    lg = _tail_table(varr, c)
    seen = visited.__contains__
    accepted: list[int] = []
    rejects = 0  # consecutive rejections since the last acceptance
    while len(accepted) < count:
        if deadline is not None and time.monotonic() > deadline:
            break
        # Twice the shortfall, and more after rejections, so that a nearly
        # visited tail reaches the guard in a few batches.
        size = min(_BATCH, 2 * (count - len(accepted)) + rejects)
        for e in _draw_tail(varr, lg, rng, size):
            if seen(e):
                rejects += 1
                continue
            rejects = 0
            accepted.append(e)
            if len(accepted) == count:
                break
        if rejects >= guard and len(accepted) < count:
            raise RejectionGuardExceeded(
                f"{rejects} consecutive rejections; "
                "enumeration already covers nearly all of the tail"
            )
    return accepted


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
