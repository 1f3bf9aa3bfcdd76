"""Hybrid sampling support: rejection sampling of unseen bitstrings and
KL-Chernoff confidence intervals.

The rejection sampler draws each channel bit independently and redraws on
membership in the visited set, so accepted samples follow the model's
error distribution conditioned on the unexplored space.  Intervals invert
the Kullback-Leibler form of the Chernoff bound by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoders import LogicalErrorClassifier
from .errorspace import VisitedSet, supports_of_bits
from .polynomial import BoundAccumulators

REJECTION_GUARD = 1_000_000
_BATCH = 1 << 14


class RejectionGuardExceeded(RuntimeError):
    """The visited set covers nearly all probability mass; stop sampling."""


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _draw_batch(v: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """[count, n] bool rows of independent Bernoulli(v_i) draws."""
    return rng.random((count, v.size)) < v


def sample_unseen_batch(v, visited: VisitedSet, rng, count: int,
                        guard: int = REJECTION_GUARD) -> list[int]:
    """Draw `count` bitstrings from the model distribution conditioned on
    the complement of `visited`.  Raises RejectionGuardExceeded after
    `guard` consecutive rejections."""
    rng = _as_rng(rng)
    varr = np.asarray(v, dtype=float)
    accepted: list[int] = []
    rejects = 0  # consecutive rejections since the last acceptance
    while len(accepted) < count:
        bits = _draw_batch(varr, rng, _BATCH)
        # Everything below the complete weight is certainly a member, so
        # only the other draws become Python ints.
        survivors = np.flatnonzero(bits.sum(axis=1) >= visited.complete_weight)
        packed = np.packbits(bits[survivors], axis=1, bitorder="little")
        masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
        last_accept = -1
        for idx, e in zip(survivors.tolist(), masks):
            if e not in visited:
                rejects = 0
                last_accept = idx
                accepted.append(e)
                if len(accepted) == count:
                    break
        rejects += _BATCH - 1 - last_accept if last_accept >= 0 else _BATCH
        if rejects >= guard and len(accepted) < count:
            raise RejectionGuardExceeded(
                f"{rejects} consecutive rejections; "
                "enumeration already covers nearly all mass"
            )
    return accepted


def sample_unseen(model, v, visited: VisitedSet, rng) -> int:
    """Single conditioned draw; see sample_unseen_batch."""
    return sample_unseen_batch(v, visited, rng, 1)[0]


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
        supp = supports_of_bits(_draw_batch(varr, rng, take))
        hits += int(np.count_nonzero(classify(supp.T)))
        remaining -= take
    ci = kl_confidence_interval(hits / n, n, alpha)
    return ci.lower, ci.upper
