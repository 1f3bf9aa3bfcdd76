"""Exact logical error rates of block-structured models.

The benchmark's models are independent blocks (no detector is shared
between blocks) that all flip the same single observable.  Greedy and ML
decoding both factor over such blocks, so with q_b the failure rate of
block b alone, the rate of the whole model is (1 - prod(1 - 2 q_b)) / 2,
the probability that an odd number of blocks fail.  Each q_b comes from
the 2^|b| strings of its block.  Nothing here uses the enumeration, the
accumulators or the bound arithmetic under test.
"""

from __future__ import annotations

import math


def blocks(det_footprints) -> list[list[int]]:
    """Channel indices grouped into components that share detectors."""
    parent = list(range(len(det_footprints)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for i, fp in enumerate(det_footprints):
        d = 0
        while fp >> d:
            if fp >> d & 1:
                if d in owner:
                    parent[find(i)] = find(owner[d])
                else:
                    owner[d] = i
            d += 1
    groups: dict[int, list[int]] = {}
    for i in range(len(det_footprints)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def _block_strings(block, rates, det_fp, obs_fp):
    """(probability, syndrome, observable) for every string of one block."""
    out = []
    for m in range(1 << len(block)):
        p, s, o = 1.0, 0, 0
        for j, ch in enumerate(block):
            if m >> j & 1:
                p *= rates[ch]
                s ^= det_fp[ch]
                o ^= obs_fp[ch]
            else:
                p *= 1.0 - rates[ch]
        out.append((p, s, o))
    return out


def _combine(qs) -> float:
    return (1.0 - math.prod(1.0 - 2.0 * q for q in qs)) / 2.0


def _check_single_observable(obs_fp) -> None:
    if any(o >> 1 for o in obs_fp):
        raise ValueError("the block oracle needs a single observable")


def rate_with_decoder(rates, det_fp, obs_fp, decode) -> float:
    """Exact rate of `decode` (syndrome -> observable bits) at `rates`.

    The decoder sees each block's syndrome with every other block silent;
    for a decoder that factors over blocks that is its whole decision.
    """
    _check_single_observable(obs_fp)
    qs = []
    for block in blocks(det_fp):
        qs.append(sum(p for p, s, o in _block_strings(block, rates, det_fp, obs_fp)
                      if decode(s) != o))
    return _combine(qs)


def ml_rate(rates, det_fp, obs_fp) -> float:
    """Exact rate of maximum-likelihood decoding at `rates`.

    Per block, each syndrome decodes to its more probable observable
    value, ties to 0, independently of the decoder under test.
    """
    _check_single_observable(obs_fp)
    qs = []
    for block in blocks(det_fp):
        mass: dict[int, list[float]] = {}
        for p, s, o in _block_strings(block, rates, det_fp, obs_fp):
            mass.setdefault(s, [0.0, 0.0])[o] += p
        qs.append(sum(m1 if m1 <= m0 else m0 for m0, m1 in mass.values()))
    return _combine(qs)


def syndrome_count(det_fp) -> int:
    """Number of distinct syndromes the model can produce (the ML table size)."""
    total = 1
    for block in blocks(det_fp):
        seen = set()
        for m in range(1 << len(block)):
            s = 0
            for j, ch in enumerate(block):
                if m >> j & 1:
                    s ^= det_fp[ch]
            seen.add(s)
        total *= len(seen)
    return total
