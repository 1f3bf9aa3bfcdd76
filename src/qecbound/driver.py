"""End-to-end orchestration: enumerate, decode, classify, refresh bounds.

Workers own strided cursors over the weight order and are scheduled
cooperatively in worker-id order, so results are deterministic for a
given plan.  A single aggregator owns the accumulators, minterm stores,
visited set, and trace.  Bounds refresh at geometric shot checkpoints
(1, 2, 4, ...) plus a final checkpoint when enumeration advanced past the
last one; each record carries the declared floating-point soundness
margin except the exact final record of an exhausted run.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from dataclasses import dataclass, field

from .compiler import DetectorErrorModel, write_symbolic_dem
from .decoders import Decoder
from .errorspace import (
    EnumerationPlan,
    VisitedSet,
    local_moves_flip,
    local_moves_shift,
    observable_of,
    partition_workers,
    syndrome_of,
)
from .polynomial import (
    FP_MARGIN,
    BoundAccumulators,
    Hyperrectangle,
    MintermEvaluator,
    MintermStore,
    accuracy_bounds,
    robustness_bounds,
)
from .sampling import (
    RejectionGuardExceeded,
    kl_confidence_interval,
    probabilistic_bounds,
    sample_unseen_batch,
)
import numpy as np

TERM_CAP_DEFAULT = 10_000_000


@dataclass(frozen=True)
class RunConfig:
    mode: str = "accuracy"  # accuracy | robustness
    strategy: str = "hamming"
    worker_count: int = 1
    distance_ansatz: int | None = None
    max_shots: int | None = None
    time_limit: float | None = None  # seconds
    sample_count: int = 0  # per-checkpoint samples; accuracy mode only
    alpha: float = 0.01
    seed: int = 0
    f_max: int = 24
    term_cap: int = TERM_CAP_DEFAULT

    def __post_init__(self) -> None:
        if self.mode not in ("accuracy", "robustness"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "robustness" and self.sample_count:
            raise ValueError("sampling is supported in accuracy mode only")

    def plan(self) -> EnumerationPlan:
        return EnumerationPlan(self.strategy, self.worker_count, self.distance_ansatz)


@dataclass(frozen=True)
class TraceRecord:
    shots: int
    lower: float
    upper: float
    sound: bool
    elapsed_s: float
    alpha: float | None = None
    lower_exact: bool | None = None
    upper_exact: bool | None = None


@dataclass
class BoundsTrace:
    header: dict
    records: list[TraceRecord] = field(default_factory=list)
    final: dict = field(default_factory=dict)

    @property
    def sound_records(self) -> list[TraceRecord]:
        return [r for r in self.records if r.sound]


def model_digest(model: DetectorErrorModel) -> str:
    return hashlib.sha256(write_symbolic_dem(model).encode()).hexdigest()[:16]


def convergence_shots(trace: BoundsTrace, ratio: float) -> int | None:
    """First shots value with upper/lower <= ratio (lower must be > 0)."""
    if ratio <= 1.0:
        raise ValueError("ratio must exceed 1")
    for rec in trace.records:
        if rec.lower > 0.0 and rec.upper / rec.lower <= ratio:
            return rec.shots
    return None


def emit_trace(trace: BoundsTrace, sink) -> None:
    """Stream the trace as line-delimited JSON records."""
    sink.write(json.dumps({"header": trace.header}) + "\n")
    for rec in trace.records:
        obj = {
            "shots": rec.shots,
            "lower": rec.lower,
            "upper": rec.upper,
            "sound": rec.sound,
            "elapsed_s": rec.elapsed_s,
        }
        if rec.alpha is not None:
            obj["alpha"] = rec.alpha
        if rec.lower_exact is not None:
            obj["exact"] = [rec.lower_exact, rec.upper_exact]
        sink.write(json.dumps(obj) + "\n")
    sink.write(json.dumps({"final": trace.final}) + "\n")


class _Enumerator:
    """Deterministic cooperative scheduler over worker cursors plus the
    local-search FIFO; yields each bitstring at most once."""

    def __init__(self, plan: EnumerationPlan, n: int, visited: VisitedSet):
        self.cursors = partition_workers(plan, n)
        self.visited = visited
        self.pending: deque[int] = deque()
        self.moves = plan.local_moves
        self.n = n
        self._next_worker = 0

    def push_neighbors(self, mask: int) -> None:
        if not self.moves:
            return
        neighbors: set[int] = set()
        if "flip" in self.moves:
            neighbors |= local_moves_flip(mask, self.n)
        if "shift" in self.moves:
            neighbors |= local_moves_shift(mask, self.n)
        for nb in sorted(neighbors):
            self.pending.append(nb)

    def next(self) -> tuple[int, bool] | None:
        """(bitstring, from_planned_order) or None when exhausted."""
        while self.pending:
            e = self.pending.popleft()
            if e not in self.visited:
                return e, False
        active = [c for c in self.cursors if not c.exhausted]
        while active:
            k = len(self.cursors)
            for _ in range(k):
                cursor = self.cursors[self._next_worker]
                self._next_worker = (self._next_worker + 1) % k
                if cursor.exhausted:
                    continue
                e = cursor.next()
                if e not in self.visited:
                    return e, True
            active = [c for c in self.cursors if not c.exhausted]
        return None


def _sound_record(shots: int, lower: float, upper: float, t0: float) -> TraceRecord:
    lower = max(0.0, lower - FP_MARGIN)
    upper = min(1.0, upper + FP_MARGIN)
    return TraceRecord(shots, lower, upper, True, time.monotonic() - t0)


def run_accuracy(model: DetectorErrorModel, decoder: Decoder, v,
                 config: RunConfig) -> BoundsTrace:
    """Bound the logical error rate at the concrete point v."""
    v = tuple(float(x) for x in v)
    evaluator = MintermEvaluator(v)  # validates v in (0,1)^n
    n = model.n_channels
    visited = VisitedSet(n)
    acc = BoundAccumulators()
    enum = _Enumerator(config.plan(), n, visited)
    rng = np.random.default_rng(config.seed)
    t0 = time.monotonic()

    trace = BoundsTrace(header={
        "config": {k: getattr(config, k) for k in RunConfig.__dataclass_fields__},
        "model_digest": model_digest(model),
        "n_channels": n,
        "n_detectors": model.n_detectors,
        "n_observables": model.n_observables,
        "seed": config.seed,
    })

    shots = 0
    enum_shots = 0
    cp_enum_shots = None  # enumeration count at the last checkpoint
    next_cp = 1
    exhausted = False
    best_lower, best_upper = 0.0, 1.0

    def checkpoint() -> None:
        nonlocal shots, cp_enum_shots, best_lower, best_upper
        cp_enum_shots = enum_shots
        lo, hi = accuracy_bounds(acc)
        rec = _sound_record(shots, lo, hi, t0)
        best_lower = max(best_lower, rec.lower)
        best_upper = min(best_upper, rec.upper)
        rec = TraceRecord(rec.shots, best_lower, best_upper, True, rec.elapsed_s)
        trace.records.append(rec)
        if config.sample_count and not visited.covers_all:
            try:
                samples = sample_unseen_batch(v, visited, rng, config.sample_count)
            except RejectionGuardExceeded:
                return
            hits = 0
            for e in samples:
                pred = decoder.decode(syndrome_of(model, e))
                if pred != observable_of(model, e):
                    hits += 1
            shots += len(samples)
            ci = kl_confidence_interval(hits / len(samples), len(samples), config.alpha)
            plo, phi, alpha = probabilistic_bounds(acc, ci)
            trace.records.append(
                TraceRecord(shots, plo, phi, False, time.monotonic() - t0, alpha=alpha)
            )

    while True:
        if config.max_shots is not None and enum_shots >= config.max_shots:
            break
        if config.time_limit is not None and time.monotonic() - t0 > config.time_limit:
            break
        item = enum.next()
        if item is None:
            exhausted = True
            break
        e, planned = item
        visited.add(e)
        pred = decoder.decode(syndrome_of(model, e))
        is_log = pred != observable_of(model, e)
        acc.accumulate(e, is_log, evaluator)
        if is_log and planned:
            enum.push_neighbors(e)
        shots += 1
        enum_shots += 1
        if enum_shots == next_cp:
            checkpoint()
            next_cp *= 2

    if enum_shots != cp_enum_shots:
        checkpoint()
    # The summary carries raw accumulator values: at exhaustion these are
    # the exact rate (no soundness margin applied).
    lo, hi = accuracy_bounds(acc)
    if exhausted:
        trace.final = {"shots": shots, "exhausted": True, "lower": lo, "upper": hi}
    else:
        rec = trace.sound_records[-1]
        trace.final = {
            "shots": shots,
            "exhausted": False,
            "lower": rec.lower,
            "upper": rec.upper,
        }
    return trace


def run_robustness(model: DetectorErrorModel, decoder: Decoder,
                   box: Hyperrectangle, config: RunConfig) -> BoundsTrace:
    """Bound the worst-case logical error rate over the box.

    The decoder is fixed; only the channel probabilities vary over the
    box.  L-intersect-S and S-minus-L are kept as explicit minterm stores;
    past the term cap the upper-bound side freezes at its last sound value
    while lower bounds keep refining.
    """
    n = model.n_channels
    if box.n != n:
        raise ValueError("box dimension must equal the channel count")
    visited = VisitedSet(n)
    enum = _Enumerator(config.plan(), n, visited)
    t0 = time.monotonic()

    trace = BoundsTrace(header={
        "config": {k: getattr(config, k) for k in RunConfig.__dataclass_fields__},
        "model_digest": model_digest(model),
        "n_channels": n,
        "n_detectors": model.n_detectors,
        "n_observables": model.n_observables,
        "seed": config.seed,
        "box": {"lower": list(box.lower), "upper": list(box.upper)},
    })

    l_store = MintermStore(n)
    s_not_l_store = MintermStore(n)
    upper_frozen = False
    shots = 0
    rb = None  # optimizer result of the last checkpoint
    cp_shots = None  # shots at the last checkpoint
    next_cp = 1
    exhausted = False
    best_lower, best_upper = 0.0, 1.0
    witness: tuple[float, ...] | None = None
    lower_exact = upper_exact = True

    def checkpoint() -> None:
        nonlocal rb, cp_shots, best_lower, best_upper, witness, lower_exact, upper_exact
        cp_shots = shots
        # A frozen upper side keeps its last sound value: skip its optimization.
        rb = robustness_bounds(
            l_store,
            None if upper_frozen else s_not_l_store,
            box,
            f_max=config.f_max,
        )
        lo = max(0.0, rb.lower - FP_MARGIN)
        hi = min(1.0, rb.upper + FP_MARGIN)
        if lo >= best_lower:
            best_lower = lo
            witness = rb.witness_vertex
        if not upper_frozen:
            best_upper = min(best_upper, hi)
        lower_exact, upper_exact = rb.lower_exact, rb.upper_exact and not upper_frozen
        trace.records.append(
            TraceRecord(shots, best_lower, best_upper, True, time.monotonic() - t0,
                        lower_exact=lower_exact, upper_exact=upper_exact)
        )

    while True:
        if config.max_shots is not None and shots >= config.max_shots:
            break
        if config.time_limit is not None and time.monotonic() - t0 > config.time_limit:
            break
        item = enum.next()
        if item is None:
            exhausted = True
            break
        e, planned = item
        visited.add(e)
        pred = decoder.decode(syndrome_of(model, e))
        is_log = pred != observable_of(model, e)
        if is_log:
            l_store.append(e)
            if planned:
                enum.push_neighbors(e)
        else:
            if len(s_not_l_store) < config.term_cap:
                s_not_l_store.append(e)
            else:
                upper_frozen = True
        shots += 1
        if shots == next_cp:
            checkpoint()
            next_cp *= 2

    if shots != cp_shots:
        checkpoint()
    # The summary carries the raw optimizer values: on exhaustion with
    # exact optimization these equal the true worst-case rate.
    if exhausted and rb.lower_exact and rb.upper_exact and not upper_frozen:
        lo, hi = rb.lower, rb.upper
    else:
        lo, hi = best_lower, best_upper
    trace.final = {
        "shots": shots,
        "exhausted": exhausted,
        "lower": lo,
        "upper": hi,
        "witness_vertex": list(witness) if witness is not None else None,
        "exact": [lower_exact, upper_exact],
        "upper_frozen": upper_frozen,
    }
    return trace
