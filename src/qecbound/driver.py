"""End-to-end orchestration: enumerate, decode, classify, refresh bounds.

One block core serves both modes.  The visit order is read in blocks of
support rows from one `errorspace.VisitOrder`, the weight order: `hamming`
reads it as it is; `local-flip` follows each logical error found in it
with its unvisited one-bit flips, in ascending bit-set order, before the
order resumes.  The order is also the visited set: its visited prefix,
which `next_block` advances by the in-order rows it used (the walk's
skips too), plus the walk's detours as extras.  No string is visited
twice, so `len(order)` is the number of visits: the refill and the
checkpoint loop both read it, and a run is exhausted once it has visited
2^n strings.
Each block gets its minterms with numpy, and its decoder verdicts from a
`LogicalErrorClassifier` made for the run, which sends the unique
syndromes it has not seen to one `decode_words` call.  Both strategies
refill alike: once the last block is read and no detour is pending, the
next min(`BLOCK_ROWS`, visits left) strings of the order are evaluated
ahead of the checkpoints.  The checkpoint loop reads the block in slices
(the walk puts each slice's detours in their places), so the tail
sampler sees only the visited strings.  A refill never asks for
more strings than the run has visits left, a time limit is overrun by at
most one block, and the tail sampler draws no batch past it.

Both modes run one checkpoint loop, `_checkpoints`: it feeds each block
to the mode's sink (the two running sums, or the two minterm stores) and
yields at 1, 2, 4, ... shots and at the end.
`_sound_record` widens each checkpoint's bounds by the floating-point
margin and clamps them into the previous sound record, so sound records
never widen; the final summary is the last one, or an exhausted run's
exact value.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .compiler import DetectorErrorModel, write_symbolic_dem
from .decoders import Decoder, LogicalErrorClassifier
from .errorspace import (
    STRATEGIES,
    VisitOrder,
    ints_of,
    n_words,
    supports_of_words,
    words_of,
)
from .polynomial import (
    F_MAX_DEFAULT,
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
    TailSampler,
    kl_confidence_interval,
    probabilistic_bounds,
    sample_unseen_batch,
)

# Most bitstrings evaluated at once: bounds memory and time-limit overrun.
BLOCK_ROWS = 2048
TERM_CAP_DEFAULT = 10_000_000


@dataclass(frozen=True)
class RunConfig:
    mode: str = "accuracy"  # accuracy | robustness
    strategy: str = "hamming"
    max_shots: int | None = None
    time_limit: float | None = None  # seconds
    sample_count: int = 0  # per-checkpoint samples; accuracy mode only
    alpha: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("accuracy", "robustness"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r} (expected one of {STRATEGIES})")
        limits = ("max_shots", "time_limit")  # None: no limit
        for name, kind in (("max_shots", int), ("time_limit", Real), ("sample_count", int),
                           ("seed", int), ("alpha", Real)):
            value = getattr(self, name)
            if ((value is not None or name not in limits)
                    and (isinstance(value, bool) or not isinstance(value, kind))):
                what = "an integer" if kind is int else "a real number"
                raise ValueError(f"{name} must be {what}")
        for name in limits + ("sample_count", "seed"):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # NaN too
                raise ValueError(f"{name} must be >= 0")
        if self.mode == "robustness" and self.sample_count:
            raise ValueError("sampling is supported in accuracy mode only")
        if self.sample_count and not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


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


@dataclass
class _Rows:
    """Evaluated bitstrings in visit order."""

    masks: np.ndarray | None  # [B, ceil(n/64)] uint64 channel bit sets
    logical: np.ndarray  # decoder prediction differs from the observables
    prob: np.ndarray | None  # minterm at the run's point (accuracy mode)

    def __len__(self) -> int:
        return len(self.logical)

    def select(self, idx) -> "_Rows":
        return _Rows(None if self.masks is None else self.masks[idx], self.logical[idx],
                     None if self.prob is None else self.prob[idx])


class _BlockCore:
    """One run's visit order as evaluated blocks.  For every strategy a
    refill asks for at most the visits the run has left (`len(order)`
    counts in-order rows and detours alike), and a time limit is overrun
    by at most one block."""

    def __init__(self, model: DetectorErrorModel, decoder: Decoder,
                 config: RunConfig, evaluator: MintermEvaluator | None) -> None:
        self.n = model.n_channels
        self.classify = LogicalErrorClassifier(model, decoder)
        self.evaluator = evaluator
        self.order = VisitOrder(self.n)
        self.max_shots = 1 << self.n if config.max_shots is None else min(config.max_shots,
                                                                         1 << self.n)
        self.walks = config.strategy == "local-flip"
        # the walk reads the strings, and robustness stores them
        self.keep_masks = self.walks or evaluator is None
        self.pending: deque[int] = deque()  # detour still to visit
        # In-order rows evaluated ahead, read in slices.
        self.rows = _Rows(None, np.zeros(0, dtype=bool), None)
        self.cursor = 0  # rows[:cursor] are visited
        self.ints: list[int] = []  # the walk's reading of rows: bit sets and verdicts
        self.flags: list[bool] = []

    def evaluate(self, supp: np.ndarray) -> _Rows:
        """Evaluate padded support rows; their bit sets only when a reader
        needs them."""
        cols = supp.T
        fp = self.classify.footprints
        return _Rows(fp.xor(fp.chan, cols) if self.keep_masks else None, self.classify(cols),
                     None if self.evaluator is None else self.evaluator.block(cols))

    def supports(self, masks: list[int]) -> np.ndarray:
        """Padded support rows of Python-int bitstrings (the walk's
        detours)."""
        return supports_of_words(words_of(masks, n_words(self.n)), self.n)

    def _read_ahead(self, m: int) -> None:
        """Evaluate the next m strings of the order into the buffer."""
        self.rows, self.cursor = self.evaluate(self.order.read(m)), 0
        if self.walks:
            self.ints, self.flags = ints_of(self.rows.masks), self.rows.logical.tolist()

    def next_block(self, limit: int) -> _Rows:
        """The next at most `limit` bitstrings of the visit order, now marked
        visited (possibly none; at least one while any is unvisited)."""
        if self.cursor == len(self.rows) and not self.pending:
            self._read_ahead(min(BLOCK_ROWS, self.max_shots - len(self.order)))
        start = self.cursor
        if self.walks:
            block = self._walk(limit)
        else:
            block = self.rows.select(slice(self.cursor, self.cursor + limit))
            self.cursor += len(block)
        self.order.advance(self.cursor - start)
        return block

    def _walk(self, limit: int) -> _Rows:
        """The `local-flip` walk: the next at most `limit` visits.  A logical
        error in the weight order queues its unvisited neighbours, which go
        before the next in-order row; rows a detour visited are skipped.
        The detours are evaluated together and put in their places."""
        extras = self.order.extras
        picked: list[int] = []  # buffer rows, -1 for a detour
        detours: list[int] = []
        while len(picked) < limit:
            if self.pending:
                e = self.pending.popleft()
                extras.add(e)
                picked.append(-1)
                detours.append(e)
                continue
            if self.cursor == len(self.ints):
                break
            i = self.cursor
            self.cursor += 1
            m = self.ints[i]
            if m in extras:
                extras.discard(m)  # the in-order prefix now holds it
                continue
            picked.append(i)
            if self.flags[i]:
                self.pending.extend(self._detour(m))
        idx = np.array(picked, dtype=np.intp)
        block = self.rows.select(np.maximum(idx, 0))
        if detours:
            at = np.flatnonzero(idx < 0)
            d = self.evaluate(self.supports(detours))
            block.masks[at], block.logical[at] = d.masks, d.logical
            if d.prob is not None:
                block.prob[at] = d.prob
        return block

    def _detour(self, mask: int) -> list[int]:
        """The unvisited one-bit flips of `mask`, the last string of the
        in-order prefix, in ascending order.  A flip that clears a bit lands
        inside the prefix, so only those that set a bit are left; they lie
        past it and are visited as extras."""
        extras = self.order.extras
        return [e for i in range(self.n)
                if not mask >> i & 1 and (e := mask | 1 << i) not in extras]


def _checkpoints(core: _BlockCore, deadline: float | None, sink):
    """Feed the visit order to `sink` in blocks, yielding the enumerated
    shots (`len(core.order)`) at 1, 2, 4, ... and, when enumeration
    advanced past the last checkpoint, once more at the end.  Enumeration stops at `max_shots`,
    at the deadline, or once all 2^n strings are visited (exhausted)."""
    order, max_shots, next_cp = core.order, core.max_shots, 1
    while ((shots := len(order)) < max_shots
           and (deadline is None or time.monotonic() <= deadline)):
        sink(core.next_block(min(BLOCK_ROWS, next_cp - shots, max_shots - shots)))
        if len(order) == next_cp:
            yield next_cp
            next_cp *= 2
    if 2 * shots != next_cp:
        yield shots


def _sound_record(trace: BoundsTrace, shots: int, lower: float, upper: float, t0: float,
                  **exact) -> bool:
    """Append the sound record for the bounds [lower, upper]: widened by the
    floating-point margin, then clamped into the previous sound record, so
    no sound record is wider than the one before.  Returns whether the
    widened lower bound is not below the previous one."""
    lower, upper = max(0.0, lower - FP_MARGIN), min(1.0, upper + FP_MARGIN)
    sound = trace.sound_records
    prev_lower, prev_upper = (sound[-1].lower, sound[-1].upper) if sound else (0.0, 1.0)
    trace.records.append(TraceRecord(shots, max(prev_lower, lower), min(prev_upper, upper),
                                     True, time.monotonic() - t0, **exact))
    return lower >= prev_lower


def _finish(trace: BoundsTrace, shots: int, exhausted: bool, value: float | None,
            **extra) -> BoundsTrace:
    """Set the final summary: the exact value on both sides when there is
    one (no soundness margin applied), else the last sound record.  At
    exhaustion it is not taken as 1 - (sum_S - sum_L), which keeps only
    about 16 absolute digits of a small rate."""
    rec = trace.sound_records[-1]
    lo, hi = (rec.lower, rec.upper) if value is None else (value, value)
    trace.final = {"shots": shots, "exhausted": exhausted, "lower": lo, "upper": hi, **extra}
    return trace


def _header(model: DetectorErrorModel, config: RunConfig, **extra) -> dict:
    return {
        "config": {k: getattr(config, k) for k in RunConfig.__dataclass_fields__},
        "model_digest": model_digest(model),
        "n_channels": model.n_channels,
        "n_detectors": model.n_detectors,
        "n_observables": model.n_observables,
        "seed": config.seed,
        **extra,
    }


def run_accuracy(model: DetectorErrorModel, decoder: Decoder, v,
                 config: RunConfig) -> BoundsTrace:
    """Bound the logical error rate at the concrete point v."""
    if config.mode != "accuracy":
        raise ValueError(f"run_accuracy needs mode 'accuracy', not {config.mode!r}")
    v = tuple(float(x) for x in v)
    evaluator = MintermEvaluator(v)  # validates v in [0,1)^n
    core = _BlockCore(model, decoder, config, evaluator)
    acc = BoundAccumulators()
    # Made only when sampling: the generator costs megabytes of RSS.
    rng = np.random.default_rng(config.seed) if config.sample_count else None
    tail = TailSampler(v) if config.sample_count else None
    t0 = time.monotonic()
    # Enumeration and the tail sampler stop here.
    deadline = None if config.time_limit is None else t0 + config.time_limit
    trace = BoundsTrace(header=_header(model, config))
    sampled = 0

    def sink(rows: _Rows) -> None:
        acc.accumulate_block(rows.prob, rows.logical)

    for shots in _checkpoints(core, deadline, sink):
        _sound_record(trace, shots + sampled, *accuracy_bounds(acc), t0)
        if not config.sample_count or shots == 1 << core.n:
            continue
        try:
            samples = sample_unseen_batch(tail, core.order, rng, config.sample_count,
                                          deadline=deadline)
        except RejectionGuardExceeded:
            continue
        if not len(samples):  # the time limit passed before the first batch
            continue
        hits = int(np.count_nonzero(core.classify(supports_of_words(samples, core.n).T)))
        sampled += len(samples)
        ci = kl_confidence_interval(hits / len(samples), len(samples), config.alpha)
        plo, phi, alpha = probabilistic_bounds(acc, ci)
        trace.records.append(TraceRecord(shots + sampled, plo, phi, False,
                                         time.monotonic() - t0, alpha=alpha))
    # At exhaustion sum_L is the exact rate.
    exhausted = shots == 1 << core.n
    return _finish(trace, shots + sampled, exhausted, acc.sum_l.total if exhausted else None)


def run_robustness(model: DetectorErrorModel, decoder: Decoder,
                   box: Hyperrectangle, config: RunConfig) -> BoundsTrace:
    """Bound the worst-case logical error rate over the box.

    The decoder is fixed; only the channel probabilities vary over the
    box.  L-intersect-S and S-minus-L are kept as explicit minterm stores;
    past the term cap the upper-bound side freezes at its last sound value
    while lower bounds keep refining.
    """
    if config.mode != "robustness":
        raise ValueError(f"run_robustness needs mode 'robustness', not {config.mode!r}")
    n = model.n_channels
    if box.n != n:
        raise ValueError("box dimension must equal the channel count")
    core = _BlockCore(model, decoder, config, None)
    t0 = time.monotonic()
    # Enumeration and vertex search stop here; a truncated search is flagged inexact.
    deadline = None if config.time_limit is None else t0 + config.time_limit
    trace = BoundsTrace(header=_header(
        model, config, box={"lower": list(box.lower), "upper": list(box.upper)}))
    l_store = MintermStore(n)
    s_not_l_store = MintermStore(n)
    witness: tuple[float, ...] | None = None

    def sink(rows: _Rows) -> None:
        l_store.extend(rows.masks[rows.logical])
        s_not_l_store.extend(rows.masks[~rows.logical][:TERM_CAP_DEFAULT - len(s_not_l_store)])

    for shots in _checkpoints(core, deadline, sink):
        # Every string went to one store: S-minus-L dropped some past the cap.
        frozen = shots - len(l_store) > TERM_CAP_DEFAULT
        rb = robustness_bounds(l_store, None if frozen else s_not_l_store, box,
                               f_max=F_MAX_DEFAULT, deadline=deadline)
        if _sound_record(trace, shots, rb.lower, rb.upper, t0,
                         lower_exact=rb.lower_exact, upper_exact=rb.upper_exact):
            witness = rb.witness_vertex
    # Exhausted with exact optimization, the maximum of p_L is the worst-case rate.
    exhausted = shots == 1 << n
    exact = exhausted and rb.lower_exact and rb.upper_exact
    return _finish(trace, shots, exhausted, rb.lower if exact else None,
                   witness_vertex=None if witness is None else list(witness),
                   exact=[rb.lower_exact, rb.upper_exact], upper_frozen=frozen)
