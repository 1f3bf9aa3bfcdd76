"""Decoders behind a uniform black-box interface.

A decoder maps a syndrome (int bitmask over detectors) to predicted
observable bits (int bitmask over observables) and is stateless across
shots.  Built-ins: an exact maximum-likelihood lookup table and a greedy
footprint-peeling heuristic.  External decoders attach over a
line-oriented subprocess protocol:

    analyzer -> INIT <n_det> <n_obs>
    decoder  -> READY
    analyzer -> DECODE <k>, then k lines of n_det chars from {0,1}
    decoder  -> k lines of n_obs chars from {0,1}
    analyzer -> QUIT

Batched decoding.  The enumeration core and the samplers classify whole
blocks of bitstrings with `LogicalErrorClassifier`: the block's unique
syndromes that are not yet in its syndrome -> prediction cache go to one
`decode_batch` call.  The cache belongs to the classifier, which lives
for one run, so repeated runs make the same decoder calls.
`GreedyDecoder.decode_batch` peels a whole batch in rounds: each round
scores every distinct residual once against every channel in one
[rows, channels] array and XORs in each row's best channel.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass, field

# Package modules before numpy: compiled first, their source's compile
# memory is reused by numpy's import, which keeps peak RSS down when no
# bytecode cache is written.
from .compiler import DetectorErrorModel
from .polynomial import MintermEvaluator
from .errorspace import (
    Footprints,
    bit_columns,
    bits_of,
    bits_to_str,
    ints_of,
    n_words,
    row_keys,
    str_to_bits,
    words_of,
)

import numpy as np

ML_CHANNEL_CAP = 24
EXTERNAL_BATCH = 1024
# The ML table is built from at most this many bitstrings at a time.
ML_CHUNK = 1 << 16
# Syndromes a LogicalErrorClassifier caches at most: its inserts copy the
# cache, and a long run can see a new syndrome in nearly every string.
CACHE_CAP = 1 << 18
# Cells of each [rows, channels] score array `GreedyDecoder.decode_batch`
# makes; its rows are a chunk of the distinct residuals.
GREEDY_CELLS = 1 << 14
# Seconds `ExternalDecoder.close` waits for the child to exit after QUIT
# before killing it.
CLOSE_TIMEOUT = 10.0


class ProtocolError(RuntimeError):
    pass


def _obs_sort_key(mask: int, n_obs: int):
    # lexicographic on the textual rendering, bit 0 leftmost
    return tuple(mask >> i & 1 for i in range(n_obs))


class Decoder:
    """Base interface; subclasses implement decode(syndrome) -> int."""

    kind: str
    n_det: int
    n_obs: int

    def decode(self, syndrome: int) -> int:
        raise NotImplementedError

    def decode_batch(self, syndromes) -> list[int]:
        return [self.decode(s) for s in syndromes]

    def close(self) -> None:
        pass


@dataclass
class MlDecoder(Decoder):
    """Exact maximum-likelihood lookup built by full error enumeration.

    Ties break toward the all-zeros observable pattern, then
    lexicographically.  Syndromes impossible under the model decode to
    all-zeros.
    """

    n_det: int
    n_obs: int
    table: dict[int, int]
    kind: str = "ml-lookup"

    def decode(self, syndrome: int) -> int:
        return self.table.get(syndrome, 0)


def _unique_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(words, axis=0, return_inverse=True), by a lexsort of the
    columns (several times faster than sorting rows as opaque bytes)."""
    order = np.lexsort(words.T[::-1])
    rows = words[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inv = np.empty(len(rows), dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    return rows[first], inv


def build_ml_decoder(model: DetectorErrorModel, v) -> MlDecoder:
    """Sum each (syndrome, observable) class's mass over all 2^n bitstrings,
    in ascending bitstring order, and keep each syndrome's heaviest class."""
    n = model.n_channels
    if n > ML_CHANNEL_CAP:
        raise ValueError(f"{n} channels exceeds the ML enumeration cap {ML_CHANNEL_CAP}")
    evaluator = MintermEvaluator(v)
    fp = Footprints(model)
    wd = fp.det.shape[1]
    slots: dict[tuple[int, int], int] = {}  # (syndrome, observable) -> slot in mass
    mass = np.zeros(0)
    chunk = min(1 << n, ML_CHUNK)
    for e0 in range(0, 1 << n, chunk):
        e = np.arange(e0, e0 + chunk, dtype=np.uint64)
        cols = bit_columns(bits_of(e[:, None], n))
        uniq, inv = _unique_rows(np.hstack((fp.xor(fp.det, cols), fp.xor(fp.obs, cols))))
        ids = np.array([slots.setdefault(key, len(slots))
                        for key in zip(ints_of(uniq[:, :wd]), ints_of(uniq[:, wd:]))])
        mass = np.concatenate((mass, np.zeros(len(slots) - mass.size)))
        # unbuffered and in index order: each class adds its masses in
        # ascending bitstring order, as a sequential loop would
        np.add.at(mass, ids[inv], evaluator.block(cols))
    best: dict[int, tuple] = {}
    table = {}
    for (s, o), m in zip(slots, mass.tolist()):
        key = (-m, o != 0, _obs_sort_key(o, model.n_observables))
        if s not in best or key < best[s]:
            best[s] = key
            table[s] = o
    return MlDecoder(model.n_detectors, model.n_observables, table)


@dataclass
class GreedyDecoder(Decoder):
    """Greedy footprint peeling: repeatedly XOR in the channel whose
    detector footprint best covers the residual syndrome."""

    model: DetectorErrorModel
    kind: str = "greedy"

    def __post_init__(self) -> None:
        self.n_det = self.model.n_detectors
        self.n_obs = self.model.n_observables
        probs = self.model.concrete_probabilities()
        # static tie-break order: higher probability, then lower index
        self._order = sorted(range(self.model.n_channels), key=lambda i: (-probs[i], i))
        self._det = words_of(self.model.det_footprints, n_words(self.n_det))
        self._obs = words_of(self.model.obs_footprints, n_words(self.n_obs))
        # the channels that can score above 0 (an empty footprint never
        # does) in `_order`, with their detector words as [words, channels]
        self._live = np.array([i for i in self._order if self.model.det_footprints[i]],
                              dtype=np.intp)
        self._live_det = np.ascontiguousarray(self._det[self._live].T)
        self._live_weight = np.bitwise_count(self._live_det).sum(axis=0, dtype=np.int32)

    def decode(self, syndrome: int) -> int:
        residual = syndrome
        answer = 0
        while residual:
            best_i = None
            best_score = 0
            for i in self._order:
                fp = self.model.det_footprints[i]
                score = (fp & residual).bit_count() - (fp & ~residual).bit_count()
                if score > best_score:
                    best_score = score
                    best_i = i
            if best_i is None:
                break  # documented give-up: no channel makes progress
            residual ^= self.model.det_footprints[best_i]
            answer ^= self.model.obs_footprints[best_i]
        return answer

    def decode_batch(self, syndromes) -> list[int]:
        """decode() for every syndrome, peeling the whole batch in rounds.  A
        round scores each distinct active residual once against every live
        channel, as a [rows, channels] array of 2 |fp & r| - |fp| (chunks of
        at most `GREEDY_CELLS` cells); the channels lie in `_order`, so
        argmax picks the first strictly best one, as decode() does.  A row
        whose best score is not above 0 gives up."""
        residual = words_of(list(syndromes), self._det.shape[1])
        answer = np.zeros((len(residual), self._obs.shape[1]), dtype=np.uint64)
        det, weight = self._live_det, self._live_weight
        step = max(1, GREEDY_CELLS // max(1, weight.size))
        active = np.flatnonzero(residual.any(axis=1)) if weight.size else np.empty(0, np.intp)
        while active.size:
            _, first, inv = np.unique(row_keys(residual[active]),
                                      return_index=True, return_inverse=True)
            rows = residual[active[first]]
            best = np.empty(len(rows), dtype=np.intp)
            for a in range(0, len(rows), step):
                r = rows[a:a + step]
                score = np.zeros((len(r), weight.size), dtype=np.int32)
                for rw, dw in zip(r.T, det):
                    score += np.bitwise_count(rw[:, None] & dw)
                score *= 2
                score -= weight
                j = score.argmax(axis=1)
                best[a:a + step] = np.where(score[np.arange(len(r)), j] > 0, self._live[j], -1)
            best = best[inv.reshape(-1)]
            found = best >= 0  # rows without a scoring channel give up
            active, best = active[found], best[found]
            residual[active] ^= self._det[best]
            answer[active] ^= self._obs[best]
            active = active[residual[active].any(axis=1)]
        return ints_of(answer)


def build_greedy_decoder(model: DetectorErrorModel, v=None) -> GreedyDecoder:
    if v is not None:
        model = model.with_probabilities(v)
    return GreedyDecoder(model)


@dataclass
class ExternalDecoder(Decoder):
    """Client side of the subprocess wire protocol."""

    command: str
    n_det: int
    n_obs: int
    kind: str = "external"
    batch_size: int = EXTERNAL_BATCH
    _proc: subprocess.Popen = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._proc = subprocess.Popen(
            shlex.split(self.command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        try:
            self._send(f"INIT {self.n_det} {self.n_obs}")
            ready = self._recv()
            if ready != "READY":
                raise ProtocolError(f"expected READY, got {ready!r}")
        except ProtocolError:
            self._proc.kill()
            self._reap()
            raise

    def _send(self, line: str) -> None:
        assert self._proc.stdin is not None
        try:
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
        except BrokenPipeError as exc:
            raise ProtocolError("decoder process closed its input") from exc

    def _recv(self) -> str:
        assert self._proc.stdout is not None
        line = self._proc.stdout.readline()
        if not line:
            raise ProtocolError("decoder process closed its output")
        return line.rstrip("\n")

    def decode(self, syndrome: int) -> int:
        return self.decode_batch([syndrome])[0]

    def decode_batch(self, syndromes) -> list[int]:
        out: list[int] = []
        syndromes = list(syndromes)
        for start in range(0, len(syndromes), self.batch_size):
            chunk = syndromes[start : start + self.batch_size]
            self._send("\n".join([f"DECODE {len(chunk)}",
                                   *(bits_to_str(s, self.n_det) for s in chunk)]))
            for _ in chunk:
                line = self._recv()
                if len(line) != self.n_obs or set(line) - {"0", "1"}:
                    raise ProtocolError(f"malformed decoder reply {line!r}")
                out.append(str_to_bits(line))
        return out

    def close(self) -> None:
        try:
            self._send("QUIT")
        except ProtocolError:
            pass
        try:
            self._proc.wait(timeout=CLOSE_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._proc.kill()
        self._reap()

    def _reap(self) -> None:
        """Wait for the child to exit, then close both pipes."""
        self._proc.wait()
        for pipe in (self._proc.stdin, self._proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:  # unflushed input to a dead child
                pass


class LogicalErrorClassifier:
    """Decoder verdicts for blocks of bitstrings, given as support columns
    (see `errorspace.Footprints`): True where the decoder's prediction for
    the syndrome differs from the observables.

    The cache holds the syndromes decoded so far as one sorted array of
    keys (a syndrome's detector words, as one scalar) with their predicted
    observable words alongside.  A block's unique syndromes that are not
    in it go to one `decode_batch` call, and join it while it holds fewer
    than `CACHE_CAP` entries."""

    def __init__(self, model: DetectorErrorModel, decoder: Decoder) -> None:
        self.footprints = Footprints(model)
        self.decoder = decoder
        self._keys = row_keys(self.footprints.det[:0])
        self._pred = self.footprints.obs[:0]

    def __call__(self, cols: np.ndarray) -> np.ndarray:
        fp = self.footprints
        syn = fp.xor(fp.det, cols)
        keys, inv = np.unique(row_keys(syn), return_inverse=True)
        at = np.searchsorted(self._keys, keys)
        known = at < len(self._keys)
        known[known] = self._keys[at[known]] == keys[known]
        pred = np.empty((len(keys), fp.obs.shape[1]), dtype=np.uint64)
        pred[known] = self._pred[at[known]]
        if not known.all():
            new = ~known
            words = np.ascontiguousarray(keys[new]).view(np.uint64).reshape(-1, syn.shape[1])
            pred[new] = words_of(self.decoder.decode_batch(ints_of(words)), pred.shape[1])
            if len(self._keys) < CACHE_CAP:
                self._keys = np.insert(self._keys, at[new], keys[new])
                self._pred = np.insert(self._pred, at[new], pred[new], axis=0)
        return (pred[inv.reshape(-1)] != fp.xor(fp.obs, cols)).any(axis=1)


def connect_external_decoder(command: str, n_det: int, n_obs: int) -> ExternalDecoder:
    """Spawn `command` and perform the wire-protocol handshake."""
    return ExternalDecoder(command, n_det, n_obs)


def _command(line: str, name: str, n_args: int) -> list[int] | None:
    """The non-negative integer arguments of `line` if it is `name` followed
    by `n_args` of them, else None."""
    toks = line.split()
    if (len(toks) != n_args + 1 or toks[0] != name
            or not all(t.isascii() and t.isdigit() for t in toks[1:])):
        return None
    return [int(t) for t in toks[1:]]


def serve(decoder: Decoder, stdin, stdout) -> None:
    """Server side of the wire protocol (used by `qecbound serve-ml`).  A
    malformed line raises ProtocolError naming it."""
    line = stdin.readline()
    init = _command(line, "INIT", 2)
    if init is None:
        raise ProtocolError(f"bad handshake {line!r}")
    n_det, n_obs = init
    if n_det != decoder.n_det or n_obs != decoder.n_obs:
        raise ProtocolError(
            f"dimension mismatch: got {n_det}x{n_obs}, "
            f"serving {decoder.n_det}x{decoder.n_obs}"
        )
    stdout.write("READY\n")
    stdout.flush()
    while True:
        line = stdin.readline()
        if not line or line.strip() == "QUIT":
            return
        count = _command(line, "DECODE", 1)
        if count is None:
            raise ProtocolError(f"unexpected command {line!r}")
        for _ in range(count[0]):
            s = stdin.readline().strip()
            if len(s) != n_det or set(s) - {"0", "1"}:
                raise ProtocolError(f"malformed syndrome {s!r}")
            pred = decoder.decode(str_to_bits(s))
            stdout.write(bits_to_str(pred, n_obs) + "\n")
        stdout.flush()
