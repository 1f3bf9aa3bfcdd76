"""Decoders behind a uniform black-box interface.

A decoder maps syndromes to predicted observable bits and is stateless
across shots.  A run hands it syndromes as uint64 word rows, [B,
n_words(n_det)], and reads its predictions as [B, n_words(n_obs)] rows
(`Decoder.decode_words`); Python-int bit sets appear only at the edges:
`decode`, `decode_batch` and the wire text.  Built-ins: an exact
maximum-likelihood lookup table and a greedy footprint-peeling
heuristic.  External decoders attach over a line-oriented subprocess
protocol:

    analyzer -> INIT <n_det> <n_obs>
    decoder  -> READY
    analyzer -> DECODE <k>, then k lines of n_det chars from {0,1}
    decoder  -> k lines of n_obs chars from {0,1}
    analyzer -> QUIT

Each end moves a `DECODE k` chunk as arrays, with the same text on the
wire as a line-at-a-time codec.  The client encodes the whole batch in
one pass (words, bits, ASCII '0'/'1' and newlines), cuts each chunk's
lines from it and writes the chunk in one write.  Both ends read the k
lines one `readline` at a time and check each as it arrives, so a bad
or missing line fails at once; the k lines are then packed into words
in one pass.  The server reads a whole batch, decodes it with one
`decode_words` call and answers it in one write, encoded the same way.

The ML table.  `build_ml_decoder` sums each (syndrome, observable)
class's minterms over all 2^n bitstrings in array passes.  The classes
are the GF(2) span of the channels' (detector, observable) words; in a
basis of it, each class is an integer coordinate and each channel XORs
a fixed coordinate in.  The strings over channels 0..i then extend those
over channels 0..i-1 by subset doubling: one XOR of channel i's
coordinate and one multiply by its ratio.  A low table of the lowest k
channels is built this way once; each chunk of high channels XORs its
coordinate into the low classes and scales their minterms, with no sort
and no per-class Python loop.  Each class still sums its minterms in
ascending bitstring order, with every minterm bit-identical to
`MintermEvaluator`'s, so the table equals a sequential loop's entry for
entry, ties included.  One lexsort then picks each syndrome's heaviest
class.

Batched decoding.  The enumeration core and the samplers classify whole
blocks of bitstrings with `LogicalErrorClassifier`: the block's unique
syndromes that are not yet in its `SyndromeCache` (syndrome ->
prediction) go to one `decode_words` call, as word rows.  A user decoder
overrides `decode` or `decode_batch`, on ints, and the base
`decode_words` converts to and from words around it, as it does for
the ML table.  Greedy and the `exec:` client implement `decode_words`
on the words, and their `decode_batch` is the int adapter around it.  The cache belongs to the
classifier, which lives for one run, so repeated runs make the same
decoder calls and each starts cold.  The classifier also hands its cache
to the decoder (`Decoder.use_cache`).  `GreedyDecoder.decode_words`
peels a whole batch in rounds: each round scores the residuals against
every channel in one [rows, channels] array (round 1 the rows as given,
later rounds each distinct residual once) and XORs in each row's best
channel.  The scores come from a table of each channel's score for
every value of every syndrome byte, one gather per byte.
Peeling is recursive, so a row whose residual is then in the cache XORs
in the cached prediction and is done.  The weight order decodes the
lighter errors inside an error before the error itself, so greedy mostly
peels once and reads the rest from the cache: on the bundled 39-channel
model, every syndrome of a `hamming` run.
"""

from __future__ import annotations

import select
import shlex
import subprocess
from dataclasses import dataclass, field
from itertools import islice

# Package modules before numpy: compiled first, their source's compile
# memory is reused by numpy's import, which keeps peak RSS down when no
# bytecode cache is written.
from .compiler import DetectorErrorModel
from .polynomial import MintermEvaluator
from .errorspace import (
    Footprints,
    bits_of,
    bytes_of,
    ints_of,
    key_words,
    n_words,
    row_keys,
    words_of,
    words_of_bits,
)

import numpy as np

ML_CHANNEL_CAP = 24
# Bitstrings in the ML build's low table: the strings of its lowest
# channels, which each chunk of the build extends by its high channels.
ML_CHUNK = 1 << 16
# Syndromes a SyndromeCache takes at most: its inserts copy the cache, and
# a long run can see a new syndrome in nearly every string.
CACHE_CAP = 1 << 18
# Cells of each [rows, channels] score array `GreedyDecoder.decode_words`
# makes; its rows are a chunk of one round's residuals.
GREEDY_CELLS = 1 << 14
# Bytes a greedy decoder's score table may take ([syndrome bytes, 256,
# live channels] int16); past it, scores are counted from the words.  The
# table grows as detectors times channels: 3.3 MB on the d = 7
# repetition-memory circuit.
GREEDY_TABLE_BYTES = 1 << 25
# Seconds `ExternalDecoder.close` waits for the child to exit after QUIT
# before killing it.
CLOSE_TIMEOUT = 10.0


class ProtocolError(RuntimeError):
    pass


class Decoder:
    """Base interface.  A run calls only `decode_words`: [B,
    n_words(n_det)] uint64 syndrome rows in, [B, n_words(n_obs)] uint64
    prediction rows out.  A user decoder overrides `decode` (one int
    syndrome to int observable bits) or `decode_batch` (a list of them);
    the base `decode_words` converts its rows through `decode_batch`,
    which calls `decode` once per syndrome."""

    kind: str
    n_det: int
    n_obs: int

    def decode(self, syndrome: int) -> int:
        raise NotImplementedError

    def decode_batch(self, syndromes) -> list[int]:
        return [self.decode(s) for s in syndromes]

    def decode_words(self, rows: np.ndarray) -> np.ndarray:
        return words_of(self.decode_batch(ints_of(rows)), n_words(self.n_obs))

    def use_cache(self, cache: SyndromeCache) -> None:
        """Take the cache of a run's classifier, which maps syndromes to
        this decoder's own predictions.  Ignored unless overridden."""

    def close(self) -> None:
        pass


class _WordDecoder(Decoder):
    """A decoder whose own method is `decode_words`.  `decode_batch` and
    `decode` are its int edge: a syndrome outside [0, 2^n_det) raises
    ValueError before `decode_words` is called."""

    def decode(self, syndrome: int) -> int:
        return self.decode_batch([syndrome])[0]

    def decode_batch(self, syndromes) -> list[int]:
        syndromes = list(syndromes)
        if syndromes and (min(syndromes) < 0 or max(syndromes) >> self.n_det):
            bad = next(s for s in syndromes if s < 0 or s >> self.n_det)
            raise ValueError(f"syndrome {bad} is outside [0, 2^{self.n_det})")
        return ints_of(self.decode_words(words_of(syndromes, n_words(self.n_det))))


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


def _span_coordinates(vectors: list[int]) -> tuple[list[int], list[int]]:
    """A basis of the GF(2) span of `vectors` (Python-int bit sets), and
    each vector's coordinates: the bit set of the basis vectors whose XOR
    it is."""
    basis: list[int] = []
    pivots: dict[int, int] = {}  # leading bit -> basis index
    coords = []
    for x in vectors:
        c = 0
        while x:
            j = pivots.setdefault(x.bit_length() - 1, len(basis))
            c ^= 1 << j
            if j == len(basis):
                basis.append(x)
                break
            x ^= basis[j]
        coords.append(c)
    return basis, coords


def _doubled(first, steps, combine) -> np.ndarray:
    """Rows [2^i, 2^(i+1)) are combine(rows [0, 2^i), steps[i]), for each
    step in order: row e combines `first` with the steps of e's set bits,
    in ascending bit order."""
    out = np.empty((1 << len(steps), *np.shape(first)), dtype=np.asarray(first).dtype)
    out[0] = first
    for i, step in enumerate(steps):
        combine(out[:1 << i], step, out=out[1 << i:2 << i])
    return out


def build_ml_decoder(model: DetectorErrorModel, v) -> MlDecoder:
    """Sum each (syndrome, observable) class's mass over all 2^n bitstrings,
    in ascending bitstring order, and keep each syndrome's heaviest class.

    A class is named by its coordinates in a basis of the span of the
    channels' (detector, observable) words, so the 2^r classes are the
    indices of one dense mass array.  Bitstring h * 2^k + l is read as
    chunk h, low string l, with 2^k the smaller of 2^n and `ML_CHUNK`.
    The low strings' classes and minterms are built once by doubling (see
    `_doubled`); chunk h XORs the low classes with its high channels'
    class and multiplies the low minterms by its high channels' ratios one
    at a time.  Every minterm is thus the product of `base` and its
    channels' ratios in ascending channel order, as `MintermEvaluator`
    computes it, and `np.add.at` adds each chunk in index order, so each
    class sums its minterms in ascending bitstring order, as a sequential
    loop would."""
    n = model.n_channels
    if n > ML_CHANNEL_CAP:
        raise ValueError(f"{n} channels exceeds the ML enumeration cap {ML_CHANNEL_CAP}")
    evaluator = MintermEvaluator(v)
    wd, wo = n_words(model.n_detectors), n_words(model.n_observables)
    basis, coords = _span_coordinates([d | o << 64 * wd for d, o in
                                       zip(model.det_footprints, model.obs_footprints)])
    k = min(n, ML_CHUNK.bit_length() - 1)
    low = _doubled(0, coords[:k], np.bitwise_xor)
    low_prob = _doubled(evaluator.base, evaluator.ratio[:k], np.multiply)
    mass = np.zeros(1 << len(basis))
    for h, c in enumerate(_doubled(0, coords[k:], np.bitwise_xor).tolist()):
        prob = low_prob
        for j in range(n - k):
            if h >> j & 1:
                prob = prob * evaluator.ratio[k + j]
        np.add.at(mass, low ^ c, prob)
    # per syndrome, the heaviest class; ties go lexicographically on the
    # observable bits, bit 0 first, which puts all-zeros first
    words = _doubled(np.zeros(wd + wo, dtype=np.uint64), words_of(basis, wd + wo), np.bitwise_xor)
    syn, obs = words[:, :wd], words[:, wd:]
    order = np.lexsort((*bits_of(obs, model.n_observables).T[::-1], -mass, *syn.T))
    syn, obs = syn[order], obs[order]
    first = np.ones(len(syn), dtype=bool)
    first[1:] = (syn[1:] != syn[:-1]).any(axis=1)
    return MlDecoder(model.n_detectors, model.n_observables,
                     dict(zip(ints_of(syn[first]), ints_of(obs[first]))))


@dataclass
class GreedyDecoder(_WordDecoder):
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
        # Row 256 i + b, column c: 2 |b & fp| for byte value b at byte i of
        # channel c's footprint fp.  int16 holds every score below 2^15
        # detectors.
        n_bytes = -(-self.n_det // 8)
        self._byte_rows = 256 * np.arange(n_bytes)  # each syndrome byte's first row
        if self.n_det < 1 << 15 and 512 * n_bytes * self._live.size <= GREEDY_TABLE_BYTES:
            fp = bytes_of(self._live_det.T)[:, :n_bytes].T
            table = np.empty((n_bytes, 256, self._live.size), dtype=np.int16)
            # built in place: temporaries would raise the peak RSS of a run
            np.bitwise_and(np.arange(256, dtype=np.uint8)[:, None], fp[:, None, :], out=table)
            np.bitwise_count(table, out=table)
            table <<= 1
            self._table = table.reshape(256 * n_bytes, self._live.size)
        else:
            self._table = None
        weight = np.bitwise_count(self._live_det).sum(axis=0, dtype=np.int32)
        self._live_weight = weight if self._table is None else weight.astype(np.int16)
        self._cache = SyndromeCache(self._det.shape[1], self._obs.shape[1])

    def use_cache(self, cache: SyndromeCache) -> None:
        self._cache = cache

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

    def _scores(self, rows: np.ndarray) -> np.ndarray:
        """[len(rows), live channels] array of 2 |fp & r| - |fp| for residual
        word rows r: -|fp| plus one gather from the score table per
        syndrome byte, or counted from the words without a table."""
        if self._table is None:
            score = np.zeros((len(rows), self._live.size), dtype=np.int32)
            for rw, dw in zip(rows.T, self._live_det):
                score += 2 * np.bitwise_count(rw[:, None] & dw)
        else:
            at = bytes_of(rows)[:, :self._byte_rows.size] + self._byte_rows
            score = np.take(self._table, at[:, 0], axis=0)
            for col in at.T[1:]:
                score += np.take(self._table, col, axis=0)
        score -= self._live_weight
        return score

    def decode_words(self, rows: np.ndarray) -> np.ndarray:
        """decode() for every row, peeling the whole batch in rounds.  A
        round scores each active residual against every live channel
        (`_scores`, in chunks of at most `GREEDY_CELLS` cells); the channels
        lie in `_order`, so argmax picks the first strictly best one, as
        decode() does.  A row whose best score is not above 0 gives up.
        Round 1 scores the rows as given (a classifier's rows are distinct
        already, and a duplicate costs only its own cells); later rounds
        score each distinct residual once.

        Peeling is recursive: if decode() picks channel b for residual r,
        then decode(r) = obs[b] ^ decode(r ^ det[b]).  So after each round
        a row whose new residual is in the cache (`use_cache`) XORs in its
        prediction and is done."""
        residual = np.array(rows, dtype=np.uint64)
        answer = np.zeros((len(residual), self._obs.shape[1]), dtype=np.uint64)
        live, cache = self._live, self._cache
        step = max(1, GREEDY_CELLS // max(1, live.size))
        active = np.flatnonzero(residual.any(axis=1)) if live.size else np.empty(0, np.intp)
        dedupe = False
        while active.size:
            rows = np.take(residual, active, axis=0)
            if dedupe:
                _, first, inv = np.unique(row_keys(rows), return_index=True, return_inverse=True)
                rows = rows[first]
            best = np.empty(len(rows), dtype=np.intp)
            for a in range(0, len(rows), step):
                score = self._scores(rows[a:a + step])
                j = score.argmax(axis=1)
                best[a:a + step] = np.where(score[np.arange(len(j)), j] > 0, live[j], -1)
            if dedupe:
                best = best[inv.reshape(-1)]
            found = best >= 0  # rows without a scoring channel give up
            active, best = active[found], best[found]
            residual[active] ^= np.take(self._det, best, axis=0)
            answer[active] ^= np.take(self._obs, best, axis=0)
            active = active[np.take(residual, active, axis=0).any(axis=1)]
            at, hit = cache.find(row_keys(np.take(residual, active, axis=0)))
            answer[active[hit]] ^= key_words(cache.pred[at[hit]], answer.shape[1])
            active = active[~hit]
            dedupe = True
        return answer


def build_greedy_decoder(model: DetectorErrorModel, v=None) -> GreedyDecoder:
    if v is not None:
        model = model.with_probabilities(v)
    return GreedyDecoder(model)


@dataclass
class ExternalDecoder(_WordDecoder):
    """Client side of the subprocess wire protocol."""

    command: str
    n_det: int
    n_obs: int
    kind: str = "external"
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
            self._send(f"INIT {self.n_det} {self.n_obs}\n")
            ready = self._recv()
            if ready != "READY":
                raise ProtocolError(f"expected READY, got {ready!r}")
        except ProtocolError:
            self._proc.kill()
            self._reap()
            raise

    def _send(self, text: str) -> None:
        assert self._proc.stdin is not None
        try:
            self._proc.stdin.write(text)
            self._proc.stdin.flush()
        except BrokenPipeError as exc:
            raise ProtocolError("decoder process closed its input") from exc

    def _recv(self) -> str:
        assert self._proc.stdout is not None
        line = self._proc.stdout.readline()
        if not line:
            raise ProtocolError("decoder process closed its output")
        return line.rstrip("\n")

    def decode_words(self, rows: np.ndarray) -> np.ndarray:
        """Each chunk's lines are cut from one encoding of the whole batch
        and sent in one write; its replies are read and checked line by
        line and parsed in one pass (`_words_of_lines`).  Rows of the
        wrong number of words, or with a bit at or above n_det, raise
        ValueError before anything is sent."""
        wd = n_words(self.n_det)
        if rows.ndim != 2 or rows.shape[1] != wd:
            raise ValueError(f"syndrome rows of shape {rows.shape}, not [rows, {wd}]")
        over = (rows & words_of_bits(np.arange(64 * wd)[None] >= self.n_det)).any(axis=1)
        if over.any():
            raise ValueError(f"syndrome row {np.flatnonzero(over)[0]} has a bit "
                             f"at or above {self.n_det}")
        text = _lines_of(rows, self.n_det)
        width = self.n_det + 1
        out = [np.zeros((0, n_words(self.n_obs)), dtype=np.uint64)]
        # A chunk's replies fit in the reply pipe, which holds at least
        # PIPE_BUF bytes, so a decoder that answers each syndrome as it
        # reads it can read the whole chunk while the client writes.
        step = max(1, select.PIPE_BUF // (self.n_obs + 1))
        for start in range(0, len(rows), step):
            k = min(step, len(rows) - start)
            self._send(f"DECODE {k}\n" + text[start * width:(start + k) * width])
            replies = (self._recv() for _ in range(k))
            out.append(_words_of_lines(replies, self.n_obs, "malformed decoder reply"))
        return np.concatenate(out)

    def close(self) -> None:
        try:
            self._send("QUIT\n")
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


class SyndromeCache:
    """A decoder's predictions by syndrome: one sorted array of keys (a
    syndrome's detector words as one scalar, see `row_keys`) with the
    predictions alongside (the observable words as one scalar).  `add`
    copies both arrays, so the cache stops growing once it holds
    `CACHE_CAP` entries; what it holds stays exact."""

    def __init__(self, det_words: int, obs_words: int) -> None:
        self.keys = row_keys(np.zeros((0, det_words), dtype=np.uint64))
        self.pred = row_keys(np.zeros((0, obs_words), dtype=np.uint64))

    def __len__(self) -> int:
        return len(self.keys)

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each key, its insertion point and whether the cache holds it
        (its prediction is then `pred[at]`)."""
        at = np.searchsorted(self.keys, keys)
        hit = at < len(self.keys)
        hit[hit] = self.keys[at[hit]] == keys[hit]
        return at, hit

    def add(self, at: np.ndarray, keys: np.ndarray, pred: np.ndarray) -> None:
        """Insert ascending keys it does not hold, at their `find`
        insertion points, with their predictions, unless it is full."""
        if len(self.keys) < CACHE_CAP:
            new = at + np.arange(len(at))  # their places once merged
            held = np.ones(len(self.keys) + len(at), dtype=bool)
            held[new] = False
            self.keys = _merged(self.keys, keys, held, new)
            self.pred = _merged(self.pred, pred, held, new)


def _merged(old: np.ndarray, add: np.ndarray, held: np.ndarray, new: np.ndarray) -> np.ndarray:
    """`old` at the places `held` marks and `add` at the indices `new`."""
    out = np.empty(len(held), dtype=old.dtype)
    out[held] = old
    out[new] = add
    return out


class LogicalErrorClassifier:
    """Decoder verdicts for blocks of bitstrings, given as support columns
    (see `errorspace.Footprints`): True where the decoder's prediction for
    the syndrome differs from the observables.

    A block's unique syndromes that are not in the classifier's
    `SyndromeCache` go to one `decode_words` call, as word rows, and then
    join it.  The classifier hands its fresh cache to the decoder
    (`use_cache`), so a greedy decoder reads its residuals from it."""

    def __init__(self, model: DetectorErrorModel, decoder: Decoder) -> None:
        self.footprints = Footprints(model)
        self.decoder = decoder
        self.cache = SyndromeCache(self.footprints.det.shape[1], self.footprints.obs.shape[1])
        decoder.use_cache(self.cache)

    def __call__(self, cols: np.ndarray) -> np.ndarray:
        fp = self.footprints
        wd = fp.det.shape[1]
        both = fp.xor(fp.det_obs, cols)
        keys, inv = np.unique(row_keys(both[:, :wd]), return_inverse=True)
        at, known = self.cache.find(keys)
        pred = np.empty(len(keys), dtype=self.cache.pred.dtype)
        pred[known] = self.cache.pred[at[known]]
        if not known.all():
            new = ~known
            pred[new] = row_keys(self.decoder.decode_words(key_words(keys[new], wd)))
            self.cache.add(at[new], keys[new], pred[new])
        return pred[inv.reshape(-1)] != row_keys(both[:, wd:])


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


def _lines_of(words: np.ndarray, n: int) -> str:
    """Rows of words as lines of n characters from {0, 1}, bit 0 first,
    each ended by a newline."""
    out = np.full((len(words), n + 1), ord("\n"), dtype=np.uint8)
    out[:, :n] = bits_of(words, n)
    out[:, :n] += ord("0")
    return out.tobytes().decode("ascii")


def _words_of_lines(lines, n: int, what: str) -> np.ndarray:
    """`lines`, each n characters from {0, 1} with bit 0 first, as one
    row of n_words(n) words each.  Each line is checked as it arrives: the
    first other one raises ProtocolError naming it."""
    got = []
    for line in lines:
        if len(line) != n or line.strip("01"):
            raise ProtocolError(f"{what} {line!r}")
        got.append(line)
    bits = np.frombuffer("".join(got).encode("ascii"), dtype=np.uint8).reshape(len(got), n)
    return words_of_bits(bits == ord("1"))


def serve(decoder: Decoder, stdin, stdout) -> None:
    """Server side of the wire protocol (used by `qecbound serve-ml`).  A
    malformed line raises ProtocolError naming it, and so does an end of
    input inside a batch, at once: a `DECODE k` header reserves nothing.

    Each `DECODE k` batch is read whole before it is answered, with one
    `decode_words` call and one write: a client may write the whole batch
    before it reads, and replies sent line by line could fill the reply
    pipe while that client is still writing."""
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
        k = count[0]
        lines = islice(iter(stdin.readline, ""), k)  # stops at the end of input
        rows = _words_of_lines((s.strip() for s in lines), n_det, "malformed syndrome")
        if len(rows) < k:
            raise ProtocolError(f"input ended after {len(rows)} of {k} lines of a DECODE batch")
        stdout.write(_lines_of(decoder.decode_words(rows), n_obs))
        stdout.flush()
