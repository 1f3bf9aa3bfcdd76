"""Compilation of QEC programs to detector error models.

Three stages: well-definedness checking via symbolic tableau simulation,
decomposition of channel statements into Bernoulli channels, and
Pauli-frame propagation to find which declared parities each channel
flips.  A statement gives one independent channel per Pauli term of its
kind in `frontend.CHANNELS`, at its strength over the number of terms:
`DEPOLARIZE1(p)` gives X, Y, Z flips at p/3, `DEPOLARIZE2(p)` fifteen at
p/15.  Stim's channel of that name applies exactly one non-identity Pauli
with probability p, so the two agree only to first order in p (7.1e-4
relative on the fixed d = 3 repetition memory at p = 1e-3); sound records
bound the compiled model.  All frames move in one pass, as per-qubit bit
planes over the channels, under the same gate rules (`tableau.GATES`)
that drive the tableau.  Also reads and writes the textual DEM format (a
compatible subset of the Stim detector-error-model surface syntax):

    dem <n_detectors> <n_observables>        # optional header
    error(<float>) D0 D1 L0
    error(x3) D2                             # symbolic variant
    error(x3/15) D2                          # symbolic with derived scale
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .frontend import (
    CHANNELS,
    Declaration,
    ErrorChannel,
    Gate,
    Measure,
    QecProgram,
    Reset,
)
from .tableau import GATES, SignExpr, SymbolicTableau


class CompileError(ValueError):
    pass


class DemParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class PauliString:
    """Sparse n-qubit Pauli, global sign ignored."""

    paulis: tuple[tuple[int, str], ...]  # sorted (qubit, 'X'|'Y'|'Z') pairs

    @staticmethod
    def from_dict(d: dict[int, str]) -> "PauliString":
        return PauliString(tuple(sorted(d.items())))


@dataclass(frozen=True)
class SymbolicProb:
    """A channel probability of the form scale * <variable>."""

    var: str
    scale: float = 1.0

    def __str__(self) -> str:
        if self.scale == 1.0:
            return self.var
        denom = round(1.0 / self.scale)
        return f"{self.var}/{denom}"


Probability = float | SymbolicProb


@dataclass(frozen=True)
class BernoulliChannel:
    probability: Probability
    pauli: PauliString
    source: int  # originating statement index


@dataclass(frozen=True)
class DetectorErrorModel:
    n_channels: int
    n_detectors: int
    n_observables: int
    probabilities: tuple[Probability, ...]
    det_footprints: tuple[int, ...]  # bitmask over detector indices, per channel
    obs_footprints: tuple[int, ...]  # bitmask over observable indices, per channel

    @property
    def is_symbolic(self) -> bool:
        return any(isinstance(p, SymbolicProb) for p in self.probabilities)

    def concrete_probabilities(self) -> tuple[float, ...]:
        if self.is_symbolic:
            raise CompileError("model has symbolic probabilities")
        return self.probabilities  # type: ignore[return-value]

    def with_probabilities(self, probs) -> "DetectorErrorModel":
        probs = tuple(float(p) for p in probs)
        if len(probs) != self.n_channels:
            raise ValueError("probability vector length mismatch")
        return replace(self, probabilities=probs)


@dataclass(frozen=True)
class DeclarationReport:
    declaration: Declaration
    deterministic: bool
    value: int | None  # noiseless parity when deterministic


@dataclass(frozen=True)
class WellDefinedReport:
    well_defined: bool
    declarations: tuple[DeclarationReport, ...]

    @property
    def offending(self) -> tuple[Declaration, ...]:
        return tuple(r.declaration for r in self.declarations if not r.deterministic)


def check_well_defined(program: QecProgram) -> WellDefinedReport:
    """Simulate the noiseless circuit; a declaration is deterministic iff
    the XOR of its outcome expressions has no free random bits."""
    tab = SymbolicTableau(program.qubit_count)
    outcomes: dict[str, SignExpr] = {}
    for stmt in program.statements:
        if isinstance(stmt, Gate):
            tab.gate(stmt.kind, stmt.qubits)
        elif isinstance(stmt, Reset):
            tab.reset(stmt.qubit)
        elif isinstance(stmt, Measure):
            outcomes[stmt.name] = tab.measure(stmt.qubit)
        # error channels are identity in the noiseless circuit

    reports = []
    for decl in program.declarations:
        expr = SignExpr()
        for name in decl.operands:
            expr = expr ^ outcomes[name]
        reports.append(
            DeclarationReport(decl, expr.deterministic, expr.const if expr.deterministic else None)
        )
    return WellDefinedReport(all(r.deterministic for r in reports), tuple(reports))


def decompose_channels(program: QecProgram) -> list[BernoulliChannel]:
    """Split every channel statement into Bernoulli channels, in statement
    order then the order of its kind's terms in `CHANNELS`."""
    channels: list[BernoulliChannel] = []
    for idx, stmt in enumerate(program.statements):
        if not isinstance(stmt, ErrorChannel):
            continue
        terms = CHANNELS[stmt.kind]
        scale = 1.0 / len(terms)
        prob = (SymbolicProb(stmt.strength, scale) if stmt.is_symbolic
                else stmt.strength * scale)
        for term in terms:
            pauli = PauliString.from_dict(
                {q: p for q, p in zip(stmt.qubits, term) if p != "I"})
            channels.append(BernoulliChannel(prob, pauli, idx))
    return channels


def _record_planes(program: QecProgram, channels: list[BernoulliChannel]) -> dict[str, int]:
    """Each measurement's flips as a bit set over the channels.

    All Pauli frames move at once: planes[2q] and planes[2q+1] hold bit i
    of channel i's x and z components on qubit q, from the channel's own
    statement onward.  A measurement flips the channels whose frame has
    an x component on its qubit.
    """
    planes = [0] * (2 * program.qubit_count)
    by_source: dict[int, list[tuple[int, BernoulliChannel]]] = {}
    for i, ch in enumerate(channels):
        by_source.setdefault(ch.source, []).append((i, ch))
    records: dict[str, int] = {}
    for idx, stmt in enumerate(program.statements):
        if isinstance(stmt, Gate):
            at = [2 * q + b for q in stmt.qubits for b in (0, 1)]
            moved = GATES[stmt.kind][1](*(planes[k] for k in at))
            for k, plane in zip(at, moved):  # the sign flip, last, is dropped
                planes[k] = plane
        elif isinstance(stmt, Reset):
            planes[2 * stmt.qubit] = planes[2 * stmt.qubit + 1] = 0
        elif isinstance(stmt, Measure):
            records[stmt.name] = planes[2 * stmt.qubit]
        else:  # an error channel: its kept channels' frames start here
            for i, ch in by_source.get(idx, ()):
                for q, p in ch.pauli.paulis:
                    if p in ("X", "Y"):
                        planes[2 * q] |= 1 << i
                    if p in ("Z", "Y"):
                        planes[2 * q + 1] |= 1 << i
    return records


def _footprints(records: dict[str, int], decls: list[Declaration], n_channels: int) -> list[int]:
    """Per channel, the bit set of the declarations whose parity it flips:
    each declaration's column over the channels is the XOR of its
    operands' records, and the columns are transposed."""
    masks = [0] * n_channels
    for j, decl in enumerate(decls):
        column = 0
        for name in decl.operands:
            column ^= records[name]
        while column:
            low = column & -column
            masks[low.bit_length() - 1] |= 1 << j
            column ^= low
    return masks


def compile_to_dem(program: QecProgram) -> DetectorErrorModel:
    """Compile a well-defined program to its detector error model.

    Footprints are relative to the noiseless reference values: a detector
    bit in ``syndrome_of(e)`` is set when the declared parity differs from
    its noiseless value.  Channels with probability exactly 0 are dropped;
    probability exactly 1 is rejected (fold the deterministic flip into
    the circuit instead).
    """
    report = check_well_defined(program)
    if not report.well_defined:
        bad = ", ".join(" ".join(d.operands) for d in report.offending)
        raise CompileError(f"program is not well-defined (declarations: {bad})")

    syndromes = [d for d in program.declarations if d.kind == "syndrome"]
    observables = [d for d in program.declarations if d.kind == "observable"]

    channels = [ch for ch in decompose_channels(program) if ch.probability != 0.0]
    for ch in channels:
        if ch.probability == 1.0:
            raise CompileError(
                f"channel at statement {ch.source} has probability 1; "
                "fold the deterministic flip into the circuit"
            )
    records = _record_planes(program, channels)
    det_fp = _footprints(records, syndromes, len(channels))
    obs_fp = _footprints(records, observables, len(channels))
    probs = [ch.probability for ch in channels]

    return DetectorErrorModel(
        n_channels=len(probs),
        n_detectors=len(syndromes),
        n_observables=len(observables),
        probabilities=tuple(probs),
        det_footprints=tuple(det_fp),
        obs_footprints=tuple(obs_fp),
    )


_PROB_RE = re.compile(r"error\(([^)]*)\)$")
_SYM_RE = re.compile(r"(x\d+)(?:/(\d+))?$")


def parse_dem(text: str) -> DetectorErrorModel:
    """Parse the textual DEM format; see the module docstring."""
    probs: list[Probability] = []
    det_fp: list[int] = []
    obs_fp: list[int] = []
    header: tuple[int, int] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "dem":
            if probs or header is not None:
                raise DemParseError("misplaced header", lineno)
            if len(toks) != 3 or not toks[1].isdigit() or not toks[2].isdigit():
                raise DemParseError("expected 'dem <n_detectors> <n_observables>'", lineno)
            header = (int(toks[1]), int(toks[2]))
            continue
        m = _PROB_RE.match(toks[0])
        if not m:
            raise DemParseError(f"unrecognized line {line!r}", lineno)
        body = m.group(1).strip()
        sym = _SYM_RE.match(body)
        if sym:
            divisor = int(sym.group(2) or 1)
            if not divisor:
                raise DemParseError(f"invalid probability {body!r}", lineno)
            prob: Probability = SymbolicProb(sym.group(1), 1.0 / divisor)
        else:
            try:
                p = float(body)
            except ValueError:
                raise DemParseError(f"invalid probability {body!r}", lineno) from None
            if not 0.0 <= p <= 1.0:
                raise DemParseError(f"probability {p} outside [0, 1]", lineno)
            prob = p
        masks = [0, 0]  # detectors, observables
        for tok in toks[1:]:
            m2 = re.match(r"([DL])(\d+)$", tok)
            if not m2:
                raise DemParseError(f"invalid target {tok!r}", lineno)
            kind, k = m2.group(1) == "L", int(m2.group(2))
            if masks[kind] >> k & 1:
                raise DemParseError(f"duplicate target {tok}", lineno)
            if header is not None and k >= header[kind]:
                raise DemParseError(f"target {tok} exceeds header dimensions", lineno)
            masks[kind] |= 1 << k
        probs.append(prob)
        det_fp.append(masks[0])
        obs_fp.append(masks[1])

    n_det, n_obs = header or [max(map(int.bit_length, fp), default=0) for fp in (det_fp, obs_fp)]
    return DetectorErrorModel(
        n_channels=len(probs),
        n_detectors=n_det,
        n_observables=n_obs,
        probabilities=tuple(probs),
        det_footprints=tuple(det_fp),
        obs_footprints=tuple(obs_fp),
    )


def _targets(model: DetectorErrorModel, i: int) -> str:
    parts = [f"D{k}" for k in range(model.n_detectors) if model.det_footprints[i] >> k & 1]
    parts += [f"L{k}" for k in range(model.n_observables) if model.obs_footprints[i] >> k & 1]
    return " ".join(parts)


def write_dem(model: DetectorErrorModel) -> str:
    """Render a concrete model; parse_dem(write_dem(m)) == m."""
    model.concrete_probabilities()  # raises on a symbolic model
    return write_symbolic_dem(model)


def write_symbolic_dem(model: DetectorErrorModel) -> str:
    """Render a model that may carry symbolic probabilities."""
    lines = [
        f"# detector error model: {model.n_channels} channels",
        f"dem {model.n_detectors} {model.n_observables}",
    ]
    for i, p in enumerate(model.probabilities):
        tok = str(p) if isinstance(p, SymbolicProb) else f"{p:.17g}"
        lines.append(f"error({tok}) {_targets(model, i)}".rstrip())
    return "\n".join(lines) + "\n"
