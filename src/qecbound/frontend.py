"""Parser for the textual QEC-program language.

A program is a straight-line sequence of circuit statements followed by
detector/observable declarations, one statement per line.  Supported
syntax:

    X 0            H 3            CX 0 1         CZ 2 3
    S 1            SDG 1          R 4
    M m0 <- 2
    XERR(0.01) 0   YERR(p) q     ZERR(p) q
    DEPOLARIZE1(0.003) 0
    DEPOLARIZE2(0.15) 0 1
    DETECTOR m0 m1
    OBSERVABLE m2

`#` starts a comment.  Measurement results are named classical registers
assigned exactly once (SSA); declarations may only reference names that
were already assigned.  In symbolic programs, channel strengths may be
identifiers of the form ``x<k>`` instead of concrete probabilities, each
unique to one channel statement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .tableau import GATES

CHANNEL_KINDS = {"XERR", "YERR", "ZERR", "DEPOLARIZE1", "DEPOLARIZE2"}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_SYMBOL_RE = re.compile(r"x\d+$")


class ParseError(ValueError):
    """Syntax or validity error, carrying the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Reset:
    qubit: int


@dataclass(frozen=True)
class Measure:
    name: str
    qubit: int


@dataclass(frozen=True)
class ErrorChannel:
    kind: str
    strength: float | str  # concrete probability or symbolic variable id
    qubits: tuple[int, ...]

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.strength, str)


Statement = Gate | Reset | Measure | ErrorChannel


@dataclass(frozen=True)
class Declaration:
    kind: str  # "syndrome" or "observable"
    operands: tuple[str, ...]


@dataclass(frozen=True)
class QecProgram:
    statements: tuple[Statement, ...]
    declarations: tuple[Declaration, ...]
    qubit_count: int
    classical_names: frozenset[str] = field(default_factory=frozenset)


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def _parse_qubit(tok: str, lineno: int) -> int:
    if not tok.isdigit():
        raise ParseError(f"expected qubit index, got {tok!r}", lineno)
    return int(tok)


def _parse_strength(tok: str, lineno: int, symbolic: bool) -> float | str:
    if symbolic and _SYMBOL_RE.match(tok):
        return tok
    try:
        p = float(tok)
    except ValueError:
        raise ParseError(f"invalid channel strength {tok!r}", lineno) from None
    if not 0.0 <= p <= 1.0:
        raise ParseError(f"probability {p} outside [0, 1]", lineno)
    return p


def _parse_line(raw: str, lineno: int, symbolic: bool) -> Statement | Declaration | None:
    line = _strip_comment(raw).strip()
    if not line:
        return None
    toks = line.split()
    head = toks[0].upper()

    if head in GATES:
        arity = GATES[head][0]
        if len(toks) != 1 + arity:
            raise ParseError(f"{head} takes {arity} qubit(s)", lineno)
        qubits = tuple(_parse_qubit(t, lineno) for t in toks[1:])
        if arity == 2 and qubits[0] == qubits[1]:
            raise ParseError(f"{head} requires distinct qubits", lineno)
        return Gate(head, qubits)

    if head == "R":
        if len(toks) != 2:
            raise ParseError("R takes 1 qubit", lineno)
        return Reset(_parse_qubit(toks[1], lineno))

    if head == "M":
        if len(toks) != 4 or toks[2] != "<-":
            raise ParseError("expected M <name> <- <qubit>", lineno)
        if not _NAME_RE.match(toks[1]):
            raise ParseError(f"invalid register name {toks[1]!r}", lineno)
        return Measure(toks[1], _parse_qubit(toks[3], lineno))

    m = re.match(r"([A-Za-z0-9]+)\(([^)]*)\)$", toks[0])
    if m and m.group(1).upper() in CHANNEL_KINDS:
        kind = m.group(1).upper()
        strength = _parse_strength(m.group(2).strip(), lineno, symbolic)
        arity = 2 if kind == "DEPOLARIZE2" else 1
        if len(toks) != 1 + arity:
            raise ParseError(f"{kind} takes {arity} qubit(s)", lineno)
        qubits = tuple(_parse_qubit(t, lineno) for t in toks[1:])
        if arity == 2 and qubits[0] == qubits[1]:
            raise ParseError(f"{kind} requires distinct qubits", lineno)
        return ErrorChannel(kind, strength, qubits)

    if head in ("DETECTOR", "OBSERVABLE"):
        if len(toks) < 2:
            raise ParseError(f"{head} needs at least one operand", lineno)
        for t in toks[1:]:
            if not _NAME_RE.match(t):
                raise ParseError(f"invalid register name {t!r}", lineno)
        kind = "syndrome" if head == "DETECTOR" else "observable"
        return Declaration(kind, tuple(toks[1:]))

    raise ParseError(f"unrecognized statement {line!r}", lineno)


def _parse(text: str, symbolic: bool) -> QecProgram:
    statements: list[Statement] = []
    declarations: list[Declaration] = []
    assigned: set[str] = set()
    seen_symbols: set[str] = set()
    max_qubit = -1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        item = _parse_line(raw, lineno, symbolic)
        if item is None:
            continue
        if isinstance(item, Declaration):
            for name in item.operands:
                if name not in assigned:
                    raise ParseError(
                        f"declaration references unassigned register {name!r}", lineno
                    )
            declarations.append(item)
            continue
        if declarations:
            raise ParseError("statement after declarations", lineno)
        if isinstance(item, Measure):
            if item.name in assigned:
                raise ParseError(f"register {item.name!r} assigned twice", lineno)
            assigned.add(item.name)
            max_qubit = max(max_qubit, item.qubit)
        elif isinstance(item, Reset):
            max_qubit = max(max_qubit, item.qubit)
        else:
            max_qubit = max(max_qubit, *item.qubits)
        if isinstance(item, ErrorChannel) and item.is_symbolic:
            if not symbolic:
                raise ParseError("symbolic strength in a concrete program", lineno)
            if item.strength in seen_symbols:
                raise ParseError(f"duplicate symbolic identifier {item.strength!r}", lineno)
            seen_symbols.add(item.strength)
        statements.append(item)

    return QecProgram(
        statements=tuple(statements),
        declarations=tuple(declarations),
        qubit_count=max_qubit + 1,
        classical_names=frozenset(assigned),
    )


def parse_program(text: str) -> QecProgram:
    """Parse a concrete QEC program (all channel strengths numeric)."""
    return _parse(text, symbolic=False)


def parse_symbolic_program(text: str) -> QecProgram:
    """Parse a program whose channel strengths may be ``x<k>`` identifiers."""
    return _parse(text, symbolic=True)
