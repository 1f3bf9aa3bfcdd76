"""Program parsing, validation, and round-trip printing."""

import pytest
from hypothesis import given, settings, strategies as st

from qecbound.frontend import (
    Declaration,
    ErrorChannel,
    Gate,
    Measure,
    ParseError,
    QecProgram,
    Reset,
    parse_program,
    parse_symbolic_program,
)

from conftest import random_program_text
import numpy as np


def format_program(program: QecProgram) -> str:
    """Pretty-print a program; re-parsing yields a structurally equal AST."""
    lines = []
    for s in program.statements:
        if isinstance(s, Gate):
            lines.append(" ".join([s.kind, *map(str, s.qubits)]))
        elif isinstance(s, Reset):
            lines.append(f"R {s.qubit}")
        elif isinstance(s, Measure):
            lines.append(f"M {s.name} <- {s.qubit}")
        else:
            strength = s.strength if s.is_symbolic else f"{s.strength:.17g}"
            lines.append(" ".join([f"{s.kind}({strength})", *map(str, s.qubits)]))
    for d in program.declarations:
        keyword = "DETECTOR" if d.kind == "syndrome" else "OBSERVABLE"
        lines.append(" ".join([keyword, *d.operands]))
    return "\n".join(lines) + ("\n" if lines else "")


def symbolic_variables(program: QecProgram) -> tuple[str, ...]:
    """Symbolic variable ids in channel statement order."""
    return tuple(s.strength for s in program.statements
                 if isinstance(s, ErrorChannel) and s.is_symbolic)


def test_parse_minimal_program(repetition_program_text):
    prog = parse_program(repetition_program_text)
    assert prog.qubit_count == 5
    assert len(prog.declarations) == 3
    kinds = [d.kind for d in prog.declarations]
    assert kinds == ["syndrome", "syndrome", "observable"]
    assert prog.classical_names == frozenset({"s1", "s2", "out"})


def test_statement_kinds():
    prog = parse_program(
        "R 0\nR 1\nH 0\nS 0\nSDG 0\nX 1\nY 1\nZ 1\nCX 0 1\nCZ 0 1\n"
        "XERR(0.1) 0\nDEPOLARIZE1(0.03) 0\nDEPOLARIZE2(0.15) 0 1\n"
        "M a <- 0\nOBSERVABLE a\n"
    )
    assert isinstance(prog.statements[0], Reset)
    assert isinstance(prog.statements[2], Gate)
    assert isinstance(prog.statements[10], ErrorChannel)
    assert isinstance(prog.statements[-1], Measure)
    assert isinstance(prog.declarations[0], Declaration)


def test_comments_and_blank_lines():
    prog = parse_program("# header\n\nR 0  # inline\nM a <- 0\nDETECTOR a\nOBSERVABLE a\n")
    assert len(prog.statements) == 2


def test_duplicate_measurement_name_rejected():
    with pytest.raises(ParseError) as e:
        parse_program("R 0\nM a <- 0\nM a <- 0\nOBSERVABLE a\n")
    assert e.value.line == 3


def test_declaration_unknown_name_rejected():
    with pytest.raises(ParseError) as e:
        parse_program("R 0\nM a <- 0\nDETECTOR b\nOBSERVABLE a\n")
    assert e.value.line == 3


def test_statement_after_declaration_rejected():
    with pytest.raises(ParseError):
        parse_program("R 0\nM a <- 0\nOBSERVABLE a\nX 0\n")


def test_probability_out_of_range_rejected():
    with pytest.raises(ParseError):
        parse_program("R 0\nXERR(1.5) 0\nM a <- 0\nOBSERVABLE a\n")
    with pytest.raises(ParseError):
        parse_program("R 0\nXERR(-0.1) 0\nM a <- 0\nOBSERVABLE a\n")


def test_two_qubit_gate_needs_distinct_qubits():
    with pytest.raises(ParseError):
        parse_program("R 0\nCX 0 0\nM a <- 0\nOBSERVABLE a\n")


def test_symbolic_strengths():
    prog = parse_symbolic_program("R 0\nXERR(x0) 0\nZERR(x1) 0\nM a <- 0\nOBSERVABLE a\n")
    assert symbolic_variables(prog) == ("x0", "x1")


def test_symbolic_rejected_by_concrete_parser():
    with pytest.raises(ParseError):
        parse_program("R 0\nXERR(x0) 0\nM a <- 0\nOBSERVABLE a\n")


def test_duplicate_symbolic_variable_rejected():
    with pytest.raises(ParseError):
        parse_symbolic_program("R 0\nXERR(x0) 0\nZERR(x0) 0\nM a <- 0\nOBSERVABLE a\n")


def test_format_round_trip(repetition_program_text):
    prog = parse_program(repetition_program_text)
    assert parse_program(format_program(prog)) == prog


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_format_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    text = random_program_text(rng)
    prog = parse_program(text)
    assert parse_program(format_program(prog)) == prog
