"""Compilation to detector error models, checked against dense simulation."""

import numpy as np
import pytest

from qecbound.compiler import (
    CompileError,
    DemParseError,
    SymbolicProb,
    check_well_defined,
    compile_to_dem,
    decompose_channels,
    parse_dem,
    write_dem,
    write_symbolic_dem,
)
from qecbound.errorspace import observable_of, syndrome_of
from qecbound.frontend import parse_program, parse_symbolic_program

from conftest import dense_channels, dense_parity, dense_run, random_program_text


def test_repetition_code_compiles_to_expected_footprints(repetition_program_text):
    model = compile_to_dem(parse_program(repetition_program_text))
    assert model.n_channels == 3
    assert model.n_detectors == 2
    assert model.n_observables == 1
    assert model.probabilities == (0.01, 0.01, 0.01)
    # channel 0: D0 L0; channel 1: D0 D1; channel 2: D1
    assert model.det_footprints == (0b01, 0b11, 0b10)
    assert model.obs_footprints == (1, 0, 0)


def test_repetition_code_distribution_table(repetition_program_text):
    """All 8 (error, syndrome, observable) rows at v = 0.01."""
    model = compile_to_dem(parse_program(repetition_program_text))
    # string "abc" means channel0=a, channel1=b, channel2=c; same for
    # syndromes with detector 0 first
    table = {
        "000": ("00", 0), "111": ("00", 1),
        "001": ("01", 0), "110": ("01", 1),
        "011": ("10", 0), "100": ("10", 1),
        "010": ("11", 0), "101": ("11", 1),
    }
    for estr, (sstr, obs) in table.items():
        e = sum(1 << i for i, c in enumerate(estr) if c == "1")
        s = sum(1 << i for i, c in enumerate(sstr) if c == "1")
        assert syndrome_of(model, e) == s, estr
        assert observable_of(model, e) == obs, estr


def test_well_defined_report(repetition_program_text):
    report = check_well_defined(parse_program(repetition_program_text))
    assert report.well_defined
    assert all(r.value == 0 for r in report.declarations)


def test_unmeasured_superposition_not_well_defined():
    prog = parse_program("R 0\nH 0\nM a <- 0\nOBSERVABLE a\n")
    report = check_well_defined(prog)
    assert not report.well_defined
    assert len(report.offending) == 1


def test_parity_of_correlated_random_outcomes_is_well_defined():
    # Bell pair: each outcome random, XOR deterministic
    prog = parse_program(
        "R 0\nR 1\nH 0\nCX 0 1\nM a <- 0\nM b <- 1\nDETECTOR a b\nOBSERVABLE a b\n"
    )
    report = check_well_defined(prog)
    assert report.well_defined
    assert all(r.value == 0 for r in report.declarations)


def test_compile_rejects_ill_defined_program():
    with pytest.raises(CompileError):
        compile_to_dem(parse_program("R 0\nH 0\nM a <- 0\nOBSERVABLE a\n"))


def test_depolarize_decomposition_order_and_scales():
    """Each statement gives one channel per term of its kind, in statement
    order and then term order (X, Y, Z; lexicographic pairs over IXYZ for
    DEPOLARIZE2, the first letter on the first operand), each at the
    statement's strength times 1/len(terms): scales 1, 1/3 and 1/15, for
    concrete and symbolic strengths alike."""
    prog = parse_program(
        "R 0\nR 1\nXERR(0.3) 1\nYERR(0.2) 0\nZERR(0.1) 1\nDEPOLARIZE1(0.3) 0\n"
        "DEPOLARIZE2(0.15) 0 1\nDEPOLARIZE2(0.15) 1 0\nM a <- 0\nOBSERVABLE a\n"
    )
    chans = decompose_channels(prog)
    assert len(chans) == 3 + 3 + 15 + 15
    assert [(c.probability, c.pauli.paulis, c.source) for c in chans[:3]] == [
        (0.3, ((1, "X"),), 2), (0.2, ((0, "Y"),), 3), (0.1, ((1, "Z"),), 4)]
    assert all(c.probability == 0.3 * (1 / 3) and c.source == 5 for c in chans[3:6])
    assert [c.pauli.paulis for c in chans[3:6]] == [((0, "X"),), ((0, "Y"),), ((0, "Z"),)]
    assert all(c.probability == 0.15 * (1 / 15) for c in chans[6:])
    pairs = [a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"]
    for start, qubits in ((6, (0, 1)), (21, (1, 0))):
        # Paulis sorted by qubit, whichever operand comes first
        assert [c.pauli.paulis for c in chans[start:start + 15]] == [
            tuple(sorted((q, p) for q, p in zip(qubits, t) if p != "I")) for t in pairs]
    # lexicographic pair order starts IX, IY, IZ, XI, XX, ...
    assert chans[6].pauli.paulis == ((1, "X"),)
    assert chans[9].pauli.paulis == ((0, "X"),)
    assert chans[10].pauli.paulis == ((0, "X"), (1, "X"))
    assert chans[21].pauli.paulis == ((0, "X"),)
    assert chans[26].pauli.paulis == ((0, "Y"), (1, "X"))

    prog = parse_symbolic_program(
        "R 0\nR 1\nXERR(x1) 0\nDEPOLARIZE1(x2) 0\nDEPOLARIZE2(x3) 1 0\n"
        "M a <- 0\nM b <- 1\nDETECTOR a\nOBSERVABLE b\n"
    )
    assert [c.probability for c in decompose_channels(prog)] == (
        [SymbolicProb("x1")] + [SymbolicProb("x2", 1 / 3)] * 3 + [SymbolicProb("x3", 1 / 15)] * 15)
    text = write_symbolic_dem(compile_to_dem(prog))
    rates = [line.split()[0] for line in text.splitlines() if line.startswith("error(")]
    assert rates == ["error(x1)"] + ["error(x2/3)"] * 3 + ["error(x3/15)"] * 15


def test_zero_probability_channels_dropped():
    prog = parse_program("R 0\nXERR(0) 0\nXERR(0.1) 0\nM a <- 0\nOBSERVABLE a\n")
    model = compile_to_dem(prog)
    assert model.n_channels == 1
    assert model.probabilities == (0.1,)


def test_probability_one_rejected():
    prog = parse_program("R 0\nXERR(1) 0\nM a <- 0\nOBSERVABLE a\n")
    with pytest.raises(CompileError):
        compile_to_dem(prog)


def test_symbolic_compile():
    prog = parse_symbolic_program(
        "R 0\nXERR(x0) 0\nDEPOLARIZE1(x1) 0\nM a <- 0\nOBSERVABLE a\n"
    )
    model = compile_to_dem(prog)
    assert model.is_symbolic
    assert model.probabilities[0] == SymbolicProb("x0")
    assert model.probabilities[1] == SymbolicProb("x1", 1 / 3)
    with pytest.raises(CompileError):
        model.concrete_probabilities()


def test_dem_round_trip(repetition_program_text):
    model = compile_to_dem(parse_program(repetition_program_text))
    assert parse_dem(write_dem(model)) == model


def test_symbolic_dem_round_trip():
    prog = parse_symbolic_program("R 0\nDEPOLARIZE1(x0) 0\nM a <- 0\nOBSERVABLE a\n")
    model = compile_to_dem(prog)
    assert parse_dem(write_symbolic_dem(model)) == model


def test_dem_parse_errors():
    """Each error names the line it is on: a target past the header's
    dimensions too, and a symbolic rate divided by zero is an invalid
    probability, not a ZeroDivisionError."""
    for text, line in [("error(0.1) D0 D0\n", 1), ("error(1.5) D0\n", 1), ("garbage\n", 1),
                       ("dem 1 1\nerror(0.1) D3\n", 2),
                       ("# three lines\ndem 2 1\nerror(0.1) D0 L0\nerror(0.2) D0 D7\n", 4),
                       ("dem 2 1\nerror(0.1) D1 L1\n", 2),
                       ("error(0.1) D0\nerror(x0/0) D0\n", 2)]:
        with pytest.raises(DemParseError) as exc:
            parse_dem(text)
        assert exc.value.line == line, text
    with pytest.raises(DemParseError, match="invalid probability 'x0/0'"):
        parse_dem("error(x0/0) D0\n")


def test_dem_without_header_infers_dimensions():
    model = parse_dem("error(0.1) D0 D2 L0\nerror(0.2) D1\n")
    assert model.n_detectors == 3
    assert model.n_observables == 1


@pytest.mark.parametrize("seed", range(25))
def test_compiled_maps_match_dense_simulation(seed):
    """Restricted random programs are always well-defined; every error
    bitstring's (syndrome, observable) must match the dense oracle."""
    rng = np.random.default_rng(seed)
    prog = parse_program(random_program_text(rng, restricted=True))
    report = check_well_defined(prog)
    assert report.well_defined
    model = compile_to_dem(prog)
    chans = dense_channels(prog)
    # compile drops p=0 channels; restricted generator never emits them
    assert len(chans) == model.n_channels
    noiseless = dense_run(prog, 0, np.random.default_rng(1))
    syndromes = [d for d in prog.declarations if d.kind == "syndrome"]
    observables = [d for d in prog.declarations if d.kind == "observable"]
    for e in range(1 << model.n_channels):
        out = dense_run(prog, e, np.random.default_rng(2))
        s = sum(
            1 << j
            for j, d in enumerate(syndromes)
            if dense_parity(prog, d, out) != dense_parity(prog, d, noiseless)
        )
        o = sum(
            1 << j
            for j, d in enumerate(observables)
            if dense_parity(prog, d, out) != dense_parity(prog, d, noiseless)
        )
        assert syndrome_of(model, e) == s
        assert observable_of(model, e) == o


@pytest.mark.parametrize("seed", range(15))
def test_well_definedness_matches_dense_randomization(seed):
    """General random programs: the static verdict per declaration matches
    whether the dense noiseless parity is constant over repeated trials."""
    rng = np.random.default_rng(seed + 10_000)
    prog = parse_program(random_program_text(rng, restricted=False))
    report = check_well_defined(prog)
    for r in report.declarations:
        parities = {
            dense_parity(prog, r.declaration, dense_run(prog, 0, np.random.default_rng(t)))
            for t in range(60)
        }
        if r.deterministic:
            assert parities == {r.value}
        else:
            assert parities == {0, 1}


def repetition_memory_text(d: int) -> str:
    """Repetition-code memory program: d data qubits (0..d-1), d-1
    ancillas (d..2d-2), d rounds of noisy parity checks.  Each round puts
    DEPOLARIZE1 on every data qubit and DEPOLARIZE2 after every CX, then
    XERR, M and R on every ancilla.  Detectors compare an ancilla's
    outcomes in consecutive rounds (the first round against the reset
    value); the observable is the final measurement of data qubit 0."""
    lines = [f"R {q}" for q in range(2 * d - 1)]
    for r in range(d):
        lines += [f"DEPOLARIZE1(0.001) {q}" for q in range(d)]
        for a in range(d - 1):
            for q in (a, a + 1):
                lines += [f"CX {q} {d + a}", f"DEPOLARIZE2(0.001) {q} {d + a}"]
        for a in range(d - 1):
            lines += [f"XERR(0.001) {d + a}", f"M m{r}_{a} <- {d + a}", f"R {d + a}"]
    lines += [f"M out{q} <- {q}" for q in range(d)]
    for r in range(d):
        for a in range(d - 1):
            prev = f" m{r - 1}_{a}" if r else ""
            lines.append(f"DETECTOR m{r}_{a}{prev}")
    lines.append("OBSERVABLE out0")
    return "\n".join(lines) + "\n"


def _reference_footprints(program, channel, syndromes, observables):
    """One channel's (detector, observable) masks by pushing its Pauli
    alone through the statements after it."""
    from qecbound.frontend import Gate, Measure, Reset

    x = sum(1 << q for q, p in channel.pauli.paulis if p in ("X", "Y"))
    z = sum(1 << q for q, p in channel.pauli.paulis if p in ("Z", "Y"))
    flipped = set()
    for stmt in program.statements[channel.source + 1:]:
        if isinstance(stmt, Gate):
            q = stmt.qubits
            if stmt.kind == "H":
                bit = 1 << q[0]
                xb, zb = x & bit, z & bit
                x = (x & ~bit) | (bit if zb else 0)
                z = (z & ~bit) | (bit if xb else 0)
            elif stmt.kind in ("S", "SDG"):
                if x & 1 << q[0]:
                    z ^= 1 << q[0]
            elif stmt.kind == "CX":
                if x & 1 << q[0]:
                    x ^= 1 << q[1]
                if z & 1 << q[1]:
                    z ^= 1 << q[0]
            elif stmt.kind == "CZ":
                xc, xt = x & 1 << q[0], x & 1 << q[1]
                if xc:
                    z ^= 1 << q[1]
                if xt:
                    z ^= 1 << q[0]
        elif isinstance(stmt, Reset):
            x &= ~(1 << stmt.qubit)
            z &= ~(1 << stmt.qubit)
        elif isinstance(stmt, Measure) and x & 1 << stmt.qubit:
            flipped.add(stmt.name)

    def mask(decls):
        return sum(1 << j for j, d in enumerate(decls)
                   if sum(name in flipped for name in d.operands) % 2)

    return mask(syndromes), mask(observables)


@pytest.mark.parametrize("d", [3, 5])
def test_circuit_scale_footprints_match_per_channel_frames(d):
    prog = parse_program(repetition_memory_text(d))
    model = compile_to_dem(prog)
    channels = decompose_channels(prog)
    assert model.n_channels == len(channels) == d * (3 * d + 15 * 2 * (d - 1) + d - 1)
    assert model.n_detectors == d * (d - 1) and model.n_observables == 1
    syndromes = [s for s in prog.declarations if s.kind == "syndrome"]
    observables = [s for s in prog.declarations if s.kind == "observable"]
    for i, ch in enumerate(channels):
        assert (model.det_footprints[i], model.obs_footprints[i]) == \
            _reference_footprints(prog, ch, syndromes, observables)
