"""Shared fixtures and independent oracles.

The dense simulator here is a deliberately naive state-vector
implementation used as ground truth for the stabilizer tableau and the
compiler: it applies explicit unitary matrices, samples measurements from
Born probabilities, and knows nothing about the code under test beyond
the program AST.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from qecbound.frontend import (
    Declaration,
    ErrorChannel,
    Gate,
    Measure,
    QecProgram,
    Reset,
)

# Three-bit repetition code: bit-flip channels on the data qubits, two
# parity checks via ancillas, observable read off the first data qubit.
REPETITION_PROGRAM = """\
R 0
R 1
R 2
R 3
R 4
XERR(0.01) 0
XERR(0.01) 1
XERR(0.01) 2
CX 0 3
CX 1 3
CX 1 4
CX 2 4
M s1 <- 3
M s2 <- 4
M out <- 0
DETECTOR s1
DETECTOR s2
OBSERVABLE out
"""


@pytest.fixture(scope="session", autouse=True)
def children_import_checkout():
    """Put this checkout's `src` first on PYTHONPATH for the session, so
    that child processes (`python -m qecbound.cli serve-ml ...`) import
    the package under test without an install."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src if not old else os.pathsep.join((src, old))
    yield
    if old is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = old


@pytest.fixture
def detours(monkeypatch) -> list[int]:
    """The detour strings that `local-flip` walks queue during the test,
    recorded by wrapping `_BlockCore._detour`."""
    import qecbound.driver as driver

    queued: list[int] = []
    detour = driver._BlockCore._detour

    def recording(core, mask):
        out = detour(core, mask)
        queued.extend(out)
        return out

    monkeypatch.setattr(driver._BlockCore, "_detour", recording)
    return queued


def kept_case(strategy: str, variant: int) -> tuple[str, int]:
    """The strategy and the random-model variant that a parametrized case
    runs.  `local-both` was the `local-flip` walk plus shift moves; the
    shift moves are gone, but its case ids are kept so they stay stable,
    and such a case runs `local-flip` on variant + 4, a model that no
    `local-flip` case uses."""
    if strategy == "local-both":
        return "local-flip", variant + 4
    return strategy, variant


def kept_order(strategy: str, distance, monkeypatch) -> str:
    """The library strategy that a parametrized case runs.  A `split` case
    (the library's former strategy, with its distance ansatz) runs
    `hamming` on the two-run test order `reference.SplitOrder(n, distance)`,
    installed in the driver in place of `VisitOrder`; other cases run as
    named, on the library's order."""
    if strategy != "split":
        return strategy
    import qecbound.driver as driver
    from reference import SplitOrder

    monkeypatch.setattr(driver, "VisitOrder", lambda n: SplitOrder(n, distance))
    return "hamming"


@pytest.fixture
def repetition_program_text() -> str:
    return REPETITION_PROGRAM


# ---------------------------------------------------------------------------
# Dense state-vector simulation oracle
# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"X": _X, "Y": _Y, "Z": _Z}
_ONE_QUBIT = {"H": _H, "S": _S, "SDG": _S.conj().T, "X": _X, "Y": _Y, "Z": _Z}


class DenseSim:
    """State-vector simulator over n qubits (qubit q = tensor axis q)."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.psi = np.zeros((2,) * n, dtype=complex)
        self.psi[(0,) * n] = 1.0

    def _apply1(self, u: np.ndarray, q: int) -> None:
        self.psi = np.moveaxis(
            np.tensordot(u, np.moveaxis(self.psi, q, 0), axes=1), 0, q
        )

    def gate(self, kind: str, qubits: tuple[int, ...]) -> None:
        if kind in _ONE_QUBIT:
            self._apply1(_ONE_QUBIT[kind], qubits[0])
            return
        c, t = qubits
        psi = np.moveaxis(self.psi, (c, t), (0, 1))
        if kind == "CX":
            psi[1] = psi[1][::-1]
        elif kind == "CZ":
            psi[1, 1] = -psi[1, 1]
        else:
            raise ValueError(kind)
        self.psi = np.moveaxis(psi, (0, 1), (c, t))

    def pauli(self, letter: str, q: int) -> None:
        self._apply1(_PAULI[letter], q)

    def measure(self, q: int) -> int:
        psi = np.moveaxis(self.psi, q, 0)
        p1 = float(np.sum(np.abs(psi[1]) ** 2))
        if p1 < 1e-9:
            outcome = 0
        elif p1 > 1.0 - 1e-9:
            outcome = 1
        else:
            outcome = int(self.rng.random() < p1)
        proj = np.zeros_like(psi)
        proj[outcome] = psi[outcome]
        norm = math.sqrt(p1 if outcome else 1.0 - p1)
        self.psi = np.moveaxis(proj / norm, 0, q)
        return outcome

    def reset(self, q: int) -> None:
        if self.measure(q):
            self.pauli("X", q)


def dense_channels(program: QecProgram) -> list[tuple[int, dict[int, str]]]:
    """(statement index, {qubit: pauli letter}) per Bernoulli channel, in
    the documented decomposition order (independent re-derivation)."""
    out = []
    for idx, stmt in enumerate(program.statements):
        if not isinstance(stmt, ErrorChannel):
            continue
        if stmt.kind in ("XERR", "YERR", "ZERR"):
            out.append((idx, {stmt.qubits[0]: stmt.kind[0]}))
        elif stmt.kind == "DEPOLARIZE1":
            for p in "XYZ":
                out.append((idx, {stmt.qubits[0]: p}))
        else:
            q1, q2 = stmt.qubits
            for a in "IXYZ":
                for b in "IXYZ":
                    if a == b == "I":
                        continue
                    d = {}
                    if a != "I":
                        d[q1] = a
                    if b != "I":
                        d[q2] = b
                    out.append((idx, d))
    return out


def dense_run(program: QecProgram, error_mask: int, rng: np.random.Generator) -> dict[str, int]:
    """Measurement outcomes of one dense execution with the Pauli errors
    selected by `error_mask` injected at their channel statements."""
    channels = dense_channels(program)
    by_stmt: dict[int, list[dict[int, str]]] = {}
    for bit, (idx, paulis) in enumerate(channels):
        if error_mask >> bit & 1:
            by_stmt.setdefault(idx, []).append(paulis)
    sim = DenseSim(program.qubit_count, rng)
    outcomes: dict[str, int] = {}
    for idx, stmt in enumerate(program.statements):
        if isinstance(stmt, Gate):
            sim.gate(stmt.kind, stmt.qubits)
        elif isinstance(stmt, Reset):
            sim.reset(stmt.qubit)
        elif isinstance(stmt, Measure):
            outcomes[stmt.name] = sim.measure(stmt.qubit)
        elif isinstance(stmt, ErrorChannel):
            for paulis in by_stmt.get(idx, ()):
                for q, letter in paulis.items():
                    sim.pauli(letter, q)
    return outcomes


def dense_parity(program: QecProgram, decl: Declaration, outcomes: dict[str, int]) -> int:
    return sum(outcomes[name] for name in decl.operands) % 2


# ---------------------------------------------------------------------------
# Random program generation
# ---------------------------------------------------------------------------

_GATES1 = ["X", "Y", "Z", "H", "S", "SDG"]
_GATES2 = ["CX", "CZ"]
_ERRS = ["XERR", "YERR", "ZERR"]


def random_program_text(rng: np.random.Generator, max_qubits: int = 4,
                        max_channels: int = 6, restricted: bool = False) -> str:
    """Random program text; `restricted` keeps to X/Z/CX so every
    measurement is deterministic and the program is well-defined."""
    n = int(rng.integers(2, max_qubits + 1))
    lines = [f"R {q}" for q in range(n)]
    gates1 = ["X", "Z"] if restricted else _GATES1
    gates2 = ["CX"] if restricted else _GATES2
    n_channels = 0
    names: list[str] = []
    for _ in range(int(rng.integers(5, 16))):
        roll = rng.random()
        if roll < 0.45:
            g = gates1[int(rng.integers(len(gates1)))]
            lines.append(f"{g} {int(rng.integers(n))}")
        elif roll < 0.65 and n >= 2:
            g = gates2[int(rng.integers(len(gates2)))]
            a, b = rng.choice(n, size=2, replace=False)
            lines.append(f"{g} {int(a)} {int(b)}")
        elif roll < 0.8 and n_channels < max_channels:
            kind = _ERRS[int(rng.integers(3))]
            p = float(rng.uniform(0.01, 0.2))
            lines.append(f"{kind}({p:.6f}) {int(rng.integers(n))}")
            n_channels += 1
        elif roll < 0.9:
            lines.append(f"R {int(rng.integers(n))}")
        else:
            name = f"m{len(names)}"
            lines.append(f"M {name} <- {int(rng.integers(n))}")
            names.append(name)
    for _ in range(int(rng.integers(1, 4))):
        name = f"m{len(names)}"
        lines.append(f"M {name} <- {int(rng.integers(n))}")
        names.append(name)
    n_decl = int(rng.integers(1, 4))
    for j in range(n_decl + 1):
        size = int(rng.integers(1, min(3, len(names)) + 1))
        ops = " ".join(str(x) for x in rng.choice(names, size=size, replace=False))
        kind = "OBSERVABLE" if j == n_decl else "DETECTOR"
        lines.append(f"{kind} {ops}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random detector error models
# ---------------------------------------------------------------------------

def random_model(rng: np.random.Generator, n_channels: int, n_det: int, n_obs: int = 1):
    from qecbound.compiler import DetectorErrorModel

    probs = tuple(float(p) for p in rng.uniform(0.005, 0.2, size=n_channels))
    det = tuple(int(rng.integers(0, 1 << n_det)) for _ in range(n_channels))
    obs = tuple(int(rng.integers(0, 1 << n_obs)) for _ in range(n_channels))
    return DetectorErrorModel(
        n_channels=n_channels,
        n_detectors=n_det,
        n_observables=n_obs,
        probabilities=probs,
        det_footprints=det,
        obs_footprints=obs,
    )


def exact_rate(model, decoder, v) -> float:
    """Full-enumeration logical error rate oracle (independent arithmetic)."""
    from qecbound.errorspace import observable_of, syndrome_of

    n = model.n_channels
    total = 0.0
    for e in range(1 << n):
        p = 1.0
        for i in range(n):
            p *= v[i] if e >> i & 1 else 1.0 - v[i]
        if decoder.decode(syndrome_of(model, e)) != observable_of(model, e):
            total += p
    return total
