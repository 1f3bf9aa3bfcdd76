"""Stabilizer tableau simulation with symbolic measurement signs.

Standard Aaronson-Gottesman tableau (destabilizer + stabilizer rows over
x/z bitmasks) extended so that each row's sign is an affine GF(2)
expression: a constant bit plus an XOR of free random bits, one fresh bit
per nondeterministic measurement.  Measurement outcomes are therefore
affine expressions too, which lets a caller decide statically whether a
declared parity of outcomes is deterministic.

Every gate's action on a Pauli is written once, in `GATES`; the tableau
tabulates it per gate and qubits, and the compiler applies it to bit
planes of Pauli frames.
"""

from __future__ import annotations

from dataclasses import dataclass

# Phase exponent of the single-qubit product A*B = i^phi * C, keyed by
# (xa, za, xb, zb).  Only non-identity/non-identity pairs contribute.
_PHASE = {
    (1, 0, 1, 1): 1,   # X*Y = iZ
    (1, 0, 0, 1): 3,   # X*Z = -iY
    (1, 1, 1, 0): 3,   # Y*X = -iZ
    (1, 1, 0, 1): 1,   # Y*Z = iX
    (0, 1, 1, 0): 1,   # Z*X = iY
    (0, 1, 1, 1): 3,   # Z*Y = -iX
}

# Each Clifford gate's action on a Pauli, written once as (arity, rule).
# The rule maps the x/z bits of the gate's qubits, (x, z) or
# (xc, zc, xt, zt), to the bits of the conjugated Pauli followed by its
# sign flip.  Rules use bitwise operations only, so the same rule moves a
# single Pauli or whole bit planes of them.
GATES = {
    "H": (1, lambda x, z: (z, x, x & z)),
    "S": (1, lambda x, z: (x, z ^ x, x & z)),
    "SDG": (1, lambda x, z: (x, z ^ x, x & ~z)),
    "X": (1, lambda x, z: (x, z, z)),
    "Y": (1, lambda x, z: (x, z, x ^ z)),
    "Z": (1, lambda x, z: (x, z, x)),
    "CX": (2, lambda xc, zc, xt, zt: (xc, zc ^ zt, xt ^ xc, zt, xc & zt & ~(xt ^ zc))),
    "CZ": (2, lambda xc, zc, xt, zt: (xc, zc ^ xt, xt, zt ^ xc, xc & xt & (zc ^ zt))),
}


def _row_moves(kind: str, qubits: tuple[int, ...]) -> tuple[int, dict]:
    """GATES[kind] on these qubits, tabulated over the local Paulis: the
    qubits' bit mask, and a map from a row's masked (x, z) bits to the
    (x, z) XOR masks and the sign flip."""
    def spread(local_bits) -> int:
        return sum(b << q for b, q in zip(local_bits, qubits))

    rule = GATES[kind][1]
    moves = {}
    for s in range(1 << 2 * len(qubits)):
        bits = [s >> t & 1 for t in range(2 * len(qubits))]
        *out, flip = rule(*bits)
        x, z = spread(bits[0::2]), spread(bits[1::2])
        moves[x, z] = (x ^ spread(out[0::2]), z ^ spread(out[1::2]), flip)
    return sum(1 << q for q in qubits), moves


@dataclass(frozen=True)
class SignExpr:
    """Affine GF(2) expression: constant bit XOR a set of free random bits."""

    const: int = 0
    sym: int = 0  # bitmask over free-bit ids

    def __xor__(self, other: "SignExpr") -> "SignExpr":
        return SignExpr(self.const ^ other.const, self.sym ^ other.sym)

    @property
    def deterministic(self) -> bool:
        return self.sym == 0


class _Row:
    __slots__ = ("x", "z", "r", "sym")

    def __init__(self, x: int = 0, z: int = 0, r: int = 0, sym: int = 0):
        self.x, self.z, self.r, self.sym = x, z, r, sym

    def copy(self) -> "_Row":
        return _Row(self.x, self.z, self.r, self.sym)


def _mult(a: _Row, b: _Row) -> _Row:
    """Product a*b of two Pauli rows.

    The phase is real whenever a and b commute (always true for
    stabilizer-row uses); for anticommuting destabilizer updates the sign
    is garbage but is never read.
    """
    phi = 2 * (a.r + b.r)
    overlap = (a.x | a.z) & (b.x | b.z)
    q = 0
    while overlap >> q:
        if (overlap >> q) & 1:
            key = ((a.x >> q) & 1, (a.z >> q) & 1, (b.x >> q) & 1, (b.z >> q) & 1)
            phi += _PHASE.get(key, 0)
        q += 1
    return _Row(a.x ^ b.x, a.z ^ b.z, ((phi % 4) >> 1) & 1, a.sym ^ b.sym)


class SymbolicTableau:
    """Tableau over ``n`` qubits, initial state |0...0>."""

    def __init__(self, n: int):
        self.n = n
        # rows[0:n] destabilizers (X_i), rows[n:2n] stabilizers (Z_i)
        self.rows = [_Row(x=1 << i) for i in range(n)] + [_Row(z=1 << i) for i in range(n)]
        self._next_free_bit = 0
        self._moves: dict[tuple, tuple[int, dict]] = {}  # _row_moves by (kind, qubits)

    # -- gates ---------------------------------------------------------

    def gate(self, kind: str, qubits: tuple[int, ...]) -> None:
        """Conjugate every row by the Clifford gate ``GATES[kind]``."""
        key = (kind, tuple(qubits))
        if key not in self._moves:
            self._moves[key] = _row_moves(*key)
        support, moves = self._moves[key]
        for row in self.rows:
            x, z = row.x & support, row.z & support
            if x or z:
                dx, dz, flip = moves[x, z]
                row.x ^= dx
                row.z ^= dz
                row.r ^= flip

    # -- measurement and reset ----------------------------------------

    def measure(self, q: int) -> SignExpr:
        """Measure qubit q in the Z basis; returns the outcome expression."""
        bit = 1 << q
        n = self.n
        pivot = next((i for i in range(n, 2 * n) if self.rows[i].x & bit), None)
        if pivot is None:
            # Deterministic: multiply the stabilizers flagged by destabilizers.
            acc = _Row()
            for i in range(n):
                if self.rows[i].x & bit:
                    acc = _mult(acc, self.rows[i + n])
            return SignExpr(acc.r, acc.sym)
        # Random outcome: introduce a fresh free bit.
        free = 1 << self._next_free_bit
        self._next_free_bit += 1
        prow = self.rows[pivot].copy()
        for i, row in enumerate(self.rows):
            if i != pivot and row.x & bit:
                self.rows[i] = _mult(row, prow)
        self.rows[pivot - n] = prow
        self.rows[pivot] = _Row(z=bit, sym=free)
        return SignExpr(0, free)

    def reset(self, q: int) -> None:
        """Force qubit q to |0> (measure, then flip conditioned on outcome)."""
        expr = self.measure(q)
        bit = 1 << q
        for row in self.rows:
            if row.z & bit:
                row.r ^= expr.const
                row.sym ^= expr.sym
