"""Stabilizer tableau with symbolic measurement signs, checked against the
dense state-vector oracle."""

import numpy as np
import pytest

from qecbound.tableau import SignExpr, SymbolicTableau

from conftest import DenseSim


def validate(tab: SymbolicTableau) -> None:
    """Check stabilizer generators are independent and commuting."""
    n = tab.n
    stabs = tab.rows[n:]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = stabs[i], stabs[j]
            if (bin(a.x & b.z).count("1") + bin(a.z & b.x).count("1")) % 2:
                raise AssertionError(f"stabilizers {i},{j} anticommute")
    # Independence: the 2n-bit (x|z) vectors must have full GF(2) rank.
    basis: list[int] = []
    for row in stabs:
        v = row.x | (row.z << n)
        for b in basis:
            v = min(v, v ^ b)
        if v == 0:
            raise AssertionError("dependent stabilizer generators")
        basis.append(v)


def test_sign_expr_xor():
    a = SignExpr(1, 0b01)
    b = SignExpr(0, 0b11)
    c = a ^ b
    assert c.const == 1 and c.sym == 0b10
    assert not a.deterministic
    assert SignExpr(1, 0).deterministic


def test_fresh_tableau_measures_zero():
    tab = SymbolicTableau(3)
    for q in range(3):
        expr = tab.measure(q)
        assert expr.deterministic and expr.const == 0


def test_x_flips_measurement():
    tab = SymbolicTableau(1)
    tab.gate("X", (0,))
    expr = tab.measure(0)
    assert expr.deterministic and expr.const == 1


def test_hadamard_randomizes_then_repeat_is_deterministic():
    tab = SymbolicTableau(1)
    tab.gate("H", (0,))
    first = tab.measure(0)
    assert not first.deterministic
    second = tab.measure(0)
    assert second == first  # same free bit, collapsed state


def test_bell_pair_correlated_outcomes():
    tab = SymbolicTableau(2)
    tab.gate("H", (0,))
    tab.gate("CX", (0, 1))
    a = tab.measure(0)
    b = tab.measure(1)
    assert not a.deterministic
    assert (a ^ b).deterministic and (a ^ b).const == 0


def test_cz_equals_conjugated_cx():
    # CZ on |+>|1> flips the first qubit's X expectation
    tab = SymbolicTableau(2)
    tab.gate("H", (0,))
    tab.gate("X", (1,))
    tab.gate("CZ", (0, 1))
    tab.gate("H", (0,))
    expr = tab.measure(0)
    assert expr.deterministic and expr.const == 1


def test_s_gate_period_four():
    tab = SymbolicTableau(1)
    tab.gate("H", (0,))
    for _ in range(4):
        tab.gate("S", (0,))
    tab.gate("H", (0,))
    expr = tab.measure(0)
    assert expr.deterministic and expr.const == 0


def test_sdg_inverts_s():
    tab = SymbolicTableau(1)
    tab.gate("H", (0,))
    tab.gate("S", (0,))
    tab.gate("SDG", (0,))
    tab.gate("H", (0,))
    expr = tab.measure(0)
    assert expr.deterministic and expr.const == 0


def test_hsh_on_one_gives_deterministic_flip():
    # H S S H == H Z H == X
    tab = SymbolicTableau(1)
    tab.gate("H", (0,))
    tab.gate("S", (0,))
    tab.gate("S", (0,))
    tab.gate("H", (0,))
    expr = tab.measure(0)
    assert expr.deterministic and expr.const == 1


def test_reset_after_hadamard():
    tab = SymbolicTableau(1)
    tab.gate("H", (0,))
    tab.reset(0)
    expr = tab.measure(0)
    assert expr.deterministic and expr.const == 0


def test_validate_after_random_circuit():
    rng = np.random.default_rng(7)
    tab = SymbolicTableau(4)
    for _ in range(200):
        op = rng.integers(6)
        q = int(rng.integers(4))
        if op == 0:
            tab.gate("H", (q,))
        elif op == 1:
            tab.gate("S", (q,))
        elif op == 2:
            tab.gate("SDG", (q,))
        elif op == 3:
            a, b = rng.choice(4, size=2, replace=False)
            tab.gate("CX", (int(a), int(b)))
        elif op == 4:
            tab.measure(q)
        else:
            tab.reset(q)
    validate(tab)


_GATES = ["H", "S", "SDG", "X", "Y", "Z", "CX", "CZ"]


@pytest.mark.parametrize("seed", range(30))
def test_deterministic_outcomes_match_dense_oracle(seed):
    """Random circuit; wherever the tableau says an outcome is
    deterministic, the dense simulator must agree on the value, across
    several dense trials (which also catches false determinism claims)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    ops = []
    for _ in range(int(rng.integers(3, 20))):
        g = _GATES[int(rng.integers(len(_GATES)))]
        if g in ("CX", "CZ"):
            if n < 2:
                continue
            a, b = rng.choice(n, size=2, replace=False)
            ops.append((g, (int(a), int(b))))
        elif rng.random() < 0.2:
            ops.append(("M", (int(rng.integers(n)),)))
        else:
            ops.append((g, (int(rng.integers(n)),)))
    ops.append(("M", (0,)))

    tab = SymbolicTableau(n)
    tab_out = []
    for g, qs in ops:
        if g == "M":
            tab_out.append(tab.measure(qs[0]))
        else:
            tab.gate(g, qs)
    validate(tab)

    for trial in range(20):
        sim = DenseSim(n, np.random.default_rng(1000 * seed + trial))
        dense_out = []
        for g, qs in ops:
            if g == "M":
                dense_out.append(sim.measure(qs[0]))
            else:
                sim.gate(g, qs)
        seen = {}
        for expr, bit in zip(tab_out, dense_out):
            if expr.deterministic:
                assert bit == expr.const
            else:
                # symbolically equal expressions must agree within a trial
                key = (expr.const, expr.sym)
                if key in seen:
                    assert seen[key] == bit
                else:
                    seen[key] = bit


@pytest.mark.parametrize("seed", range(10))
def test_randomized_outcomes_vary_across_trials(seed):
    """An outcome the tableau marks as randomized takes both values over
    many dense trials (probability 2^-60 of a false failure)."""
    rng = np.random.default_rng(seed + 500)
    n = 2
    tab = SymbolicTableau(n)
    tab.gate("H", (0,))
    tab.gate("CX", (0, 1))
    expr = tab.measure(0)
    assert not expr.deterministic
    values = set()
    for trial in range(60):
        sim = DenseSim(n, np.random.default_rng(trial))
        sim.gate("H", (0,))
        sim.gate("CX", (0, 1))
        values.add(sim.measure(0))
    assert values == {0, 1}
