"""A second, independently written oracle: density matrices per record.

The state is a map from classical record to an unnormalised density matrix
whose trace is that record's probability. A measurement splits each matrix
with the two projectors of its qubit, and branches that reach the same
record merge by summation; a reset applies its two Kraus operators in place.
Nothing here shares code with ``qreuse.oracle``: the gate matrices are
written out again, operators are full ``2^n x 2^n`` Kronecker products, and
qubit q is bit q of a basis index (the oracle makes qubit 0 the most
significant). Full operators limit it to ``MAX_QUBITS``.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce

import numpy as np

from qreuse.ir import Circuit, ClassicalToggle, Gate, Reset

MAX_QUBITS = 7

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_P0 = np.diag([1, 0]).astype(complex)
_P1 = np.diag([0, 1]).astype(complex)
_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


def _single(kind) -> np.ndarray:
    name, theta = kind.name, kind.angle
    if name == "h":
        return (_X + _Z) / math.sqrt(2)
    if name == "x":
        return _X
    if name == "y":
        return 1j * _X @ _Z
    if name == "z":
        return _Z
    if name == "s":
        return np.diag([1, 1j])
    if name == "t":
        return np.diag([1, cmath.exp(0.25j * math.pi)])
    if name == "p":
        return np.diag([1, cmath.exp(1j * theta)])
    if name == "rx":
        return math.cos(theta / 2) * _I - 1j * math.sin(theta / 2) * _X
    if name == "rz":
        return math.cos(theta / 2) * _I - 1j * math.sin(theta / 2) * _Z
    a, b, c, d = kind.matrix
    return np.array([[a, b], [c, d]], dtype=complex)


def _embed(n: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    # Kronecker factors from the highest qubit down, so qubit q is bit q.
    return reduce(np.kron, [ops.get(q, _I) for q in reversed(range(n))], np.eye(1))


def _gate_operator(gate: Gate, n: int) -> np.ndarray:
    target, mat = gate.target, _single(gate.kind)
    if gate.control is None:
        return _embed(n, {target: mat})
    control = gate.control
    return _embed(n, {control: _P0}) + _embed(n, {control: _P1, target: mat})


def _holds(record: int, literals) -> bool:
    return all(bool(record >> b & 1) == pol for b, pol in literals)


def density_distribution(circuit: Circuit, prune: float = 1e-15) -> dict[str, float]:
    """Probabilities of the classical register, keyed like ``OutcomeDistribution``."""
    n, m = circuit.n_qubits, circuit.n_clbits
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the reference cap of {MAX_QUBITS}")
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    states = {0: rho}
    for instr in circuit.instructions:
        if isinstance(instr, Gate):
            u = _gate_operator(instr, n)
            states = {
                rec: (u @ r @ u.conj().T if _holds(rec, instr.condition) else r)
                for rec, r in states.items()
            }
        elif isinstance(instr, ClassicalToggle):
            toggled: dict[int, np.ndarray] = {}
            for rec, r in states.items():
                if _holds(rec, instr.product):
                    rec ^= 1 << instr.target
                toggled[rec] = toggled[rec] + r if rec in toggled else r
            states = toggled
        elif isinstance(instr, Reset):
            k0 = _embed(n, {instr.qubit: _P0})
            k1 = _embed(n, {instr.qubit: _LOWER})
            states = {
                rec: k0 @ r @ k0.conj().T + k1 @ r @ k1.conj().T for rec, r in states.items()
            }
        else:
            projectors = [_embed(n, {instr.qubit: p}) for p in (_P0, _P1)]
            measured: dict[int, np.ndarray] = {}
            for rec, r in states.items():
                for outcome, proj in enumerate(projectors):
                    branch = proj @ r @ proj
                    if np.trace(branch).real <= prune:
                        continue
                    new = rec | (1 << instr.bit) if outcome else rec & ~(1 << instr.bit)
                    measured[new] = measured[new] + branch if new in measured else branch
            states = measured
    return {
        "".join(str(rec >> b & 1) for b in reversed(range(m))): float(np.trace(r).real)
        for rec, r in states.items()
    }
