"""Step-by-step branching oracle, kept as the reference for ``distribution``.

This is ``oracle.distribution`` as it was before the measurement-only tail
was read from one marginal: every measurement, terminal ones included,
splits the path with Born-rule weights and prunes each branch on its own.
Its kernels are the oracle's as they were before the in-place slice
updates: each gate, probability and projection reshapes a flat amplitude
vector and moves the acted-on axis to the front (``moveaxis``/``tensordot``).
``distribution`` must give the same outcome keys and, up to rounding, the
same probabilities.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from qreuse.ir import Circuit, ClassicalToggle, Gate, GateKind, Reset
from qreuse.oracle import OutcomeDistribution, SimulationLimitError

_SQRT2 = math.sqrt(0.5)


@functools.cache
def _fixed_matrices() -> dict[str, np.ndarray]:
    return {
        "h": np.array([[_SQRT2, _SQRT2], [_SQRT2, -_SQRT2]], dtype=complex),
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
        "s": np.array([[1, 0], [0, 1j]], dtype=complex),
        "t": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    }


def kind_matrix(kind: GateKind) -> np.ndarray:
    fixed = _fixed_matrices()
    if kind.name in fixed:
        return fixed[kind.name]
    if kind.name == "p":
        return np.array([[1, 0], [0, cmath.exp(1j * kind.angle)]], dtype=complex)
    if kind.name == "rz":
        return np.array(
            [[cmath.exp(-0.5j * kind.angle), 0], [0, cmath.exp(0.5j * kind.angle)]],
            dtype=complex,
        )
    if kind.name == "rx":
        c, s = math.cos(kind.angle / 2), math.sin(kind.angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    return np.array(kind.matrix, dtype=complex).reshape(2, 2)


def _holds(record: int, literals) -> bool:
    return all(((record >> b) & 1 == 1) == pol for b, pol in literals)


def _apply_single(state: np.ndarray, mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    t = state.reshape([2] * n)
    t = np.moveaxis(t, qubit, 0)
    t = np.tensordot(mat, t, axes=([1], [0]))
    return np.moveaxis(t, 0, qubit).reshape(-1)


def _apply_gate(state: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    mat = kind_matrix(gate.kind)
    target = gate.target
    if gate.control is None:
        return _apply_single(state, mat, target, n)
    control = gate.control
    t = state.reshape([2] * n).copy()
    sl = [slice(None)] * n
    sl[control] = 1
    sub = t[tuple(sl)]
    # Removing the control axis shifts later axes down by one.
    t_axis = target - (1 if target > control else 0)
    sub = np.moveaxis(sub, t_axis, 0)
    sub = np.tensordot(mat, sub, axes=([1], [0]))
    t[tuple(sl)] = np.moveaxis(sub, 0, t_axis)
    return t.reshape(-1)


def _prob_one(state: np.ndarray, qubit: int, n: int) -> float:
    t = np.abs(state.reshape([2] * n)) ** 2
    axes = tuple(a for a in range(n) if a != qubit)
    return float(t.sum(axis=axes)[1])


def _project(state: np.ndarray, qubit: int, outcome: int, prob: float, n: int) -> np.ndarray:
    t = state.reshape([2] * n).copy()
    sl = [slice(None)] * n
    sl[qubit] = 1 - outcome
    t[tuple(sl)] = 0.0
    return (t / math.sqrt(prob)).reshape(-1)


def reference_distribution(
    circuit: Circuit,
    *,
    max_qubits: int = 12,
    max_branches: int = 1 << 20,
    prune: float = 1e-14,
) -> OutcomeDistribution:
    """Joint distribution of the classical register after running the circuit.

    Depth-first path enumeration: unitaries act on a dense amplitude vector,
    measurements and resets split the path with Born-rule weights, conditions
    and toggles update each path's classical record. Branches with weight
    below ``prune`` are dropped.
    """
    n = circuit.n_qubits
    if n > max_qubits:
        raise SimulationLimitError(f"{n} qubits exceeds the cap of {max_qubits}")
    instrs = circuit.instructions
    initial = np.zeros(2 ** n, dtype=complex) if n else np.ones(1, dtype=complex)
    if n:
        initial[0] = 1.0
    acc: dict[int, float] = {}
    branches = 0
    # Stack entries: (next instruction position, state, classical record, weight).
    stack: list[tuple[int, np.ndarray, int, float]] = [(0, initial, 0, 1.0)]
    while stack:
        pos, state, record, weight = stack.pop()
        while pos < len(instrs):
            instr = instrs[pos]
            pos += 1
            if isinstance(instr, Gate):
                if _holds(record, instr.condition):
                    state = _apply_gate(state, instr, n)
            elif isinstance(instr, ClassicalToggle):
                if _holds(record, instr.product):
                    record ^= 1 << instr.target
            else:
                q = instr.qubit
                p1 = _prob_one(state, q, n)
                p0 = 1.0 - p1
                outcomes = []
                if p0 * weight > prune:
                    outcomes.append((0, p0))
                if p1 * weight > prune:
                    outcomes.append((1, p1))
                branched = []
                for outcome, p in outcomes:
                    sub = _project(state, q, outcome, p, n)
                    if isinstance(instr, Reset):
                        if outcome == 1:
                            sub = _apply_single(sub, _fixed_matrices()["x"], q, n)
                        branched.append((pos, sub, record, weight * p))
                    else:
                        rec = (record | (1 << instr.bit)) if outcome else (record & ~(1 << instr.bit))
                        branched.append((pos, sub, rec, weight * p))
                branches += len(branched)
                if branches > max_branches:
                    raise SimulationLimitError(
                        f"branch count exceeded {max_branches}; circuit too dynamic"
                    )
                if not branched:
                    weight = 0.0
                    break
                pos, state, record, weight = branched[0]
                stack.extend(branched[1:])
        if weight > 0.0:
            acc[record] = acc.get(record, 0.0) + weight
    m = circuit.n_clbits
    probs = {"".join(str(rec >> b & 1) for b in reversed(range(m))): p for rec, p in acc.items()}
    return OutcomeDistribution(circuit.n_clbits, probs)
