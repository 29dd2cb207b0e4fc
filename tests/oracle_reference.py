"""Step-by-step branching oracle, kept as the reference for ``distribution``.

This is ``oracle.distribution`` as it was before the measurement-only tail
was read from one marginal: every measurement, terminal ones included,
splits the path with Born-rule weights and prunes each branch on its own.
``distribution`` must give the same outcome keys and, up to rounding, the
same probabilities.
"""

from __future__ import annotations

import numpy as np

from qreuse.ir import Circuit, ClassicalToggle, Gate, Reset
from qreuse.oracle import (
    OutcomeDistribution,
    SimulationLimitError,
    _apply_gate,
    _apply_single,
    _fixed_matrices,
    _key,
    _literals_hold,
    _prob_one,
    _project,
)


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
                if _literals_hold(record, instr.condition.literals):
                    state = _apply_gate(state, instr, n)
            elif isinstance(instr, ClassicalToggle):
                if _literals_hold(record, instr.product):
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
    probs = {_key(rec, circuit.n_clbits): p for rec, p in acc.items()}
    return OutcomeDistribution(circuit.n_clbits, probs)
