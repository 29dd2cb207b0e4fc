"""Depth and two-qubit gate count as standalone scans of the instructions.

``ir.depth`` and ``ir.two_qubit_gate_count`` read the circuit's cached
dependency facts; these read each instruction's own fields instead, so they
share no code with the facts and must agree with them.
"""

from __future__ import annotations

from qreuse.ir import Circuit, ClassicalToggle, Gate, Measure


def depth(circuit: Circuit) -> int:
    """As-soon-as-possible layer count; toggles only forward bit layers."""
    qubit_avail = [1] * circuit.n_qubits
    bit_layer = [0] * circuit.n_clbits
    deepest = 0
    for instr in circuit.instructions:
        if isinstance(instr, ClassicalToggle):
            # The XOR reads its target as well as its product.
            bits = [instr.target] + [b for b, _ in instr.product]
            bit_layer[instr.target] = max(bit_layer[b] for b in bits)
            continue
        if isinstance(instr, Gate):
            qubits = [instr.target] if instr.control is None else [instr.control, instr.target]
            bits = [b for b, _ in instr.condition]
        else:  # a measurement or a reset
            qubits, bits = [instr.qubit], []
        layer = max(qubit_avail[q] for q in qubits)
        for b in bits:
            layer = max(layer, bit_layer[b] + 1)
        for q in qubits:
            qubit_avail[q] = layer + 1
        if isinstance(instr, Measure):
            bit_layer[instr.bit] = layer
        deepest = max(deepest, layer)
    return deepest


def two_qubit_gate_count(circuit: Circuit) -> int:
    return sum(1 for instr in circuit.instructions if isinstance(instr, Gate) and instr.control is not None)
