"""Depth and two-qubit gate count as standalone scans of the instructions.

``ir.depth`` and ``ir.two_qubit_gate_count`` read the circuit's cached
dependency facts; these recompute every instruction's qubits and bits, as
the library did before the facts were shared, and must agree with them.
"""

from __future__ import annotations

from qreuse.ir import Circuit, ClassicalToggle, Gate, Measure, instruction_qubits, read_bits


def depth(circuit: Circuit) -> int:
    """As-soon-as-possible layer count; toggles only forward bit layers."""
    qubit_avail = [1] * circuit.n_qubits
    bit_layer = [0] * circuit.n_clbits
    deepest = 0
    for instr in circuit.instructions:
        if isinstance(instr, ClassicalToggle):
            layer = max((bit_layer[b] for b in read_bits(instr)), default=0)
            bit_layer[instr.target] = layer
            continue
        qubits = instruction_qubits(instr)
        layer = max(qubit_avail[q] for q in qubits)
        for b in read_bits(instr):
            layer = max(layer, bit_layer[b] + 1)
        for q in qubits:
            qubit_avail[q] = layer + 1
        if isinstance(instr, Measure):
            bit_layer[instr.bit] = layer
        deepest = max(deepest, layer)
    return deepest


def two_qubit_gate_count(circuit: Circuit) -> int:
    return sum(
        1
        for instr in circuit.instructions
        if isinstance(instr, Gate) and len(instruction_qubits(instr)) == 2
    )
