"""Structural rewrites that remove gates and quantum controls.

Three transformations work together with measurement commutation:

* dead-gate elimination drops gates that can no longer influence any
  measurement,
* classical control introduction replaces a quantum control sitting right
  after its wire's measurement with a classical condition on the measured
  bit,
* control exchange flips control and target of CZ/CP gates whose target
  (but not control) was just measured, unlocking the previous rule.

``run`` chains them in the order the rewrites feed each other: commute,
then introduction/exchange to a fixpoint, one more commutation round for the
conditioned bit-flips this exposes, and finally dead-gate elimination.
"""

from __future__ import annotations

from .ir import (
    Circuit,
    Condition,
    Dependencies,
    Gate,
    Instruction,
    Measure,
    instruction_qubits,
    written_bit,
)
from . import commute

__all__ = [
    "eliminate_dead_gates",
    "introduce_classical_controls",
    "exchange_controls",
    "run",
]


def eliminate_dead_gates(circuit: Circuit) -> tuple[Circuit, int]:
    """Delete every gate whose forward cone contains no measurement.

    A gate's cone writes a bit exactly when it reaches a measurement, so one
    backward reach pass decides every gate at once. Measurements, resets, and
    toggles always stay.
    """
    _, bit_reach = Dependencies(circuit).forward_reach()
    kept = [
        instr
        for instr, bits in zip(circuit.instructions, bit_reach)
        if bits or not isinstance(instr, Gate)
    ]
    return circuit.with_instructions(kept), len(bit_reach) - len(kept)


def _conjoin(condition: Condition, bit: int, polarity: bool) -> Condition | None:
    """Add a literal; ``None`` signals a contradiction (gate never fires)."""
    for b, pol in condition.literals:
        if b == bit:
            return condition if pol == polarity else None
    return Condition(condition.literals + ((bit, polarity),))


def introduce_classical_controls(circuit: Circuit) -> tuple[Circuit, int]:
    """Replace measured quantum controls with classical conditions.

    A control qualifies when the most recent instruction on its wire is the
    measurement of that qubit. The control's polarity carries over to the
    literal, so negative controls read the bit negated. Controls whose qubit
    was not just measured stay quantum. Each decision reads only the prefix
    already rewritten, so one pass leaves nothing for a second to replace.
    """
    replaced = 0
    out: list[Instruction] = []
    last_wire_pos: dict[int, int] = {}
    last_write_pos: dict[int, int] = {}
    for instr in circuit.instructions:
        new = instr
        if isinstance(instr, Gate) and instr.controls:
            (cq, polarity), = instr.controls
            p = last_wire_pos.get(cq)
            prev = out[p] if p is not None else None
            if (
                isinstance(prev, Measure)
                and prev.qubit == cq
                # the bit must still hold the measured value at the gate
                and last_write_pos.get(prev.bit) == p
            ):
                cond = _conjoin(instr.condition, prev.bit, polarity)
                replaced += 1
                if cond is None:
                    continue  # contradictory condition: the gate never fires
                new = Gate(instr.kind, instr.targets, (), cond)
        idx = len(out)
        for q in instruction_qubits(new):
            last_wire_pos[q] = idx
        b = written_bit(new)
        if b is not None:
            last_write_pos[b] = idx
        out.append(new)
    return circuit.with_instructions(out), replaced


def exchange_controls(circuit: Circuit) -> tuple[Circuit, int]:
    """Swap control and target of phase-type gates measured on the target side.

    Applies to CZ/CP with a positive control, where the target's wire ends in
    its measurement but the control's does not. The swapped gate then
    qualifies for classical control introduction on the next round.
    """
    exchanged = 0
    out: list[Instruction] = []
    last_on_wire: dict[int, Instruction] = {}
    for instr in circuit.instructions:
        new = instr
        if (
            isinstance(instr, Gate)
            and instr.kind.name in ("z", "p")
            and len(instr.controls) == 1
            and instr.controls[0][1]
        ):
            control = instr.controls[0][0]
            target = instr.targets[0]
            prev_t = last_on_wire.get(target)
            prev_c = last_on_wire.get(control)
            target_measured = isinstance(prev_t, Measure) and prev_t.qubit == target
            control_measured = isinstance(prev_c, Measure) and prev_c.qubit == control
            if target_measured and not control_measured:
                new = Gate(instr.kind, (control,), ((target, True),), instr.condition)
                exchanged += 1
        for q in instruction_qubits(new):
            last_on_wire[q] = new
        out.append(new)
    return circuit.with_instructions(out), exchanged


def run(circuit: Circuit) -> tuple[Circuit, dict[str, int]]:
    """Full rewrite schedule; returns the circuit and per-rule tallies."""
    result, counts = commute.run(circuit)
    counts = dict(counts)
    counts.update(classical_controls=0, exchanges=0, dead_gates=0)
    while True:
        result, introduced = introduce_classical_controls(result)
        result, exchanged = exchange_controls(result)
        counts["classical_controls"] += introduced
        counts["exchanges"] += exchanged
        if not introduced and not exchanged:
            break
    result, more = commute.run(result)
    for rule, k in more.items():
        counts[rule] += k
    result, removed = eliminate_dead_gates(result)
    counts["dead_gates"] += removed
    return result, counts
