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
conditioned bit-flips this exposes, and finally dead-gate elimination. All
four steps update one ``ir.Chain``, built from the input's facts, in place;
the result is turned back into a circuit, with its facts, once.

The fixpoint is defined by rounds of one full introduction pass and one full
exchange pass, the functions below. ``run`` reaches the same result with an
event heap that revisits only the gates next to the last change; each rule's
decision is one helper shared by both schedules.
"""

from __future__ import annotations

import heapq

from .ir import (
    Chain,
    Circuit,
    Condition,
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


def _remove_dead_gates(chain: Chain) -> int:
    """Remove every gate whose forward cone contains no measurement.

    A gate's cone writes a bit exactly when it reaches a measurement, so one
    backward reach pass decides every gate at once. Measurements, resets, and
    toggles always stay.
    """
    order = chain.order()
    dead = [
        node
        for node, bits in zip(order, chain.facts.forward_reach(order))
        if not bits and isinstance(chain.instr[node], Gate)
    ]
    for node in dead:
        chain.remove(node)
    return len(dead)


def eliminate_dead_gates(circuit: Circuit) -> tuple[Circuit, int]:
    """Delete every gate whose forward cone contains no measurement."""
    chain = Chain(circuit)
    removed = _remove_dead_gates(chain)
    return chain.materialise(), removed


def _conjoin(condition: Condition, bit: int, polarity: bool) -> Condition | None:
    """Add a literal; ``None`` signals a contradiction (gate never fires)."""
    for b, pol in condition.literals:
        if b == bit:
            return condition if pol == polarity else None
    return Condition(condition.literals + ((bit, polarity),))


def _measured_control(gate: Gate, prev: Instruction | None) -> Measure | None:
    """The measurement a controlled gate's control can be read from: the
    control wire's predecessor ``prev``, when that measures the control."""
    if isinstance(prev, Measure) and prev.qubit == gate.controls[0][0]:
        return prev
    return None


def _introduced(gate: Gate, meas: Measure) -> Gate | None:
    """The gate conditioned on ``meas``'s bit instead of its quantum control;
    ``None`` when the condition is contradictory and the gate never fires."""
    cond = _conjoin(gate.condition, meas.bit, gate.controls[0][1])
    return None if cond is None else Gate(gate.kind, gate.targets, (), cond, gate.source_line)


def _exchangeable(gate: Gate, prev_target: Instruction | None, prev_control: Instruction | None) -> bool:
    """A positive CZ/CP whose target wire's predecessor is the target's
    measurement and whose control wire's is not the control's."""
    if gate.kind.name not in ("z", "p") or len(gate.controls) != 1 or not gate.controls[0][1]:
        return False
    control, target = gate.controls[0][0], gate.targets[0]
    target_measured = isinstance(prev_target, Measure) and prev_target.qubit == target
    control_measured = isinstance(prev_control, Measure) and prev_control.qubit == control
    return target_measured and not control_measured


def _exchanged(gate: Gate) -> Gate:
    (control, _), = gate.controls
    return Gate(gate.kind, (control,), ((gate.targets[0], True),), gate.condition, gate.source_line)


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
            p = last_wire_pos.get(instr.controls[0][0])
            meas = _measured_control(instr, out[p] if p is not None else None)
            # the bit must still hold the measured value at the gate
            if meas is not None and last_write_pos.get(meas.bit) == p:
                replaced += 1
                new = _introduced(instr, meas)
                if new is None:
                    continue
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
        if isinstance(instr, Gate) and instr.controls and _exchangeable(
            instr, last_on_wire.get(instr.targets[0]), last_on_wire.get(instr.controls[0][0])
        ):
            new = _exchanged(instr)
            exchanged += 1
        for q in instruction_qubits(new):
            last_on_wire[q] = new
        out.append(new)
    return circuit.with_instructions(out), exchanged


def _controls_fixpoint(chain: Chain) -> tuple[int, int]:
    """Alternate introduction and exchange rounds on ``chain`` until neither
    fires; returns the number of introductions and of exchanges.

    Replays ``introduce_classical_controls`` then ``exchange_controls``,
    round after round, as one event heap keyed ``(round, phase, position)``
    with phase 0 introducing and phase 1 exchanging. Both decisions read only
    the gate's wire predecessors and the writes to the measured bit before
    it. Writes never change, and a predecessor changes only when a gate
    leaves that wire (introduced: its control wire; dropped: both), which
    queues the wire's next gate in both phases of the same round: being
    later on the wire, it is also later in the pass. An exchange queues the
    exchanged gate for introduction in the next round; it cannot exchange
    back, because its new target's predecessor is no measurement. Any other
    gate would decide as it did the last time, so a full pass changes
    nothing else. No node moves meanwhile, so positions stay fixed.
    """
    instrs, wire_prev, wire_next, slot = chain.instr, chain.wire_prev, chain.wire_next, chain.wire_slot
    order = chain.order()
    # Per node: its position and, if it writes a bit, the position of the
    # next write to that bit.
    at = [0] * len(instrs)
    next_write = [len(order)] * len(instrs)
    last_write = [-1] * chain.facts.n_clbits
    events: list[tuple[int, int, int]] = []
    for k, node in enumerate(order):
        at[node] = k
        w = chain.facts.writes[node]
        if w is not None:
            if last_write[w] >= 0:
                next_write[last_write[w]] = k
            last_write[w] = node
        instr = instrs[node]
        if isinstance(instr, Gate) and instr.controls:
            events += ((1, 0, k), (1, 1, k))
    heapq.heapify(events)

    def wire_pred(i: int, q: int) -> Instruction | None:
        p = wire_prev[slot(i, q)]
        return instrs[p >> 1] if p >= 0 else None

    introduced = exchanged = 0
    last = None
    while events:
        key = heapq.heappop(events)
        if key == last:
            continue
        last = key
        rnd, phase, k = key
        i = order[k]
        gate = instrs[i]
        if gate is None or not gate.controls:
            continue
        control = gate.controls[0][0]
        if phase == 1:
            if _exchangeable(gate, wire_pred(i, gate.targets[0]), wire_pred(i, control)):
                chain.replace(i, _exchanged(gate))
                exchanged += 1
                heapq.heappush(events, (rnd + 1, 0, k))
            continue
        p = wire_prev[slot(i, control)]
        meas = _measured_control(gate, instrs[p >> 1] if p >= 0 else None)
        if meas is None or next_write[p >> 1] < k:
            continue
        introduced += 1
        new = _introduced(gate, meas)
        leaving = chain.facts.qubits[i] if new is None else (control,)
        after = [wire_next[slot(i, q)] for q in leaving]
        if new is None:
            chain.remove(i)
        else:
            chain.replace(i, new)
        for b in after:
            if b >= 0:
                nxt = instrs[b >> 1]
                if isinstance(nxt, Gate) and nxt.controls:
                    heapq.heappush(events, (rnd, 0, at[b >> 1]))
                    heapq.heappush(events, (rnd, 1, at[b >> 1]))
    return introduced, exchanged


def _controls_to_fixpoint(circuit: Circuit) -> tuple[Circuit, int, int]:
    """``_controls_fixpoint`` on a circuit."""
    chain = Chain(circuit)
    introduced, exchanged = _controls_fixpoint(chain)
    return chain.materialise(), introduced, exchanged


def run(circuit: Circuit) -> tuple[Circuit, dict[str, int]]:
    """Full rewrite schedule; returns the circuit and per-rule tallies."""
    chain = Chain(circuit)
    counts = commute.push(chain)
    introduced, exchanged = _controls_fixpoint(chain)
    for rule, k in commute.push(chain).items():
        counts[rule] += k
    counts.update(classical_controls=introduced, exchanges=exchanged)
    counts["dead_gates"] = _remove_dead_gates(chain)
    return chain.materialise(), counts
