"""Scan-based schedules, kept as the references for the linear-time ones.

``run`` is measurement commutation as it was before the linked-list
schedule: every rule application scans backward for the measurement's wire
predecessor and for accesses to its bit, and an outer sweep repeats until a
whole pass moves nothing. ``introduce_scan`` and ``exchange_scan`` are the
introduction and exchange passes as they were before the rules became steps
on one linked list: each keeps its own dicts of the latest position on every
wire and bit. ``transform_run`` is the rewrite schedule with full
introduction and exchange scans, alternating until a round fires neither,
and dead-gate elimination by the forward reach of ``facts_reference``.
``commute.run``, ``transform.run`` and the one-pass ``transform`` functions
must make exactly the same decisions. Every instruction fact, and which
gates are diagonal or bit flips, is read from the instruction fields here
or in ``facts_reference``.
"""

from __future__ import annotations

import math

from qreuse.commute import CommuteRule
from qreuse.ir import Circuit, ClassicalToggle, Gate, Instruction, Measure, X_KIND, Z_KIND

from facts_reference import forward_reach, qubits, reads, written

_DIAGONAL_KINDS = frozenset({"z", "s", "t", "p", "rz"})
# The kinds that are diag(1, phase) at every angle.
_PHASE_KINDS = frozenset({"z", "s", "t", "p"})


def _diagonal(gate: Gate) -> bool:
    """A phase-type kind, an ``rx`` whose angle is a multiple of 2pi up to
    ``|sin(angle/2)| <= 1e-12``, or an opaque matrix whose off-diagonal
    entries are at most 1e-12 in magnitude. A control or condition keeps it
    diagonal."""
    if gate.kind.name == "u":
        m = gate.kind.matrix
        return abs(m[1]) <= 1e-12 and abs(m[2]) <= 1e-12
    if gate.kind.name == "rx":
        return abs(math.sin(gate.kind.angle / 2)) <= 1e-12
    return gate.kind.name in _DIAGONAL_KINDS


def _phase(gate: Gate) -> bool:
    """``diag(1, phase)`` exactly: a phase kind, ``rz(0)``, or an opaque
    matrix of that form. Such a controlled gate is symmetric in its qubits."""
    kind = gate.kind
    if kind.name == "u":
        m = kind.matrix
        return m[0] == 1 and m[1] == 0 and m[2] == 0
    return kind.name in _PHASE_KINDS or (kind.name == "rz" and kind.angle == 0)


def _wire_prev(instrs, pos: int, qubit: int) -> int | None:
    for j in range(pos - 1, -1, -1):
        if qubit in qubits(instrs[j]):
            return j
    return None


def _bit_touched_between(instrs, lo: int, hi: int, bit: int) -> bool:
    # Moving a measurement of `bit` across this span must not reorder it with
    # any other access to the same bit.
    for j in range(lo + 1, hi):
        if bit in reads(instrs[j]) or written(instrs[j]) == bit:
            return True
    return False


def _rule_at(instrs, pos: int) -> tuple[CommuteRule, int] | None:
    meas = instrs[pos]
    if not isinstance(meas, Measure):
        raise ValueError(f"instruction at {pos} is not a measurement")
    g = _wire_prev(instrs, pos, meas.qubit)
    if g is None:
        return None
    gate = instrs[g]
    if not isinstance(gate, Gate):
        return None
    if meas.bit in [b for b, _ in gate.condition]:
        return None
    if _bit_touched_between(instrs, g, pos, meas.bit):
        return None
    if gate.control is not None and gate.control == meas.qubit:
        return CommuteRule.CONTROLLED_ON_CONTROL, g
    if _diagonal(gate):
        return CommuteRule.DIAGONAL, g
    if gate.kind.name == "x" and gate.control is None and gate.target == meas.qubit:
        return CommuteRule.BIT_FLIP, g
    if gate.kind.name == "y" and gate.control is None and gate.target == meas.qubit:
        return CommuteRule.Y_DECOMPOSE, g
    return None


def _apply(instrs: list[Instruction], pos: int, rule: CommuteRule, g: int) -> None:
    meas = instrs[pos]
    if rule in (CommuteRule.DIAGONAL, CommuteRule.CONTROLLED_ON_CONTROL):
        instrs.pop(pos)
        instrs.insert(g, meas)
    elif rule == CommuteRule.BIT_FLIP:
        gate = instrs[g]
        instrs.pop(pos)
        instrs.insert(g, meas)
        instrs.insert(g + 1, ClassicalToggle(meas.bit, gate.condition))
    else:  # Y = iXZ up to a global phase: Z first, then X, both inheriting the condition
        gate = instrs[g]
        instrs[g] = Gate(Z_KIND, gate.target, None, gate.condition)
        instrs.insert(g + 1, Gate(X_KIND, gate.target, None, gate.condition))


def run(circuit: Circuit) -> tuple[Circuit, dict[str, int]]:
    """Apply rules until no measurement can move any further.

    Measurements are visited in circuit order, each pushed until stuck.
    """
    instrs = list(circuit.instructions)
    counts = {rule.value: 0 for rule in CommuteRule}
    limit = (2 * len(instrs) + 8) ** 2
    total = 0
    changed = True
    while changed:
        changed = False
        pos = 0
        while pos < len(instrs):
            if isinstance(instrs[pos], Measure):
                at = pos
                while True:
                    found = _rule_at(instrs, at)
                    if found is None:
                        break
                    rule, g = found
                    _apply(instrs, at, rule, g)
                    counts[rule.value] += 1
                    total += 1
                    changed = True
                    if total > limit:
                        raise RuntimeError(
                            "commutation rule applications exceeded the watchdog bound"
                        )
                    # Y rewriting shifts the measurement right by the inserted
                    # X; every other rule lands it at the gate's old slot.
                    at = at + 1 if rule is CommuteRule.Y_DECOMPOSE else g
            pos += 1
    return circuit.with_instructions(instrs), counts


def _conjoin(condition: tuple, bit: int, polarity: bool) -> tuple | None:
    """Add a literal; ``None`` signals a contradiction (gate never fires)."""
    for b, pol in condition:
        if b == bit:
            return condition if pol == polarity else None
    return condition + ((bit, polarity),)


def _measured_control(gate: Gate, prev: Instruction | None) -> Measure | None:
    """The measurement a controlled gate's control can be read from: the
    control wire's predecessor ``prev``, when that measures the control."""
    if isinstance(prev, Measure) and prev.qubit == gate.control:
        return prev
    return None


def _introduced(gate: Gate, meas: Measure) -> Gate | None:
    """The gate conditioned on ``meas``'s bit instead of its quantum control;
    ``None`` when the condition is contradictory and the gate never fires."""
    cond = _conjoin(gate.condition, meas.bit, True)
    return None if cond is None else Gate(gate.kind, gate.target, None, cond, gate.source_line)


def _exchangeable(gate: Gate, prev_target: Instruction | None, prev_control: Instruction | None) -> bool:
    """A controlled phase (CZ, CP, ...) whose target wire's predecessor is
    the target's measurement and whose control wire's is not the control's."""
    if not _phase(gate) or gate.control is None:
        return False
    control, target = gate.control, gate.target
    target_measured = isinstance(prev_target, Measure) and prev_target.qubit == target
    control_measured = isinstance(prev_control, Measure) and prev_control.qubit == control
    return target_measured and not control_measured


def _exchanged(gate: Gate) -> Gate:
    return Gate(gate.kind, gate.control, gate.target, gate.condition, gate.source_line)


def introduce_scan(circuit: Circuit) -> tuple[Circuit, int]:
    """One introduction pass over a list, with per-wire and per-bit dicts of
    the latest position in the rewritten prefix."""
    replaced = 0
    out: list[Instruction] = []
    last_wire_pos: dict[int, int] = {}
    last_write_pos: dict[int, int] = {}
    for instr in circuit.instructions:
        new = instr
        if isinstance(instr, Gate) and instr.control is not None:
            p = last_wire_pos.get(instr.control)
            meas = _measured_control(instr, out[p] if p is not None else None)
            # the bit must still hold the measured value at the gate
            if meas is not None and last_write_pos.get(meas.bit) == p:
                replaced += 1
                new = _introduced(instr, meas)
                if new is None:
                    continue
        idx = len(out)
        for q in qubits(new):
            last_wire_pos[q] = idx
        b = written(new)
        if b is not None:
            last_write_pos[b] = idx
        out.append(new)
    return circuit.with_instructions(out), replaced


def exchange_scan(circuit: Circuit) -> tuple[Circuit, int]:
    """One exchange pass over a list, with a dict of each wire's latest
    instruction in the rewritten prefix."""
    exchanged = 0
    out: list[Instruction] = []
    last_on_wire: dict[int, Instruction] = {}
    for instr in circuit.instructions:
        new = instr
        if isinstance(instr, Gate) and instr.control is not None and _exchangeable(
            instr, last_on_wire.get(instr.target), last_on_wire.get(instr.control)
        ):
            new = _exchanged(instr)
            exchanged += 1
        for q in qubits(new):
            last_on_wire[q] = new
        out.append(new)
    return circuit.with_instructions(out), exchanged


def controls_loop(circuit: Circuit) -> tuple[Circuit, int, int]:
    """Full introduction and exchange passes until a round fires neither."""
    introduced = exchanged = 0
    while True:
        circuit, i = introduce_scan(circuit)
        circuit, e = exchange_scan(circuit)
        introduced += i
        exchanged += e
        if not i and not e:
            return circuit, introduced, exchanged


def transform_run(circuit: Circuit) -> tuple[Circuit, dict[str, int]]:
    """The rewrite schedule with one full pass per introduction/exchange round."""
    result, counts = run(circuit)
    counts = dict(counts)
    result, introduced, exchanged = controls_loop(result)
    counts.update(classical_controls=introduced, exchanges=exchanged)
    result, more = run(result)
    for rule, k in more.items():
        counts[rule] += k
    result, counts["dead_gates"] = eliminate_dead_gates(result)
    return result, counts


def eliminate_dead_gates(circuit: Circuit) -> tuple[Circuit, int]:
    """Drop every gate whose forward cone writes no bit, all at once: a dead
    gate's cone is empty of writes, so removing it changes no other gate's."""
    bit_reach = forward_reach(circuit)[1]
    kept = [
        instr
        for instr, bits in zip(circuit.instructions, bit_reach)
        if bits or not isinstance(instr, Gate)
    ]
    return circuit.with_instructions(kept), len(circuit.instructions) - len(kept)
