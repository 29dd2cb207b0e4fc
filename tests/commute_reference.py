"""Scan-based schedules, kept as the references for the linear-time ones.

``run`` is measurement commutation as it was before the linked-list
schedule: every rule application scans backward for the measurement's wire
predecessor and for accesses to its bit, and an outer sweep repeats until a
whole pass moves nothing. ``transform_run`` is the rewrite schedule as it
was before the event heap: full introduction and exchange passes,
alternating until a round fires neither. ``commute.run`` and
``transform.run`` must make exactly the same decisions.
"""

from __future__ import annotations

from qreuse import transform
from qreuse.commute import CommuteRule
from qreuse.ir import (
    Circuit,
    ClassicalToggle,
    Gate,
    Instruction,
    Measure,
    X_KIND,
    Z_KIND,
    instruction_qubits,
    is_bitflip,
    is_diagonal,
    read_bits,
    written_bit,
)


def _wire_prev(instrs, pos: int, qubit: int) -> int | None:
    for j in range(pos - 1, -1, -1):
        if qubit in instruction_qubits(instrs[j]):
            return j
    return None


def _bit_touched_between(instrs, lo: int, hi: int, bit: int) -> bool:
    # Moving a measurement of `bit` across this span must not reorder it with
    # any other access to the same bit.
    for j in range(lo + 1, hi):
        if bit in read_bits(instrs[j]) or written_bit(instrs[j]) == bit:
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
    if meas.bit in gate.condition.bits():
        return None
    if _bit_touched_between(instrs, g, pos, meas.bit):
        return None
    if any(q == meas.qubit for q, _ in gate.controls):
        return CommuteRule.CONTROLLED_ON_CONTROL, g
    if is_diagonal(gate):
        return CommuteRule.DIAGONAL, g
    if is_bitflip(gate) and meas.qubit in gate.targets:
        return CommuteRule.BIT_FLIP, g
    if gate.kind.name == "y" and not gate.controls and meas.qubit in gate.targets:
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
        instrs.insert(g + 1, ClassicalToggle(meas.bit, gate.condition.literals))
    else:  # Y = iXZ up to a global phase: Z first, then X, both inheriting the condition
        gate = instrs[g]
        instrs[g] = Gate(Z_KIND, gate.targets, (), gate.condition)
        instrs.insert(g + 1, Gate(X_KIND, gate.targets, (), gate.condition))


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


def controls_loop(circuit: Circuit) -> tuple[Circuit, int, int]:
    """Full introduction and exchange passes until a round fires neither."""
    introduced = exchanged = 0
    while True:
        circuit, i = transform.introduce_classical_controls(circuit)
        circuit, e = transform.exchange_controls(circuit)
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
    result, counts["dead_gates"] = transform.eliminate_dead_gates(result)
    return result, counts
