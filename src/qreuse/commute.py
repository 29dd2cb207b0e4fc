"""Move measurements toward the circuit start.

Four local rules, each applied to a measurement and the nearest earlier
instruction on the measured wire:

* diagonal gates swap freely with the measurement,
* a plain (possibly conditioned) X swaps by toggling the measured bit,
* Y is rewritten as Z then X, after which the other rules take over,
* a gate that merely uses the measured qubit as a quantum control lets the
  measurement slide through unchanged.

A rule also needs the measured bit untouched between the gate and the
measurement, so the move reorders no two accesses to that bit.

``push`` pushes each measurement once, in circuit order, until no rule
applies. A measurement that is stuck stays stuck: later pushes only move
measurements across gates on their own wires and add accesses to bits, so
they never change a stuck measurement's wire predecessor and never remove an
access that blocks it. It updates the shared index ``ir.Chain`` in place: a
wire predecessor is one lookup. ``push`` also tracks each bit's latest access
by label among the nodes it has visited or inserted, so "the bit is touched
in between" is one label comparison against the measurement's previous
access to its bit. ``transform.run`` pushes twice on one chain; ``run`` is
one push on a circuit.
"""

from __future__ import annotations

from enum import Enum

from .ir import (
    Chain,
    Circuit,
    ClassicalToggle,
    Gate,
    Instruction,
    Measure,
    X_KIND,
    Z_KIND,
    is_bitflip,
    is_diagonal,
)

__all__ = ["CommuteRule", "push", "run"]


class CommuteRule(Enum):
    DIAGONAL = "diagonal"
    BIT_FLIP = "bit_flip"
    Y_DECOMPOSE = "y_decompose"
    CONTROLLED_ON_CONTROL = "controlled_on_control"


def _rule_for(meas: Measure, prev: Instruction | None) -> CommuteRule | None:
    """The rule that moves ``meas`` across ``prev``, its wire predecessor,
    leaving aside other accesses to the measured bit in between."""
    if not isinstance(prev, Gate) or meas.bit in prev.condition.bits():
        return None
    if any(q == meas.qubit for q, _ in prev.controls):
        return CommuteRule.CONTROLLED_ON_CONTROL
    if is_diagonal(prev):
        return CommuteRule.DIAGONAL
    if is_bitflip(prev) and meas.qubit in prev.targets:
        return CommuteRule.BIT_FLIP
    if prev.kind.name == "y" and not prev.controls and meas.qubit in prev.targets:
        return CommuteRule.Y_DECOMPOSE
    return None


def _toggle(meas: Measure, gate: Gate) -> ClassicalToggle:
    """The fix-up a measurement leaves behind when it crosses an X."""
    return ClassicalToggle(meas.bit, gate.condition.literals, gate.source_line)


def _split_y(gate: Gate) -> tuple[Gate, Gate]:
    # Y = iXZ up to a global phase: Z first, then X, both inheriting the condition.
    return (
        Gate(Z_KIND, gate.targets, (), gate.condition, gate.source_line),
        Gate(X_KIND, gate.targets, (), gate.condition, gate.source_line),
    )


def push(chain: Chain) -> dict[str, int]:
    """Push every measurement of ``chain``, in circuit order, until no rule
    applies; returns the rule tallies."""
    order = chain.order()
    counts = {rule.value: 0 for rule in CommuteRule}
    limit = (2 * len(order) + 8) ** 2
    total = 0
    instr, label, wire_prev = chain.instr, chain.label, chain.wire_prev
    reads = chain.facts.reads
    # Per bit, the latest node by label that accesses it, among the nodes
    # visited or inserted so far.
    last = [-1] * chain.facts.n_clbits

    def record(node: int) -> None:
        """Note an inserted node as its bits' latest access where it is; an
        inserted toggle reads the bit it writes."""
        for b in reads[node]:
            p = last[b]
            if p < 0 or label[p] < label[node]:
                last[b] = node

    for m in order:
        # A visited node lies after every node visited or inserted so far.
        for b in reads[m]:
            last[b] = m
        meas = instr[m]
        if not isinstance(meas, Measure):
            continue
        # Every earlier node is visited, and no move crosses an access to
        # the bit, so its previous access stays this one throughout.
        p, last[meas.bit] = last[meas.bit], m
        q = meas.qubit
        while True:
            s = wire_prev[2 * m]
            if s < 0:
                break
            g = s >> 1
            gate = instr[g]
            rule = _rule_for(meas, gate)
            if rule is None:
                break
            # Stuck when the previous access to the bit lies after the gate.
            if p >= 0 and label[p] > label[g]:
                break
            if rule is CommuteRule.Y_DECOMPOSE:
                z, x = _split_y(gate)
                chain.replace(g, z)
                record(chain.insert_after(g, x))
            else:
                chain.move_before(m, g, q)
                if rule is CommuteRule.BIT_FLIP:
                    record(chain.insert_after(m, _toggle(meas, gate)))
            counts[rule.value] += 1
            total += 1
            if total > limit:
                raise RuntimeError("commutation rule applications exceeded the watchdog bound")
    return counts


def run(circuit: Circuit) -> tuple[Circuit, dict[str, int]]:
    """Push every measurement, in circuit order, until no rule applies."""
    chain = Chain(circuit)
    counts = push(chain)
    return chain.materialise(), counts
