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

``run`` pushes each measurement once, in circuit order, until no rule
applies. A measurement that is stuck stays stuck: later pushes only move
measurements across gates on their own wires and add accesses to bits, so
they never change a stuck measurement's wire predecessor and never remove an
access that blocks it. The circuit is kept as a doubly linked list with
per-wire and per-bit neighbour links and integer order labels, so a wire
predecessor is one lookup and "the bit is touched in between" is one label
comparison against the measurement's previous access to its bit.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate

from .ir import (
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
    link_slots,
    read_bits,
    written_bit,
)

__all__ = ["CommuteRule", "run"]


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


def _accessed_bits(instr: Instruction) -> tuple[int, ...]:
    bits = read_bits(instr)
    w = written_bit(instr)
    return bits if w is None or w in bits else bits + (w,)


_GAP = 1 << 32


def _link(prev: list[int], nxt: list[int], s: int, a: int, b: int) -> None:
    """Link slot ``s`` between slots ``a`` and ``b`` (-1: none)."""
    prev[s], nxt[s] = a, b
    if a >= 0:
        nxt[a] = s
    if b >= 0:
        prev[b] = s


class _Chain:
    """A circuit as a doubly linked list with per-wire and per-bit links.

    Node ``i`` starts as instruction ``i``; nodes a rewrite adds are
    appended. Wire and bit links join slots, not nodes: node ``i`` owns wire
    slots ``2i`` and ``2i + 1`` (its qubits in ``instruction_qubits`` order)
    and one bit slot per accessed bit from ``bit_base[i]`` on. ``label``
    orders the nodes: a node placed between two others takes the midpoint of
    their labels, and all labels are renumbered when a gap is used up.
    """

    def __init__(self, circuit: Circuit) -> None:
        instrs = circuit.instructions
        n = len(instrs)
        self.instr: list[Instruction] = list(instrs)
        self.prev = list(range(-1, n - 1))
        self.next = list(range(1, n + 1))
        if n:
            self.next[-1] = -1
        self.head = 0 if n else -1
        self.label = [(i + 1) * _GAP for i in range(n)]
        self.qubits = [instruction_qubits(i) for i in instrs]
        self.wire_prev, self.wire_next = link_slots(
            self.qubits, range(0, 2 * n, 2), 2 * n, circuit.n_qubits
        )
        self.bits = [_accessed_bits(i) for i in instrs]
        self.bit_base = list(accumulate((len(b) for b in self.bits), initial=0))
        n_slots = self.bit_base.pop()
        self.bit_owner = [i for i, bits in enumerate(self.bits) for _ in bits]
        self.bit_prev, self.bit_next = link_slots(self.bits, self.bit_base, n_slots, circuit.n_clbits)

    def wire_slot(self, node: int, q: int) -> int:
        return 2 * node + (self.qubits[node][0] != q)

    def bit_slot(self, node: int, b: int) -> int:
        return self.bit_base[node] + self.bits[node].index(b)

    def _place(self, node: int, before: int) -> None:
        """Link ``node`` into the global order right before ``before``."""
        a = self.prev[before]
        _link(self.prev, self.next, node, a, before)
        if a < 0:
            self.head = node
        lo = self.label[a] if a >= 0 else 0
        if self.label[before] - lo < 2:
            self._relabel()
            lo = self.label[a] if a >= 0 else 0
        self.label[node] = (lo + self.label[before]) // 2

    def _relabel(self) -> None:
        node, k = self.head, 1
        while node >= 0:
            self.label[node] = k * _GAP
            node, k = self.next[node], k + 1

    def move_before(self, node: int, gate: int, q: int) -> None:
        """Move ``node`` (one qubit ``q``, no bit crossed) right before
        ``gate``, its predecessor on wire ``q``."""
        a, b = self.prev[node], self.next[node]
        if a >= 0:
            self.next[a] = b
        else:
            self.head = b
        if b >= 0:
            self.prev[b] = a
        self._place(node, gate)
        wp, wn = self.wire_prev, self.wire_next
        s, gs = 2 * node, self.wire_slot(gate, q)
        a, b = wp[gs], wn[s]
        _link(wp, wn, s, a, gs)
        _link(wp, wn, gs, s, b)

    def insert_after(self, node: int, instr: Instruction) -> None:
        """Add ``instr`` between ``node`` and the node after it. Each of its
        wires and bits must be shared with ``node`` or, failing that, with
        the node after it."""
        new, after = len(self.instr), self.next[node]
        self.instr.append(instr)
        self.prev.append(-1)
        self.next.append(-1)
        self.label.append(0)
        self._place(new, after)
        qubits, bits = instruction_qubits(instr), _accessed_bits(instr)
        self.qubits.append(qubits)
        self.bits.append(bits)
        wp, wn, bp, bn = self.wire_prev, self.wire_next, self.bit_prev, self.bit_next
        wp += (-1, -1)
        wn += (-1, -1)
        self.bit_base.append(len(bp))
        for k, q in enumerate(qubits):
            a = self.wire_slot(node, q)
            _link(wp, wn, 2 * new + k, a, wn[a])
        for b in bits:
            s = len(bp)
            bp.append(-1)
            bn.append(-1)
            self.bit_owner.append(new)
            if b in self.bits[node]:
                a = self.bit_slot(node, b)
                _link(bp, bn, s, a, bn[a])
            else:
                c = self.bit_slot(after, b)
                _link(bp, bn, s, bp[c], c)

    def instructions(self) -> list[Instruction]:
        out = []
        node = self.head
        while node >= 0:
            out.append(self.instr[node])
            node = self.next[node]
        return out


def run(circuit: Circuit) -> tuple[Circuit, dict[str, int]]:
    """Push every measurement, in circuit order, until no rule applies."""
    instrs = circuit.instructions
    counts = {rule.value: 0 for rule in CommuteRule}
    limit = (2 * len(instrs) + 8) ** 2
    total = 0
    chain = _Chain(circuit)
    label, wire_prev, bit_prev, owner = chain.label, chain.wire_prev, chain.bit_prev, chain.bit_owner
    for m, meas in enumerate(instrs):
        if not isinstance(meas, Measure):
            continue
        q = meas.qubit
        while True:
            s = wire_prev[2 * m]
            if s < 0:
                break
            g = s >> 1
            gate = chain.instr[g]
            rule = _rule_for(meas, gate)
            if rule is None:
                break
            # Stuck when the previous access to the bit lies after the gate.
            p = bit_prev[chain.bit_base[m]]
            if p >= 0 and label[owner[p]] > label[g]:
                break
            if rule is CommuteRule.Y_DECOMPOSE:
                z, x = _split_y(gate)
                chain.instr[g] = z
                chain.insert_after(g, x)
            else:
                chain.move_before(m, g, q)
                if rule is CommuteRule.BIT_FLIP:
                    chain.insert_after(m, _toggle(meas, gate))
            counts[rule.value] += 1
            total += 1
            if total > limit:
                raise RuntimeError("commutation rule applications exceeded the watchdog bound")
    return circuit.with_instructions(chain.instructions()), counts
