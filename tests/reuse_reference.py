"""Per-merge qubit reuse, kept as the reference for ``reuse.run``.

This is the reuse pass as it was before it planned every merge on one
analysis: each round rebuilds the wires, scheduling edges and forward reach
of the current circuit, takes the first-fit pair by the same mask tests, and
reschedules and rebuilds the whole circuit for that one merge. ``reuse.run``
must make the same merge decisions; its schedule may order independent
instructions differently, which ``same_dependency_order`` tolerates.
``plan_scan`` is the one-analysis planner as it was when every merge
rescanned every live group; it reaches circuits far wider than the per-merge
pass can. Both read every instruction fact through ``facts_reference``.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import replace

from qreuse.ir import Circuit, Gate, Instruction, Measure, Reset

import facts_reference
from facts_reference import forward_reach, qubits, reads, written


def plan_scan(circuit: Circuit) -> list[tuple[int, int]]:
    """First-fit merges ``(mover, host)`` of wire groups: lowest host first,
    then lowest mover, repeated until no pair qualifies.

    ``reuse._plan`` as it was when every merge rescanned every live group,
    absorbed ones included; ``reuse._plan`` must return the same list.

    A group's masks only grow as it absorbs others, so a rejected pair stays
    rejected; one sweep over hosts and movers in that order therefore makes
    the same merges as restarting the search after each one.
    """
    bit_reach = forward_reach(circuit)[1]
    precedes = _precedes(circuit, facts_reference.successors(circuit))
    wires = facts_reference.wires(circuit)

    # Per live wire (one with an instruction; idle wires take no part):
    # the bits its instructions reach, the bits they access, the wires its
    # first instruction precedes, and its group's members. A cone only
    # follows scheduling edges, so the wires a group reaches are among those
    # it blocks, and the cycle test below also rules out reaching the host.
    live = [w for w, positions in enumerate(wires) if positions]
    reach_bits, accessed, blocked, members = [], [], [], []
    for w in live:
        positions = wires[w]
        bm = 0
        for i in positions:
            bm |= bit_reach[i]
        reach_bits.append(bm)
        accessed.append(_accessed(circuit, positions))
        blocked.append(precedes[positions[0]])
        members.append(1 << w)

    n_live = len(live)
    merges: list[tuple[int, int]] = []
    for h in range(n_live):
        for g in range(n_live):
            if g == h or not members[g] or not members[h]:
                continue
            # Independent, and g's first instruction need not precede h's wire.
            if accessed[h] & reach_bits[g] or blocked[g] & members[h]:
                continue
            # Whatever precedes h's last instruction now precedes g's first.
            for k in range(n_live):
                if blocked[k] & members[h]:
                    blocked[k] |= blocked[g]
            blocked[h] |= blocked[g]
            reach_bits[h] |= reach_bits[g]
            accessed[h] |= accessed[g]
            members[h] |= members[g]
            members[g] = 0
            merges.append((live[g], live[h]))
    return merges


def same_dependency_order(a: Circuit, b: Circuit) -> bool:
    """Whether two circuits order every dependency the same way.

    Each wire must carry the same instruction sequence, and each classical
    bit the same writes in the same order, with the same reads (as a
    multiset) before the first write and between consecutive writes. Only
    the interleaving of independent instructions may differ.
    """
    if (a.n_qubits, a.n_clbits) != (b.n_qubits, b.n_clbits):
        return False
    return _dependency_order(a) == _dependency_order(b)


def _dependency_order(circuit: Circuit):
    instrs = circuit.instructions
    wires = [[instrs[i] for i in positions] for positions in facts_reference.wires(circuit)]
    bits: list[list] = [[Counter()] for _ in range(circuit.n_clbits)]
    for instr in instrs:
        w = written(instr)
        for b in reads(instr):
            if b != w:
                bits[b][-1][instr] += 1
        if w is not None:
            bits[w] += [instr, Counter()]
    return wires, bits


def _precedes(circuit: Circuit, successors: list[list[int]]) -> list[int]:
    """Per instruction, the mask of the wires it precedes in the schedule
    order: its own and those of everything after it along ``successors``."""
    instrs = circuit.instructions
    precedes = [0] * len(instrs)
    for i in range(len(instrs) - 1, -1, -1):
        m = 0
        for q in qubits(instrs[i]):
            m |= 1 << q
        for j in successors[i]:
            m |= precedes[j]
        precedes[i] = m
    return precedes


def _accessed(circuit: Circuit, positions: list[int]) -> int:
    """The mask of the bits the instructions at ``positions`` read or write."""
    mask = 0
    for i in positions:
        instr = circuit.instructions[i]
        for b in reads(instr):
            mask |= 1 << b
        w = written(instr)
        if w is not None:
            mask |= 1 << w
    return mask


class _Analysis:
    """Per-wire masks and scheduling edges for one search round."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.wires = facts_reference.wires(circuit)
        qubit_reach, bit_reach = forward_reach(circuit)
        self.successors = facts_reference.successors(circuit)
        precedes = _precedes(circuit, self.successors)

        # Per wire: the reach of its instructions, the bits they access, and
        # the wires its first instruction precedes. Merging q after q' cycles
        # exactly when that first instruction precedes an instruction on q'.
        self.reach_qubits = []
        self.reach_bits = []
        self.wire_bits = []
        self.blocked = []
        for positions in self.wires:
            qm = bm = 0
            for i in positions:
                qm |= qubit_reach[i]
                bm |= bit_reach[i]
            self.reach_qubits.append(qm)
            self.reach_bits.append(bm)
            self.wire_bits.append(_accessed(circuit, positions))
            self.blocked.append(precedes[positions[0]] if positions else 0)

    def independent(self, q: int, q_prime: int) -> bool:
        if self.reach_qubits[q] >> q_prime & 1:
            return False
        return not self.wire_bits[q_prime] & self.reach_bits[q]

    def cycles(self, q: int, q_prime: int) -> bool:
        return bool(self.blocked[q] >> q_prime & 1)

    def merge(self, q: int, q_prime: int) -> list[Instruction]:
        """Schedule of the circuit with ``q`` moved onto ``q_prime``.

        Stable Kahn's algorithm over the round's edges plus the merged wire's
        host, reset, mover chain; ties broken by original position so
        untouched instructions keep their order.
        """
        instrs = self.circuit.instructions
        n = len(instrs)
        reset_node = n
        host = self.wires[q_prime]
        succ = self.successors + [self.wires[q][:1]]
        if host:
            succ[host[-1]] = succ[host[-1]] + [reset_node]
        indegree = [0] * (n + 1)
        for outs in succ:
            for j in outs:
                indegree[j] += 1

        reset_key = (host[-1] + 0.5) if host else -0.5
        sort_key = list(range(n)) + [reset_key]
        ready = [sort_key[i] for i in range(n + 1) if indegree[i] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            key = heapq.heappop(ready)
            node = reset_node if key == reset_key else key
            order.append(node)
            for nxt in succ[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    heapq.heappush(ready, sort_key[nxt])
        if len(order) != n + 1:
            raise RuntimeError(f"merging wire {q} onto {q_prime} cycles; the mask test missed it")

        def remap(w: int) -> int:
            if w == q:
                w = q_prime
            return w - 1 if w > q else w

        out: list[Instruction] = []
        for node in order:
            if node == reset_node:
                out.append(Reset(remap(q_prime)))
                continue
            instr = instrs[node]
            if isinstance(instr, Gate):
                control = None if instr.control is None else remap(instr.control)
                out.append(Gate(instr.kind, remap(instr.target), control, instr.condition))
            elif isinstance(instr, Measure):
                out.append(Measure(remap(instr.qubit), instr.bit))
            elif isinstance(instr, Reset):
                out.append(Reset(remap(instr.qubit)))
            else:
                out.append(instr)
        return out


def _search(analysis: _Analysis) -> tuple[int, int] | None:
    """First-fit reusable pair: lowest host wire first, then lowest mover."""
    n = analysis.circuit.n_qubits
    for q_prime in range(n):
        for q in range(n):
            if q == q_prime or not analysis.independent(q, q_prime):
                continue
            if not analysis.cycles(q, q_prime):
                return q, q_prime
    return None


def reference_run(circuit: Circuit) -> tuple[Circuit, int]:
    """Repeat find-and-merge until no pair qualifies."""
    merges = 0
    while circuit.n_qubits > 1:
        analysis = _Analysis(circuit)
        found = _search(analysis)
        if found is None:
            break
        merged = analysis.merge(*found)
        circuit = replace(circuit, n_qubits=circuit.n_qubits - 1, instructions=tuple(merged))
        merges += 1
    return circuit, merges
