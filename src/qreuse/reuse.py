"""Greedy qubit reuse: merge independent computations onto one wire.

A computation on qubit ``q`` may move onto wire ``q_prime`` when nothing that
depends on ``q``'s instructions is needed by ``q_prime``'s own instructions:
the forward reach of ``q``'s wire must not touch ``q_prime``, and no
instruction on ``q_prime`` may read or write a classical bit that ``q``'s
reach produces. The merge appends ``q``'s instructions after a fresh reset of
``q_prime`` and reschedules the rest topologically, keeping the original
order wherever dependencies allow. That schedule exists unless ``q``'s first
instruction already precedes some instruction of ``q_prime``, so each round
rejects cycling pairs with one mask test and schedules only the merge it
makes.
"""

from __future__ import annotations

import heapq
from dataclasses import replace

from .ir import Circuit, Dependencies, Gate, Instruction, Measure, Reset

__all__ = ["run"]


class _Analysis:
    """Per-wire masks and scheduling edges for one search round."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        deps = Dependencies(circuit)
        self.deps = deps
        qubit_reach, bit_reach = deps.forward_reach()
        self.successors = successors = deps.successors()

        # Wires each instruction precedes in the schedule order.
        n = len(deps.qubits)
        precedes = [0] * n
        for i in range(n - 1, -1, -1):
            m = 0
            for q in deps.qubits[i]:
                m |= 1 << q
            for j in successors[i]:
                m |= precedes[j]
            precedes[i] = m

        # Per wire: the reach of its instructions, the bits they access, and
        # the wires its first instruction precedes. Merging q after q' cycles
        # exactly when that first instruction precedes an instruction on q'.
        self.reach_qubits = []
        self.reach_bits = []
        self.wire_bits = []
        self.blocked = []
        for positions in deps.wires:
            qm = bm = accessed = 0
            for i in positions:
                qm |= qubit_reach[i]
                bm |= bit_reach[i]
                for b in deps.reads[i]:
                    accessed |= 1 << b
                b = deps.writes[i]
                if b is not None:
                    accessed |= 1 << b
            self.reach_qubits.append(qm)
            self.reach_bits.append(bm)
            self.wire_bits.append(accessed)
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
        host = self.deps.wires[q_prime]
        succ = self.successors + [self.deps.wires[q][:1]]
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
            if not self.deps.qubits[node]:
                out.append(instr)
            elif isinstance(instr, Gate):
                out.append(
                    Gate(
                        instr.kind,
                        tuple(remap(w) for w in instr.targets),
                        tuple((remap(w), pol) for w, pol in instr.controls),
                        instr.condition,
                    )
                )
            elif isinstance(instr, Measure):
                out.append(Measure(remap(instr.qubit), instr.bit))
            else:
                out.append(Reset(remap(instr.qubit)))
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


def run(circuit: Circuit) -> tuple[Circuit, int]:
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
