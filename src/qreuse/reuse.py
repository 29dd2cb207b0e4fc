"""Greedy qubit reuse: merge independent computations onto one wire.

A computation on qubit ``q`` may move onto wire ``q_prime`` when nothing that
depends on ``q``'s instructions is needed by ``q_prime``'s own instructions:
the forward reach of ``q``'s wire must not touch ``q_prime``, and no
instruction on ``q_prime`` may read or write a classical bit that ``q``'s
reach produces. The merge appends ``q``'s instructions after a fresh reset of
``q_prime``. That order exists unless ``q``'s first instruction already
precedes some instruction of ``q_prime``. A wire without instructions takes
no part: it is never planned and gets no output wire.

The circuit is analysed once, on its ``Dependencies``: the ones the
rewrite passes handed over, or the input's own. A merge changes none of the
facts these tests read, when each is expressed over the original wires: a
reset stops the forward reach exactly where the host wire used to end, and
the scheduling edges only gain one ``host last -> reset -> mover first``
chain. So every merge is planned on per-group masks (a group is the set of
original wires sharing one wire, named by its host's original wire). The
merged circuit is then scheduled once with a stable topological sort that
keeps the original order wherever dependencies allow, and its wires are
renumbered once. The result carries its facts: the input's, renumbered the
same way.
"""

from __future__ import annotations

import heapq

from .ir import Circuit, Dependencies, Gate, Instruction, Measure, Reset

__all__ = ["run"]


def _plan(deps: Dependencies, successors: list[list[int]]) -> list[tuple[int, int]]:
    """First-fit merges ``(mover, host)`` of wire groups: lowest host first,
    then lowest mover, repeated until no pair qualifies.

    A group's masks only grow as it absorbs others, so a rejected pair stays
    rejected; one sweep over hosts and movers in that order therefore makes
    the same merges as restarting the search after each one. An absorbed
    group is never tested or read again, so both the mover scan and the
    per-merge update run over the groups not yet absorbed.
    """
    bit_reach = deps.forward_reach()
    wires = deps.wires

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

    # Per live wire (one with an instruction; idle wires take no part):
    # the bits its instructions reach, the bits they access, the wires its
    # first instruction precedes, and its group's members. A cone only
    # follows scheduling edges, so the wires a group reaches are among those
    # it blocks, and the cycle test below also rules out reaching the host.
    live = [w for w, positions in enumerate(wires) if positions]
    reach_bits, accessed, blocked, members = [], [], [], []
    for w in live:
        positions = wires[w]
        bm = am = 0
        for i in positions:
            bm |= bit_reach[i]
            for b in deps.reads[i]:
                am |= 1 << b
            b = deps.writes[i]
            if b is not None:
                am |= 1 << b
        reach_bits.append(bm)
        accessed.append(am)
        blocked.append(precedes[positions[0]])
        members.append(1 << w)

    n_live = len(live)
    unabsorbed = list(range(n_live))
    merges: list[tuple[int, int]] = []
    for h in range(n_live):
        host, host_bits = members[h], accessed[h]
        if not host:
            continue
        for g in unabsorbed[:]:
            if g == h:
                continue
            # Independent, and g's first instruction need not precede h's wire.
            if host_bits & reach_bits[g] or blocked[g] & host:  # pair test
                continue
            # Whatever precedes h's last instruction now precedes g's first.
            # h's own first instruction does, so h's mask grows too.
            for k in unabsorbed:
                if blocked[k] & host:  # propagation
                    blocked[k] |= blocked[g]
            reach_bits[h] |= reach_bits[g]
            host_bits |= accessed[g]
            host |= members[g]
            members[g] = 0
            unabsorbed.remove(g)
            merges.append((live[g], live[h]))
        members[h], accessed[h] = host, host_bits
    return merges


def run(circuit: Circuit) -> tuple[Circuit, int]:
    """Plan every merge, then schedule and renumber the circuit once."""
    deps = circuit.dependencies()
    successors = deps.successors()
    merges = _plan(deps, successors)
    wires = deps.wires
    if not merges and all(wires):
        return circuit, 0

    # One reset node per merge, chained between the host group's current
    # last node and the mover group's first. It sorts right after the node it
    # follows and takes the source line of the mover's first instruction.
    # The node it follows is always an original instruction (a group's tail
    # only moves to its mover's tail), and no two resets follow the same one,
    # so instruction i sorts as 2i and a reset after it as 2i + 1.
    instrs = circuit.instructions
    n = len(instrs)
    tail: dict[int, int] = {}
    sort_key = list(range(0, 2 * n, 2))
    for g, h in merges:
        node, first, last = len(sort_key), wires[g][0], tail.get(h, wires[h][-1])
        successors.append([first])
        sort_key.append(2 * last + 1)
        successors[last].append(node)
        tail[h] = tail.get(g, wires[g][-1])

    indegree = [0] * len(sort_key)
    for outs in successors:
        for j in outs:
            indegree[j] += 1
    ready = [(sort_key[i], i) for i in range(len(sort_key)) if indegree[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, node = heapq.heappop(ready)
        order.append(node)
        for nxt in successors[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, (sort_key[nxt], nxt))
    if len(order) != len(sort_key):
        raise RuntimeError("the planned merges cycle; the mask test missed it")

    # A group's wire is its host's rank among the surviving hosts, which is
    # where the monotone renumbering after each merge would put it. Idle
    # wires get none.
    owner = list(range(circuit.n_qubits))
    for g, h in reversed(merges):
        owner[g] = owner[h]
    hosts = [h for h, positions in enumerate(wires) if positions and owner[h] == h]
    rank = {h: r for r, h in enumerate(hosts)}
    wire = [rank.get(h, -1) for h in owner]

    # Each instruction is renumbered once, in input order, and each merge
    # adds one reset; the schedule then picks them in its order. The facts
    # are the input's, renumbered the same way. An instruction touches at
    # most two qubits, and a gate's control comes first.
    renamed: list[Instruction] = []
    qubits = []
    for instr, old in zip(instrs, deps.qubits):
        if len(old) == 1:
            new = (wire[old[0]],)
        elif old:
            new = (wire[old[0]], wire[old[1]])
        else:
            new = old
        if new == old:  # keep the input's instruction and its tuple
            new = old
        elif isinstance(instr, Gate):
            control = new[0] if len(new) == 2 else None
            instr = Gate(instr.kind, new[-1], control, instr.condition, instr.source_line)
        elif isinstance(instr, Measure):
            instr = Measure(new[0], instr.bit, instr.source_line)
        else:
            instr = Reset(new[0], instr.source_line)
        renamed.append(instr)
        qubits.append(new)
    for g, h in merges:
        renamed.append(Reset(wire[h], instrs[wires[g][0]].source_line))
        qubits.append((wire[h],))
    k = len(merges)
    facts = Dependencies.of(
        len(hosts),
        circuit.n_clbits,
        qubits,
        deps.reads + [()] * k,
        deps.writes + [None] * k,
        deps.is_reset + [True] * k,
    ).take(order)
    return facts.make_circuit([renamed[v] for v in order], circuit.name), k
