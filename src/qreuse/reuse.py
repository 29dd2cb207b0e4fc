"""Greedy qubit reuse: merge independent computations onto one wire.

A computation on qubit ``q`` may move onto wire ``q_prime``, after a fresh
reset of it, when nothing that depends on ``q``'s instructions is needed by
``q_prime``'s own: the forward reach of ``q``'s wire must not touch
``q_prime``, no instruction on ``q_prime`` may read or write a classical bit
that ``q``'s reach produces, and ``q``'s first instruction must not already
precede an instruction of ``q_prime``. ``_wire_masks`` analyses the circuit
once, ``_plan`` chooses every merge first fit on those masks, with one pair
test per surviving host and unabsorbed group and one mask update per host,
and ``run`` writes the merged circuit as it schedules it. A wire without
instructions takes no part.
"""

from __future__ import annotations

import heapq

from .ir import Circuit, Dependencies, Gate, Instruction, Measure, Reset

__all__ = ["run"]


def _wire_masks(deps: Dependencies) -> tuple[list[int], list[int], list[int], list[int]]:
    """The live wires (those with an instruction) and, per live wire, the
    bits its instructions reach, the bits they access, and the wires its
    first instruction precedes in the schedule order.

    An instruction reaches the bit it writes, what the next instruction on
    each of its wires reaches unless that is a reset, and, when it writes a
    bit, what every later reader of that bit reaches. One backward pass:
    each wire carries the reach of its next instruction, cut at a reset, and
    each bit its later readers' reach. Each wire also carries what its next
    instruction precedes, and each bit what its next write and its reads
    since then precede: the bit edges ``run`` builds go from a read to the
    next write, and from a write to the next write and the reads in between.
    """
    n_qubits, n_clbits = deps.n_qubits, deps.n_clbits
    reach_next, reach_of = [0] * n_qubits, [0] * n_qubits
    accessed_of, precedes_next = [0] * n_qubits, [0] * n_qubits
    reader_reach, write_precedes, reads_precede = [0] * n_clbits, [0] * n_clbits, [0] * n_clbits
    qubits_of, reads_of, writes_of, is_reset = deps.qubits, deps.reads, deps.writes, deps.is_reset
    for i in range(len(qubits_of) - 1, -1, -1):
        qubits, reads, w = qubits_of[i], reads_of[i], writes_of[i]
        bm = pm = am = 0
        for q in qubits:
            bm |= reach_next[q]
            pm |= precedes_next[q] | 1 << q
        for b in reads:
            am |= 1 << b
            if b != w:
                pm |= write_precedes[b]
        if w is not None:
            am |= 1 << w
            bm |= 1 << w | reader_reach[w]
            pm |= write_precedes[w] | reads_precede[w]
            write_precedes[w], reads_precede[w] = pm, 0
        for b in reads:
            reader_reach[b] |= bm
            if b != w:
                reads_precede[b] |= pm
        cut = 0 if is_reset[i] else bm
        for q in qubits:
            reach_of[q] |= bm
            accessed_of[q] |= am
            reach_next[q], precedes_next[q] = cut, pm
    # After the pass, a wire's ``precedes_next`` is its first instruction's.
    live = [w for w in range(n_qubits) if precedes_next[w]]
    return live, [reach_of[w] for w in live], [accessed_of[w] for w in live], [precedes_next[w] for w in live]


def _plan(deps: Dependencies) -> tuple[list[int], list[tuple[int, int]]]:
    """The live wires, and first-fit merges ``(mover, host)`` of wire
    groups: lowest host first, then lowest mover, repeated until no pair
    qualifies. A group is the set of original wires sharing one wire, named
    by its host's original wire.

    Every merge is planned on the masks of ``_wire_masks``, over the
    original wires, since a merge changes none of the facts they hold: a
    reset stops the forward reach exactly where the host wire used to end,
    and the scheduling order only gains one ``host last -> reset -> mover
    first`` chain. A group's masks only grow as it absorbs others, so a
    rejected pair stays rejected; one sweep over hosts and movers in that
    order therefore makes the same merges as restarting the search after
    each one. An absorbed group is never tested or read again. A cone only
    follows scheduling edges, so the wires a group reaches are among those
    it blocks, and the cycle test below also rules out reaching the host.

    A merge makes whatever precedes the host's last instruction precede the
    mover's first, so each group whose ``blocked`` meets the host gains the
    mover's ``blocked``. Deferring that update to the end of the host's
    sweep changes no pair test: it only touches groups that already meet
    the host, and those fail the cycle test for the rest of the sweep
    whatever their masks. Once a group meets the host it gains every later
    mover's mask, so after the sweep a group that meets the host's own wires
    gains the OR of all movers' masks, and one that first meets mover j's
    wires the OR of the movers after j (``_first_met`` finds j).
    """
    live, reach_bits, accessed, blocked = _wire_masks(deps)
    members = [1 << w for w in live]
    n_live = len(live)
    unabsorbed = list(range(n_live))
    merges: list[tuple[int, int]] = []
    for h in range(n_live):
        own = members[h]
        if not own:
            continue
        host, host_bits, gained, movers = own, accessed[h], 0, None
        for g in unabsorbed:
            if g == h:
                continue
            # Independent, and g's first instruction need not precede h's wire.
            if host_bits & reach_bits[g] or blocked[g] & host:  # pair test
                continue
            if movers is None:
                movers = []
            movers.append(g)
            gained |= blocked[g]
            reach_bits[h] |= reach_bits[g]
            host_bits |= accessed[g]
            host |= members[g]
            merges.append((live[g], live[h]))
        if movers is None:
            continue
        members[h], accessed[h] = host, host_bits
        taken = [members[g] for g in movers]
        for g in movers:
            members[g] = 0
        unabsorbed = [k for k in unabsorbed if members[k]]
        late = []
        for k in unabsorbed:
            b = blocked[k]
            if b & own:  # propagation
                blocked[k] = b | gained
            elif b & host:
                late.append(k)
        if late:
            first = [()] * len(movers)
            _first_met(late, taken, blocked, 0, len(movers), first)
            later = 0  # the OR of the movers after j
            for j in range(len(movers) - 1, -1, -1):
                for k in first[j]:
                    blocked[k] |= later
                later |= blocked[movers[j]]
    return live, merges


def _first_met(
    groups: list[int], taken: list[int], blocked: list[int], lo: int, hi: int, first: list
) -> None:
    """Set ``first[j]`` to the groups whose ``blocked`` meets ``taken[j]``
    and no earlier mask of ``taken[lo:hi]``, given that each meets one.
    Halving the range costs each group one split test per level."""
    if hi - lo == 1:
        first[lo] = groups
        return
    mid = (lo + hi) // 2
    half = 0
    for j in range(lo, mid):
        half |= taken[j]
    before: list[int] = []
    after: list[int] = []
    for k in groups:
        (before if blocked[k] & half else after).append(k)  # split test
    if before:
        _first_met(before, taken, blocked, lo, mid, first)
    if after:
        _first_met(after, taken, blocked, mid, hi, first)


def run(circuit: Circuit) -> tuple[Circuit, int]:
    """Plan every merge, then schedule, renumber and write the circuit in
    one stable topological sort that keeps the input order wherever
    dependencies allow; its facts are the input's, renumbered the same way.
    With no merge and no idle wire, the input is returned as it is."""
    deps = circuit.dependencies()
    live, merges = _plan(deps)
    if not merges and len(live) == circuit.n_qubits:
        return circuit, 0

    # A group's wire is its host's rank among the surviving hosts, which is
    # where the monotone renumbering after each merge would put it. Idle
    # wires get none.
    owner = list(range(circuit.n_qubits))
    for g, h in reversed(merges):
        owner[g] = owner[h]
    hosts = [h for h in live if owner[h] == h]
    rank = {h: r for r, h in enumerate(hosts)}
    wire = [rank.get(h, -1) for h in owner]

    # One input-order pass builds the scheduling edges: from the instruction
    # before each one on each of its wires (through resets), from the last
    # write of each bit it reads, and, when it writes a bit, from that bit's
    # last write and every read since. It records each wire's first and last
    # instruction.
    instrs = circuit.instructions
    successors: list[list[int]] = []
    indegree: list[int] = []
    first, last = [-1] * circuit.n_qubits, [-1] * circuit.n_qubits
    last_write = [-1] * circuit.n_clbits
    reads_since: dict[int, list[int]] = {}
    for i, (old, reads, w) in enumerate(zip(deps.qubits, deps.reads, deps.writes)):
        successors.append([])
        edges = 0
        for q in old:
            p = last[q]
            if p < 0:
                first[q] = i
            else:
                successors[p].append(i)
                edges += 1
            last[q] = i
        for b in reads:
            if b != w:
                p = last_write[b]
                if p >= 0:
                    successors[p].append(i)
                    edges += 1
                reads_since.setdefault(b, []).append(i)
        if w is not None:
            p = last_write[w]
            if p >= 0:
                successors[p].append(i)
                edges += 1
            for r in reads_since.pop(w, ()):
                successors[r].append(i)
                edges += 1
            last_write[w] = i
        indegree.append(edges)

    # Each merge resets the host group's wire after its last instruction,
    # the anchor, and the mover group's first instruction waits for it. The
    # reset takes that instruction's source line. A reset needs nothing but
    # its anchor, and when the anchor is written every ready instruction
    # comes later in the input, so the resets are written at once after it,
    # in merge order.
    resets: dict[int, list[Reset]] = {}
    for g, h in merges:
        start, end = first[g], last[h]
        successors[end].append(start)
        indegree[start] += 1
        resets.setdefault(end, []).append(Reset(wire[h], instrs[start].source_line))
        last[h] = last[g]

    # Each instruction is renumbered as it is written. It touches at most
    # two qubits, a gate's control first; each output wire has one ``(w,)``.
    one = [(w,) for w in range(len(hosts))]
    out: list[Instruction] = []
    qubits, reads, writes, is_reset = [], [], [], []
    ready = [i for i, d in enumerate(indegree) if d == 0]  # ascending: a heap
    while ready:
        i = heapq.heappop(ready)
        instr, old = instrs[i], deps.qubits[i]
        if len(old) == 1:
            new = one[wire[old[0]]]
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
        out.append(instr)
        qubits.append(new)
        reads.append(deps.reads[i])
        writes.append(deps.writes[i])
        is_reset.append(deps.is_reset[i])
        for reset in resets.get(i, ()):
            out.append(reset)
            qubits.append(one[reset.qubit])
            reads.append(())
            writes.append(None)
            is_reset.append(True)
        for nxt in successors[i]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(out) != len(instrs) + len(merges):
        raise RuntimeError("the planned merges cycle; the mask test missed it")

    facts = Dependencies.of(len(hosts), circuit.n_clbits, qubits, reads, writes, is_reset)
    return facts.make_circuit(out, circuit.name), len(merges)
