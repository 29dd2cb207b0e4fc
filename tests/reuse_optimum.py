"""The fewest wires any reuse of a small circuit can reach, written apart
from ``qreuse.reuse``: a yardstick for the greedy planner, not a product.

A reuse arrangement puts the live wires (those with an instruction) into
chains, and each chain becomes one output wire: a wire's computation follows
the one before it in its chain, after a reset. The arrangement is valid when
the scheduling DAG stays acyclic with one more edge per link, from a wire's
last instruction to the next wire's first. The DAG holds each wire's
instruction order and, per classical bit, the read-after-write,
write-after-read and write-after-write edges.

A cycle through links runs, between two links, along a DAG path from one
wire's first instruction to another's last. So the cycle test runs on the
wires alone: a link ``a -> b`` leads from ``a`` to every wire whose last
instruction ``b``'s first reaches. Inserting a wire into a chain keeps every
path of that graph, so a partial arrangement with a cycle has no valid
completion.

``optimum`` places each live wire in turn at every position of every chain,
or starts a new chain, drops a partial arrangement as soon as it has a cycle
or cannot use fewer chains than the best found, and returns the best.
``arrange`` builds an arrangement's circuit.
"""

from __future__ import annotations

import heapq

from qreuse.ir import Circuit, ClassicalToggle, Gate, Measure, Reset

# Above this many live wires ``optimum`` refuses: its search grows
# factorially with them.
MAX_WIRES = 9


def _access(instr) -> tuple[tuple[int, ...], tuple[int, ...], int | None]:
    """The qubits, the bits read and the bit written of one instruction."""
    if isinstance(instr, Gate):
        qubits = (instr.target,) if instr.control is None else (instr.control, instr.target)
        return qubits, tuple(b for b, _ in instr.condition), None
    if isinstance(instr, Measure):
        return (instr.qubit,), (), instr.bit
    if isinstance(instr, Reset):
        return (instr.qubit,), (), None
    assert isinstance(instr, ClassicalToggle)
    return (), tuple(b for b, _ in instr.product) + (instr.target,), instr.target


def _predecessors(circuit: Circuit) -> list[set[int]]:
    """Per instruction, the instructions the scheduling DAG puts right before it."""
    last_on: dict[int, int] = {}
    last_write: dict[int, int] = {}
    reads_since: dict[int, list[int]] = {}
    preds: list[set[int]] = []
    for i, instr in enumerate(circuit.instructions):
        qubits, reads, w = _access(instr)
        before = set()
        for q in qubits:
            if q in last_on:
                before.add(last_on[q])
            last_on[q] = i
        for b in reads:
            if b in last_write:
                before.add(last_write[b])
        if w is not None:
            if w in last_write:
                before.add(last_write[w])
            before.update(reads_since.pop(w, ()))
            last_write[w] = i
        for b in reads:
            if b != w:
                reads_since.setdefault(b, []).append(i)
        preds.append(before)
    return preds


def _ends(circuit: Circuit) -> tuple[dict[int, int], dict[int, int]]:
    """Each live wire's first and last instruction."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, instr in enumerate(circuit.instructions):
        for q in _access(instr)[0]:
            first.setdefault(q, i)
            last[q] = i
    return first, last


class _Wires:
    """The live wires of a circuit and, per live wire ``b``, the mask of
    live wires whose last instruction ``b``'s first reaches in the
    scheduling DAG."""

    def __init__(self, circuit: Circuit) -> None:
        first, last = _ends(circuit)
        self.live = sorted(first)
        # Backward over the instructions: each reaches the wires it ends and
        # whatever its successors reach.
        reaches = [0] * len(circuit.instructions)
        for k, q in enumerate(self.live):
            reaches[last[q]] |= 1 << k
        preds = _predecessors(circuit)
        for i in range(len(reaches) - 1, -1, -1):
            for p in preds[i]:
                reaches[p] |= reaches[i]
        self.leads = [reaches[first[q]] for q in self.live]

    def acyclic(self, chains: list[list[int]]) -> bool:
        """Whether the links of ``chains`` (lists of live wire positions)
        leave the scheduling DAG acyclic."""
        out = {a: self.leads[b] for chain in chains for a, b in zip(chain, chain[1:])}
        # A cycle passes only through wires with a link out; peel off those
        # that lead to none left until none or a cycle remains.
        left = sum(1 << a for a in out)
        while left:
            ends = sum(1 << a for a, leads in out.items() if left >> a & 1 and not leads & left)
            if not ends:
                return False
            left ^= ends
        return True


def optimum(circuit: Circuit) -> list[list[int]]:
    """An arrangement of the live wires in the fewest chains, each chain a
    list of original wires in the order they run."""
    wires = _Wires(circuit)
    n = len(wires.live)
    if n > MAX_WIRES:
        raise ValueError(f"{n} live wires exceed the search's cap of {MAX_WIRES}")
    best = [[k] for k in range(n)]  # no reuse is always valid

    def place(k: int, chains: list[list[int]]) -> None:
        nonlocal best
        if len(chains) >= len(best):
            return
        if k == n:
            best = [list(chain) for chain in chains]
            return
        for chain in chains:
            for at in range(len(chain) + 1):
                chain.insert(at, k)
                if wires.acyclic(chains):
                    place(k + 1, chains)
                del chain[at]
        chains.append([k])
        place(k + 1, chains)
        chains.pop()

    place(0, [])
    return [[wires.live[k] for k in chain] for chain in best]


def arrange(circuit: Circuit, chains: list[list[int]]) -> Circuit:
    """The circuit that runs each chain on one wire, numbered in the order
    of ``chains``, with a reset before every computation but a chain's
    first; idle wires are dropped. The instructions keep the input's order
    wherever the scheduling DAG allows."""
    instrs = circuit.instructions
    n = len(instrs)
    preds = _predecessors(circuit)
    wire: dict[int, int] = {q: w for w, chain in enumerate(chains) for q in chain}
    first, last = _ends(circuit)

    def renamed(instr):
        if isinstance(instr, Gate):
            control = None if instr.control is None else wire[instr.control]
            return Gate(instr.kind, wire[instr.target], control, instr.condition, instr.source_line)
        if isinstance(instr, Measure):
            return Measure(wire[instr.qubit], instr.bit, instr.source_line)
        if isinstance(instr, Reset):
            return Reset(wire[instr.qubit], instr.source_line)
        return instr

    nodes = [renamed(instr) for instr in instrs]
    keys = list(range(0, 2 * n, 2))
    for w, chain in enumerate(chains):
        for a, b in zip(chain, chain[1:]):
            # The reset sorts right before the computation it starts.
            nodes.append(Reset(w, instrs[first[b]].source_line))
            keys.append(2 * first[b] - 1)
            preds.append({last[a]})
            preds[first[b]].add(len(nodes) - 1)
    successors: list[list[int]] = [[] for _ in nodes]
    for i, before in enumerate(preds):
        for p in before:
            successors[p].append(i)
    waiting = [len(before) for before in preds]
    ready = [(keys[i], i) for i in range(len(nodes)) if not waiting[i]]
    heapq.heapify(ready)
    order = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(nodes[i])
        for s in successors[i]:
            waiting[s] -= 1
            if not waiting[s]:
                heapq.heappush(ready, (keys[s], s))
    if len(order) != len(nodes):
        raise ValueError("the chains make the scheduling DAG cyclic")
    return Circuit(len(chains), circuit.n_clbits, tuple(order), circuit.name)
