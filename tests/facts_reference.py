"""Instruction facts read from the instruction fields, for the cross-checks.

Every pass reads an instruction's qubits, read bits, written bit and
reset-ness through one index in ``qreuse.ir``. A reference that read the
same index would share every mistake in it, so the references read these
facts here instead: each straight from the ``Gate``/``Measure``/``Reset``/
``ClassicalToggle`` fields, with no code in common with the product. Wire
positions, scheduling edges and forward reach are built from them by this
module's own search, and forward reach once more by a plain graph search.
"""

from __future__ import annotations

from qreuse.ir import Circuit, ClassicalToggle, Gate, Instruction, Measure, Reset


def qubits(instr: Instruction) -> tuple[int, ...]:
    """A gate's quantum control first, then its target; a measurement's or
    reset's qubit; none for a toggle."""
    if isinstance(instr, Gate):
        if instr.control is None:
            return (instr.target,)
        return (instr.control, instr.target)
    if isinstance(instr, (Measure, Reset)):
        return (instr.qubit,)
    return ()


def reads(instr: Instruction) -> tuple[int, ...]:
    """The bits whose value the instruction consumes: a gate's condition
    bits; a toggle's product bits and its target, which its XOR
    accumulates into."""
    if isinstance(instr, Gate):
        return tuple(bit for bit, _ in instr.condition)
    if isinstance(instr, ClassicalToggle):
        return tuple(bit for bit, _ in instr.product) + (instr.target,)
    return ()


def written(instr: Instruction) -> int | None:
    """The bit a measurement or toggle writes; ``None`` for the others."""
    if isinstance(instr, Measure):
        return instr.bit
    if isinstance(instr, ClassicalToggle):
        return instr.target
    return None


def is_reset(instr: Instruction) -> bool:
    return isinstance(instr, Reset)


def wires(circuit: Circuit) -> list[list[int]]:
    """Each wire's instruction positions in circuit order."""
    out: list[list[int]] = [[] for _ in range(circuit.n_qubits)]
    for i, instr in enumerate(circuit.instructions):
        for q in qubits(instr):
            out[q].append(i)
    return out


def successors(circuit: Circuit) -> list[list[int]]:
    """Scheduling edges: each wire's chain, through resets, and per bit the
    order of conflicting accesses. A read follows the write before it; a
    write follows the write before it and every read between the two. A
    toggle's read of its own target is part of its write."""
    instrs = circuit.instructions
    edges: list[list[int]] = [[] for _ in instrs]
    for positions in wires(circuit):
        for a, b in zip(positions, positions[1:]):
            edges[a].append(b)
    # Each bit's accesses in circuit order, as (position, whether it writes).
    accesses: list[list[tuple[int, bool]]] = [[] for _ in range(circuit.n_clbits)]
    for i, instr in enumerate(instrs):
        w = written(instr)
        for bit in reads(instr):
            if bit != w:
                accesses[bit].append((i, False))
        if w is not None:
            accesses[w].append((i, True))
    for sequence in accesses:
        writer, readers = None, []
        for i, writes in sequence:
            if writer is not None:
                edges[writer].append(i)
            if writes:
                for j in readers:
                    edges[j].append(i)
                writer, readers = i, []
            else:
                readers.append(i)
    return edges


def cone_steps(circuit: Circuit) -> list[list[int]]:
    """Per instruction, where its forward cone steps next: the next
    instruction on each of its wires unless that is a reset, whose output
    no longer depends on anything earlier, and every later reader of the
    bit it writes."""
    instrs = circuit.instructions
    steps: list[list[int]] = [[] for _ in instrs]
    for positions in wires(circuit):
        for a, b in zip(positions, positions[1:]):
            if not is_reset(instrs[b]):
                steps[a].append(b)
    readers: list[list[int]] = [[] for _ in range(circuit.n_clbits)]
    for i, instr in enumerate(instrs):
        for bit in reads(instr):
            readers[bit].append(i)
    for i, instr in enumerate(instrs):
        bit = written(instr)
        if bit is not None:
            steps[i] += [j for j in readers[bit] if j > i]
    return steps


def forward_reach(circuit: Circuit) -> tuple[list[int], list[int]]:
    """Per instruction, bitmasks of the qubits its forward cone touches and
    of the bits that cone writes.

    Every step of ``cone_steps`` goes forward, so visiting the instructions
    last to first finds each step's reach complete.
    """
    instrs = circuit.instructions
    steps = cone_steps(circuit)
    qubit_reach = [0] * len(instrs)
    bit_reach = [0] * len(instrs)
    for i in range(len(instrs) - 1, -1, -1):
        qm = bm = 0
        for q in qubits(instrs[i]):
            qm |= 1 << q
        bit = written(instrs[i])
        if bit is not None:
            bm |= 1 << bit
        for j in steps[i]:
            qm |= qubit_reach[j]
            bm |= bit_reach[j]
        qubit_reach[i], bit_reach[i] = qm, bm
    return qubit_reach, bit_reach


def cone_by_search(circuit, start):
    """Mask of the bits one instruction's forward cone writes, by graph search.

    Follows each wire to its next instruction unless that is a reset, and
    from a written bit to every later reader of it, without
    ``cone_steps``.
    """
    instrs = circuit.instructions
    seen, stack = set(), [start]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        for q in qubits(instrs[i]):
            j = next((j for j in range(i + 1, len(instrs)) if q in qubits(instrs[j])), None)
            if j is not None and not is_reset(instrs[j]):
                stack.append(j)
        b = written(instrs[i])
        if b is not None:
            stack.extend(j for j in range(i + 1, len(instrs)) if b in reads(instrs[j]))
    bits = 0
    for i in seen:
        if written(instrs[i]) is not None:
            bits |= 1 << written(instrs[i])
    return bits
