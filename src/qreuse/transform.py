"""Structural rewrites that remove gates and quantum controls.

Three transformations work together with measurement commutation:

* dead-gate elimination drops gates that can no longer influence any
  measurement,
* classical control introduction replaces a quantum control sitting right
  after its wire's measurement with a classical condition on the measured
  bit,
* control exchange flips control and target of a controlled phase (a
  unitary ``diag(1, u11)``: CZ, CP) whose target (but not control) was just
  measured, unlocking the previous rule.

``run`` chains them in the order the rewrites feed each other: commute,
then introduction/exchange to a fixpoint, one more commutation round for the
conditioned bit-flips this exposes, and finally dead-gate elimination. All
four steps update one ``ir.Chain``, built from the input's facts, in place;
the result is turned back into a circuit, with its facts, once.

Each control rule is one worklist helper, ``_introduce_all`` and
``_exchange_all``, which decides and rewrites each gate of its worklist in
place; the public one-pass functions and ``run``'s fixpoint call these
helpers. A helper tests the cheap conditions that usually fail first (is it
a controlled gate, of the right kind, is its wire predecessor a
measurement), so a gate that does not qualify costs only those tests. Each
rewrite is then one chain call with the new gate's facts:
``Chain.drop_control`` for an introduction, which hands back the next node
on the control's wire to retry, and ``Chain.put`` with the reversed qubits
for an exchange. Any worklist order gives the result of passes in
circuit order. Introduction only takes gates off wires: no node moves, the
next write to each bit is fixed, and a control's wire predecessor, once a
measurement, stays one. An exchange changes no wire predecessor, so the
exchanges of one round depend only on the state that round's introductions
reached.
"""

from __future__ import annotations

from .ir import Chain, Circuit, Gate, Measure
from . import commute

__all__ = [
    "eliminate_dead_gates",
    "introduce_classical_controls",
    "exchange_controls",
    "run",
]


def _remove_dead_gates(chain: Chain) -> int:
    """Remove every gate whose forward cone contains no measurement.

    A node is live when it writes a bit, or when the next node on one of its
    wires is live and is not a reset: a gate's cone reaches a measurement
    exactly then. So one backward pass decides every gate at once, with one
    flag per wire that says whether the next node on it is live and is not a
    reset. Measurements, resets, and toggles always stay.
    """
    facts, instrs = chain.facts, chain.instr
    qubits_of, writes, is_reset = facts.qubits, facts.writes, facts.is_reset
    wire_live = [False] * facts.n_qubits
    dead = []
    for node in reversed(chain.order()):
        qubits = qubits_of[node]
        live = writes[node] is not None
        for q in qubits:
            if wire_live[q]:
                live = True
        if not live and type(instrs[node]) is Gate:
            dead.append(node)
        live = live and not is_reset[node]
        for q in qubits:
            wire_live[q] = live
    for node in dead:
        chain.remove(node)
    return len(dead)


def eliminate_dead_gates(circuit: Circuit) -> tuple[Circuit, int]:
    """Delete every gate whose forward cone contains no measurement."""
    chain = Chain(circuit)
    removed = _remove_dead_gates(chain)
    return chain.materialise(), removed


def _conjoin(condition: tuple, bit: int, literal: tuple) -> tuple | None:
    """Add ``literal``, the chain's ``((bit, True),)``; ``None`` signals a
    contradiction (gate never fires)."""
    for b, pol in condition:
        if b == bit:
            return condition if pol else None
    return condition + literal


def _next_writes(chain: Chain, order: list[int]) -> list[int]:
    """Per node that writes a bit, the label of the next write to that bit;
    past every label when none follows."""
    label = chain.label
    next_write = [label[order[-1]] + 1 if order else 0] * len(chain.instr)
    last = [-1] * chain.facts.n_clbits
    writes = chain.facts.writes
    for node in order:
        w = writes[node]
        if w is not None:
            if last[w] >= 0:
                next_write[last[w]] = label[node]
            last[w] = node
    return next_write


def _introduce_all(chain: Chain, nodes: list[int], next_write: list[int]) -> tuple[int, list[int]]:
    """Classical control introduction on the controlled gates among
    ``nodes``, retrying the gate after each wire a gate leaves, until none
    qualifies. Returns the number of introductions and the nodes whose wire
    predecessor changed.

    A control qualifies when its wire's predecessor is a measurement whose
    bit no write overwrites before the gate. The gate then takes the literal
    ``bit == 1``, or is removed when that contradicts its condition.
    """
    instrs, label, before, after = chain.instr, chain.label, chain.before, chain.after
    bit_tuples, drop_control, reads_of = chain.bit_tuples, chain.drop_control, chain.facts.reads
    work = list(nodes)
    touched: list[int] = []
    count = 0
    while work:
        node = work.pop()
        gate = instrs[node]
        if type(gate) is not Gate:
            continue
        control = gate.control
        if control is None:
            continue
        p = before(node, control)
        if p < 0:
            continue
        meas = instrs[p]
        if type(meas) is not Measure or next_write[p] < label[node]:
            continue
        count += 1
        bit = meas.bit
        read, literal = bit_tuples(bit)
        condition = gate.condition
        cond = _conjoin(condition, bit, literal)
        if cond is None:
            for q in (control, gate.target):
                b = after(node, q)
                if b >= 0:
                    work.append(b)
                    touched.append(b)
            chain.remove(node)
            continue
        # With no condition, ``()`` plus a tuple is that tuple in CPython:
        # the gate's condition and read bits are the chain's shared ones.
        reads = reads_of[node] if cond is condition else reads_of[node] + read
        b = drop_control(node, Gate(gate.kind, gate.target, None, cond, gate.source_line), reads)
        if b >= 0:
            work.append(b)
            touched.append(b)
    return count, touched


def _exchange_all(chain: Chain, nodes: list[int]) -> list[int]:
    """Control exchange on the gates among ``nodes``; returns those it
    swapped. A controlled ``diag(1, u11)`` (CZ, CP, a controlled S or T),
    symmetric in its two qubits, swaps control and target when its target
    wire's predecessor is a measurement and its control wire's is not."""
    instrs, before, put = chain.instr, chain.before, chain.put
    exchanged = []
    for node in nodes:
        gate = instrs[node]
        # A controlled diag(1, u11): (u00, u01, u10) == (1, 0, 0).
        if type(gate) is not Gate or gate.control is None or gate.kind.unitary[:3] != (1, 0, 0):
            continue
        control, target = gate.control, gate.target
        t = before(node, target)
        if t < 0 or type(instrs[t]) is not Measure:
            continue
        c = before(node, control)
        if c >= 0 and type(instrs[c]) is Measure:
            continue
        swapped = Gate(gate.kind, control, target, gate.condition, gate.source_line)
        put(node, swapped, (target, control))
        exchanged.append(node)
    return exchanged


def introduce_classical_controls(circuit: Circuit) -> tuple[Circuit, int]:
    """Replace measured quantum controls with classical conditions.

    A control qualifies when the most recent instruction on its wire is the
    measurement of that qubit; the gate then fires when the measured bit is
    set. Controls whose qubit was not just measured stay quantum. The result
    is that of one pass in circuit order, which leaves nothing for a second
    to replace.
    """
    chain = Chain(circuit)
    order = chain.order()
    replaced, _ = _introduce_all(chain, order, _next_writes(chain, order))
    return chain.materialise(), replaced


def exchange_controls(circuit: Circuit) -> tuple[Circuit, int]:
    """Swap control and target of phase-type gates measured on the target side.

    Applies to a controlled ``diag(1, u11)`` (CZ, CP), where the target's
    wire ends in its measurement but the control's does not. The swapped
    gate then qualifies for classical control introduction on the next round.
    """
    chain = Chain(circuit)
    exchanged = _exchange_all(chain, chain.order())
    return chain.materialise(), len(exchanged)


def _controls_fixpoint(chain: Chain) -> tuple[int, int]:
    """Rounds of introduction until no gate qualifies, then exchange, until
    a round exchanges nothing; returns the number of introductions and of
    exchanges. Round 1 tries every gate. By the two facts in the module
    docstring, a later round need only try the gates just exchanged for
    introduction, and the gates whose wire predecessor an introduction
    changed for exchange: no other gate would decide differently.
    """
    order = chain.order()
    next_write = _next_writes(chain, order)
    introduced, _ = _introduce_all(chain, order, next_write)
    exchanged = _exchange_all(chain, order)
    n_exchanged = len(exchanged)
    while exchanged:
        k, touched = _introduce_all(chain, exchanged, next_write)
        introduced += k
        exchanged = _exchange_all(chain, touched)
        n_exchanged += len(exchanged)
    return introduced, n_exchanged


def run(circuit: Circuit) -> tuple[Circuit, dict[str, int]]:
    """Full rewrite schedule; returns the circuit and per-rule tallies."""
    chain = Chain(circuit)
    counts = commute.push(chain)
    introduced, exchanged = _controls_fixpoint(chain)
    for rule, k in commute.push(chain).items():
        counts[rule] += k
    counts.update(classical_controls=introduced, exchanges=exchanged)
    counts["dead_gates"] = _remove_dead_gates(chain)
    return chain.materialise(), counts
