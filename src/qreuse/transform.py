"""Structural rewrites that remove gates and quantum controls.

Three transformations work together with measurement commutation:

* dead-gate elimination drops gates that can no longer influence any
  measurement,
* classical control introduction replaces a quantum control sitting right
  after its wire's measurement with a classical condition on the measured
  bit,
* control exchange flips control and target of CZ/CP gates whose target
  (but not control) was just measured, unlocking the previous rule.

``run`` chains them in the order the rewrites feed each other: commute,
then introduction/exchange to a fixpoint, one more commutation round for the
conditioned bit-flips this exposes, and finally dead-gate elimination. All
four steps update one ``ir.Chain``, built from the input's facts, in place;
the result is turned back into a circuit, with its facts, once.

Each of the two control rules is one step that decides and rewrites one gate
of a chain in place, ``_introduce`` and ``_exchange``. The fixpoint is
defined by rounds of one full introduction pass and one full exchange pass,
the public functions below, which call the steps once per gate in circuit
order. ``run`` reaches the same result with an event heap that calls them
only on the gates next to the last change.
"""

from __future__ import annotations

import heapq

from .ir import Chain, Circuit, Condition, Gate, Measure
from . import commute

__all__ = [
    "eliminate_dead_gates",
    "introduce_classical_controls",
    "exchange_controls",
    "run",
]


def _remove_dead_gates(chain: Chain) -> int:
    """Remove every gate whose forward cone contains no measurement.

    A gate's cone writes a bit exactly when it reaches a measurement, so one
    backward reach pass decides every gate at once. Measurements, resets, and
    toggles always stay.
    """
    order = chain.order()
    dead = [
        node
        for node, bits in zip(order, chain.facts.forward_reach(order))
        if not bits and isinstance(chain.instr[node], Gate)
    ]
    for node in dead:
        chain.remove(node)
    return len(dead)


def eliminate_dead_gates(circuit: Circuit) -> tuple[Circuit, int]:
    """Delete every gate whose forward cone contains no measurement."""
    chain = Chain(circuit)
    removed = _remove_dead_gates(chain)
    return chain.materialise(), removed


def _conjoin(condition: Condition, bit: int, polarity: bool) -> Condition | None:
    """Add a literal; ``None`` signals a contradiction (gate never fires)."""
    for b, pol in condition.literals:
        if b == bit:
            return condition if pol == polarity else None
    return Condition(condition.literals + ((bit, polarity),))


def _next_writes(chain: Chain, order: list[int]) -> list[int]:
    """Per node that writes a bit, the position in ``order`` of the next
    write to that bit; ``len(order)`` when none follows."""
    next_write = [len(order)] * len(chain.instr)
    last = [-1] * chain.facts.n_clbits
    writes = chain.facts.writes
    for k, node in enumerate(order):
        w = writes[node]
        if w is not None:
            if last[w] >= 0:
                next_write[last[w]] = k
            last[w] = node
    return next_write


def _introduce(chain: Chain, node: int, position: int, next_write: list[int]) -> list[int] | None:
    """Classical control introduction on the controlled gate ``node``, at
    ``position`` in the order ``next_write`` was built on.

    The control qualifies when its wire's predecessor is a measurement whose
    bit no write overwrites before the gate. The gate then takes the bit as
    a literal with the control's polarity, or is removed when that
    contradicts its condition. Returns the nodes after the wires the gate
    left, or ``None`` when the control stays quantum.
    """
    instrs = chain.instr
    gate = instrs[node]
    control, polarity = gate.controls[0]
    p = chain.before(node, control)
    if p < 0 or not isinstance(instrs[p], Measure) or next_write[p] < position:
        return None
    cond = _conjoin(gate.condition, instrs[p].bit, polarity)
    leaving = chain.facts.qubits[node] if cond is None else (control,)
    after = [chain.after(node, q) for q in leaving]
    if cond is None:
        chain.remove(node)
    else:
        chain.replace(node, Gate(gate.kind, gate.targets, (), cond, gate.source_line))
    return [b for b in after if b >= 0]


def _exchange(chain: Chain, node: int) -> bool:
    """Control exchange on the controlled gate ``node``: a CZ/CP with one
    positive control swaps control and target when its target wire's
    predecessor is a measurement and its control wire's is not. Returns
    whether it swapped."""
    gate = chain.instr[node]
    if gate.kind.name not in ("z", "p") or len(gate.controls) != 1 or not gate.controls[0][1]:
        return False
    control, target = gate.controls[0][0], gate.targets[0]
    instrs = chain.instr
    t, c = chain.before(node, target), chain.before(node, control)
    if t < 0 or not isinstance(instrs[t], Measure) or (c >= 0 and isinstance(instrs[c], Measure)):
        return False
    chain.replace(node, Gate(gate.kind, (control,), ((target, True),), gate.condition, gate.source_line))
    return True


def introduce_classical_controls(circuit: Circuit) -> tuple[Circuit, int]:
    """Replace measured quantum controls with classical conditions.

    A control qualifies when the most recent instruction on its wire is the
    measurement of that qubit. The control's polarity carries over to the
    literal, so negative controls read the bit negated. Controls whose qubit
    was not just measured stay quantum. Each decision reads only the prefix
    already rewritten, so one pass leaves nothing for a second to replace.
    """
    chain = Chain(circuit)
    order = chain.order()
    next_write = _next_writes(chain, order)
    replaced = 0
    for k, node in enumerate(order):
        instr = chain.instr[node]
        if isinstance(instr, Gate) and instr.controls and _introduce(chain, node, k, next_write) is not None:
            replaced += 1
    return chain.materialise(), replaced


def exchange_controls(circuit: Circuit) -> tuple[Circuit, int]:
    """Swap control and target of phase-type gates measured on the target side.

    Applies to CZ/CP with a positive control, where the target's wire ends in
    its measurement but the control's does not. The swapped gate then
    qualifies for classical control introduction on the next round.
    """
    chain = Chain(circuit)
    exchanged = 0
    for node in chain.order():
        instr = chain.instr[node]
        if isinstance(instr, Gate) and instr.controls and _exchange(chain, node):
            exchanged += 1
    return chain.materialise(), exchanged


def _controls_fixpoint(chain: Chain) -> tuple[int, int]:
    """Alternate introduction and exchange rounds on ``chain`` until neither
    fires; returns the number of introductions and of exchanges.

    Replays ``introduce_classical_controls`` then ``exchange_controls``,
    round after round, as one event heap keyed ``(round, phase, position)``
    with phase 0 introducing and phase 1 exchanging. Both decisions read only
    the gate's wire predecessors and the writes to the measured bit before
    it. Writes never change, and a predecessor changes only when a gate
    leaves that wire (introduced: its control wire; dropped: both), which
    queues the wire's next gate in both phases of the same round: being
    later on the wire, it is also later in the pass. An exchange queues the
    exchanged gate for introduction in the next round; it cannot exchange
    back, because its new target's predecessor is no measurement. Any other
    gate would decide as it did the last time, so a full pass changes
    nothing else. No node moves meanwhile, so positions stay fixed.
    """
    instrs = chain.instr
    order = chain.order()
    next_write = _next_writes(chain, order)
    at = [0] * len(instrs)
    events: list[tuple[int, int, int]] = []
    for k, node in enumerate(order):
        at[node] = k
        instr = instrs[node]
        if isinstance(instr, Gate) and instr.controls:
            events += ((1, 0, k), (1, 1, k))
    heapq.heapify(events)
    introduced = exchanged = 0
    last = None
    while events:
        key = heapq.heappop(events)
        if key == last:
            continue
        last = key
        rnd, phase, k = key
        node = order[k]
        gate = instrs[node]
        if gate is None or not gate.controls:
            continue
        if phase == 1:
            if _exchange(chain, node):
                exchanged += 1
                heapq.heappush(events, (rnd + 1, 0, k))
            continue
        after = _introduce(chain, node, k, next_write)
        if after is None:
            continue
        introduced += 1
        for b in after:
            nxt = instrs[b]
            if isinstance(nxt, Gate) and nxt.controls:
                heapq.heappush(events, (rnd, 0, at[b]))
                heapq.heappush(events, (rnd, 1, at[b]))
    return introduced, exchanged


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
