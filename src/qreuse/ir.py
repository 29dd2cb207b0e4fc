"""Dynamic-circuit intermediate representation and the analyses built on it.

A circuit is a flat, ordered list of instructions over a register of qubits
and a register of classical bits. Four instruction variants cover the
dynamic-circuit primitives: gates (optionally quantum-controlled and/or
classically conditioned), mid-circuit measurement, reset, and classical XOR
fix-ups. Circuits are immutable values; rewrite passes return new circuits.

Every analysis reads one index of per-instruction facts, ``Dependencies``:
each instruction's qubits, read bits and written bit. A circuit computes it
on first use and caches it; a pass that builds a circuit from facts it
already knows hands them over instead. The rewrite passes share one mutable
form of it, ``Chain``: the circuit as a linked list with order labels, wire
links and facts, which they update in place, from the first commutation to
dead-gate elimination, and turn back into a circuit once. The one pass that
asks about the order of a bit's accesses, ``commute.push``, tracks them
itself as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter

__all__ = [
    "GateKind",
    "Condition",
    "Gate",
    "Measure",
    "Reset",
    "ClassicalToggle",
    "Instruction",
    "Circuit",
    "CircuitBuilder",
    "Dependencies",
    "Chain",
    "H_KIND",
    "X_KIND",
    "Y_KIND",
    "Z_KIND",
    "S_KIND",
    "T_KIND",
    "p_kind",
    "rx_kind",
    "rz_kind",
    "opaque_kind",
    "validate",
    "violations",
    "depth",
    "two_qubit_gate_count",
    "is_diagonal",
    "is_bitflip",
    "instruction_qubits",
    "read_bits",
    "written_bit",
]

GATE_NAMES = frozenset({"h", "x", "y", "z", "s", "t", "p", "rx", "rz", "u"})
PARAMETRIC = frozenset({"p", "rx", "rz"})
_DIAGONAL_NAMES = frozenset({"z", "s", "t", "p", "rz"})

# Off-diagonal magnitude below this counts as diagonal for opaque matrices;
# also the angle tolerance used by tests.
ANGLE_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class GateKind:
    """A single-qubit gate alphabet entry.

    ``p``/``rx``/``rz`` carry exactly one angle (radians). ``u`` is an opaque
    named gate with an explicit 2x2 unitary (row-major) so the simulator can
    still execute it.
    """

    name: str
    angle: float | None = None
    label: str | None = None
    matrix: tuple[complex, complex, complex, complex] | None = None

    def __post_init__(self) -> None:
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate kind {self.name!r}")
        if self.name in PARAMETRIC and self.angle is None:
            raise ValueError(f"{self.name} requires an angle")
        if self.name not in PARAMETRIC and self.name != "u" and self.angle is not None:
            raise ValueError(f"{self.name} takes no angle")
        if self.name == "u" and (self.label is None or self.matrix is None):
            raise ValueError("opaque gates need a label and a 2x2 matrix")


H_KIND = GateKind("h")
X_KIND = GateKind("x")
Y_KIND = GateKind("y")
Z_KIND = GateKind("z")
S_KIND = GateKind("s")
T_KIND = GateKind("t")


def p_kind(angle: float) -> GateKind:
    return GateKind("p", angle=float(angle))


def rx_kind(angle: float) -> GateKind:
    return GateKind("rx", angle=float(angle))


def rz_kind(angle: float) -> GateKind:
    return GateKind("rz", angle=float(angle))


def opaque_kind(label: str, matrix, angle: float | None = None) -> GateKind:
    flat = tuple(complex(x) for x in matrix)
    if len(flat) != 4:
        raise ValueError("opaque matrix must have 4 entries (row-major 2x2)")
    return GateKind("u", angle=angle, label=label, matrix=flat)


@dataclass(frozen=True, slots=True)
class Condition:
    """Conjunction of classical-bit literals; empty means unconditional."""

    literals: tuple[tuple[int, bool], ...] = ()

    @property
    def always(self) -> bool:
        return not self.literals

    def bits(self) -> tuple[int, ...]:
        return tuple(b for b, _ in self.literals) if self.literals else ()


@dataclass(frozen=True, slots=True)
class Gate:
    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[tuple[int, bool], ...] = ()
    condition: Condition = Condition()
    source_line: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class Measure:
    qubit: int
    bit: int
    source_line: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class Reset:
    qubit: int
    source_line: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class ClassicalToggle:
    """``target ^= AND(product)``; empty product toggles unconditionally."""

    target: int
    product: tuple[tuple[int, bool], ...] = ()
    source_line: int | None = field(default=None, compare=False)


Instruction = Gate | Measure | Reset | ClassicalToggle


@dataclass(frozen=True, slots=True)
class Circuit:
    n_qubits: int
    n_clbits: int
    instructions: tuple[Instruction, ...] = ()
    name: str = ""
    # Cached ``Dependencies``; not part of the value.
    _deps: "Dependencies | None" = field(default=None, init=False, repr=False, compare=False)

    def with_instructions(self, instructions) -> "Circuit":
        return replace(self, instructions=tuple(instructions))

    def dependencies(self) -> "Dependencies":
        """The circuit's dependency facts, computed on first use."""
        if self._deps is None:
            object.__setattr__(self, "_deps", Dependencies(self))
        return self._deps


_first = itemgetter(0)


def _facts(instr: Instruction) -> tuple[tuple[int, ...], tuple[int, ...], int | None, bool]:
    """An instruction's qubits, read bits, written bit and whether it is a
    reset, in one type dispatch."""
    if isinstance(instr, Gate):
        qubits = instr.targets
        if instr.controls:
            qubits = tuple(map(_first, instr.controls)) + qubits
        literals = instr.condition.literals
        return qubits, tuple(map(_first, literals)) if literals else (), None, False
    if isinstance(instr, Measure):
        return (instr.qubit,), (), instr.bit, False
    if isinstance(instr, Reset):
        return (instr.qubit,), (), None, True
    # A toggle's XOR accumulates into its target, so the target is read too.
    return (), tuple(map(_first, instr.product)) + (instr.target,), instr.target, False


def instruction_qubits(instr: Instruction) -> tuple[int, ...]:
    """Quantum controls first, then targets."""
    return _facts(instr)[0]


def read_bits(instr: Instruction) -> tuple[int, ...]:
    """Classical bits whose value the instruction consumes."""
    return _facts(instr)[1]


def written_bit(instr: Instruction) -> int | None:
    return _facts(instr)[2]


def violations(circuit: Circuit) -> list[tuple[int, str]]:
    """Every invariant violation as ``(instruction index, message)``."""
    errors: list[tuple[int, str]] = []
    assigned = [False] * max(circuit.n_clbits, 0)

    def check_qubit(q: int, where: str) -> None:
        if not 0 <= q < circuit.n_qubits:
            errors.append((i, f"qubit {q} out of range in {where}"))

    def check_clbit(b: int, where: str) -> None:
        if not 0 <= b < circuit.n_clbits:
            errors.append((i, f"clbit {b} out of range in {where}"))

    for i, instr in enumerate(circuit.instructions):
        if isinstance(instr, Gate):
            for q in instr.targets:
                check_qubit(q, "targets")
            for q, _ in instr.controls:
                check_qubit(q, "controls")
            if len(instr.targets) != 1:
                errors.append((i, "gates take exactly one target"))
            if len(instr.controls) > 1:
                errors.append((i, "at most one quantum control"))
            overlap = set(instr.targets) & {q for q, _ in instr.controls}
            if overlap:
                errors.append((i, f"control/target overlap on {sorted(overlap)}"))
            seen: set[int] = set()
            for b, _ in instr.condition.literals:
                check_clbit(b, "condition")
                if b in seen:
                    errors.append((i, f"clbit {b} repeated in condition"))
                seen.add(b)
                if 0 <= b < circuit.n_clbits and not assigned[b]:
                    errors.append((i, f"condition reads clbit {b} before assignment"))
        elif isinstance(instr, Measure):
            check_qubit(instr.qubit, "measure")
            check_clbit(instr.bit, "measure")
            if 0 <= instr.bit < circuit.n_clbits:
                assigned[instr.bit] = True
        elif isinstance(instr, Reset):
            check_qubit(instr.qubit, "reset")
        elif isinstance(instr, ClassicalToggle):
            check_clbit(instr.target, "toggle target")
            seen = set()
            for b, _ in instr.product:
                check_clbit(b, "toggle product")
                if b == instr.target:
                    errors.append((i, f"toggle target {b} appears in its own product"))
                if b in seen:
                    errors.append((i, f"clbit {b} repeated in toggle product"))
                seen.add(b)
                if 0 <= b < circuit.n_clbits and not assigned[b]:
                    errors.append((i, f"toggle reads clbit {b} before assignment"))
            if 0 <= instr.target < circuit.n_clbits and not assigned[instr.target]:
                errors.append((i, f"toggle target {instr.target} unassigned"))
        else:  # pragma: no cover - exhaustive union
            errors.append((i, f"unknown instruction {instr!r}"))
    return errors


def validate(circuit: Circuit) -> list[str]:
    """Return all invariant violations; an empty list means the circuit is ok."""
    return [f"instr {i}: {message}" for i, message in violations(circuit)]


def is_diagonal(instr: Instruction) -> bool:
    """True when the gate's unitary is diagonal in the computational basis.

    Quantum controls and classical conditions preserve diagonality; opaque
    gates are judged by their declared matrix.
    """
    if not isinstance(instr, Gate):
        return False
    if instr.kind.name in _DIAGONAL_NAMES:
        return True
    if instr.kind.name == "u":
        m = instr.kind.matrix
        return abs(m[1]) <= ANGLE_TOL and abs(m[2]) <= ANGLE_TOL
    return False


def is_bitflip(instr: Instruction) -> bool:
    """True for an X gate without quantum controls (conditions allowed)."""
    return isinstance(instr, Gate) and instr.kind.name == "x" and not instr.controls


class Dependencies:
    """Per-instruction dependency facts: the one index every pass reads.

    Position ``i`` holds instruction ``i``'s qubits (``instruction_qubits``
    order), the bits it reads, the bit it writes (``None``: none) and
    whether it is a reset. ``Dependencies(circuit)`` computes them; a pass
    that already knows its output's facts builds them with ``of`` and
    attaches them with ``make_circuit``. Each wire's positions are derived
    on first use.
    """

    __slots__ = ("n_qubits", "n_clbits", "qubits", "reads", "writes", "is_reset", "_wires")

    def __init__(self, circuit: Circuit):
        self.n_qubits, self.n_clbits = circuit.n_qubits, circuit.n_clbits
        columns = tuple(zip(*map(_facts, circuit.instructions))) or ((), (), (), ())
        self.qubits, self.reads, self.writes, self.is_reset = map(list, columns)
        self._wires = None

    @classmethod
    def of(cls, n_qubits: int, n_clbits: int, qubits, reads, writes, is_reset) -> "Dependencies":
        """Facts the caller already knows; no instruction is inspected."""
        deps = cls.__new__(cls)
        deps.n_qubits, deps.n_clbits = n_qubits, n_clbits
        deps.qubits, deps.reads, deps.writes, deps.is_reset = qubits, reads, writes, is_reset
        deps._wires = None
        return deps

    def take(self, positions) -> "Dependencies":
        """The facts at ``positions``, in that order."""
        return Dependencies.of(
            self.n_qubits,
            self.n_clbits,
            [self.qubits[i] for i in positions],
            [self.reads[i] for i in positions],
            [self.writes[i] for i in positions],
            [self.is_reset[i] for i in positions],
        )

    def make_circuit(self, instructions, name: str = "") -> Circuit:
        """The circuit of ``instructions``, whose facts these are."""
        circuit = Circuit(self.n_qubits, self.n_clbits, tuple(instructions), name)
        object.__setattr__(circuit, "_deps", self)
        return circuit

    @property
    def wires(self) -> list[list[int]]:
        """Each wire's instruction positions in circuit order."""
        if self._wires is None:
            self._wires = [[] for _ in range(self.n_qubits)]
            for i, qubits in enumerate(self.qubits):
                for q in qubits:
                    self._wires[q].append(i)
        return self._wires

    def forward_reach(self, order=None) -> list[int]:
        """Per instruction, the bitmask of the bits its forward cone writes.

        ``order`` lists the positions that make up the circuit, in circuit
        order (default: all of them); the result follows it. The cone
        follows qubit wires (two-qubit gates fan out to both wires) and stops
        before a Reset, whose output no longer depends on anything earlier.
        A written bit reaches every later instruction that reads it. One
        backward pass: each wire carries the reach of its next instruction,
        each bit a running OR of its later readers' reach.
        """
        nodes = range(len(self.qubits)) if order is None else order
        bit_reach = [0] * len(nodes)
        wire_bits = [0] * self.n_qubits
        reader_bits = [0] * self.n_clbits
        qubits_of, reads_of, writes_of, is_reset = self.qubits, self.reads, self.writes, self.is_reset
        for k in range(len(nodes) - 1, -1, -1):
            i = nodes[k]
            qubits = qubits_of[i]
            bm = 0
            for q in qubits:
                bm |= wire_bits[q]
            b = writes_of[i]
            if b is not None:
                bm |= (1 << b) | reader_bits[b]
            bit_reach[k] = bm
            for b in reads_of[i]:
                reader_bits[b] |= bm
            if is_reset[i]:
                bm = 0
            for q in qubits:
                wire_bits[q] = bm
        return bit_reach

    def successors(self) -> list[list[int]]:
        """Scheduling edges: each wire's chain, running through resets, and
        the order of conflicting accesses to every classical bit (a read
        follows the last write, a write follows the last write and every read
        since it)."""
        succ: list[list[int]] = [[] for _ in self.qubits]
        for positions in self.wires:
            for a, b in zip(positions, positions[1:]):
                succ[a].append(b)
        last_write: dict[int, int] = {}
        reads_since: dict[int, list[int]] = {}
        for i, w in enumerate(self.writes):
            for b in self.reads[i]:
                if b != w:
                    if b in last_write:
                        succ[last_write[b]].append(i)
                    reads_since.setdefault(b, []).append(i)
            if w is not None:
                if w in last_write:
                    succ[last_write[w]].append(i)
                for r in reads_since.pop(w, ()):
                    succ[r].append(i)
                last_write[w] = i
        return succ


_GAP = 1 << 32


def _link(prev: list[int], nxt: list[int], s: int, a: int, b: int) -> None:
    """Link slot ``s`` between slots ``a`` and ``b`` (-1: none)."""
    prev[s], nxt[s] = a, b
    if a >= 0:
        nxt[a] = s
    if b >= 0:
        prev[b] = s


def _unlink(prev: list[int], nxt: list[int], s: int) -> None:
    """Join slot ``s``'s neighbours and detach it."""
    a, b = prev[s], nxt[s]
    if a >= 0:
        nxt[a] = b
    if b >= 0:
        prev[b] = a
    prev[s] = nxt[s] = -1


class Chain:
    """A circuit as a doubly linked list that the rewrite passes update in
    place, with per-wire neighbour links.

    Node ``i`` starts as instruction ``i``; nodes a rewrite adds are
    appended, and a removed node's ``instr`` is ``None``. ``facts`` holds
    every node's entry, starting from the circuit's own ``Dependencies``.
    Wire links join slots, not nodes: node ``i`` owns wire slots ``2i``
    (qubit ``wire0[i]``, its first qubit when added) and ``2i + 1`` (its
    other qubit). ``label`` orders the nodes: a node placed between two
    others takes the midpoint of their labels, and all labels are renumbered
    when a gap is used up, which keeps their order.
    """

    def __init__(self, circuit: Circuit) -> None:
        deps = circuit.dependencies()
        n = len(circuit.instructions)
        self.name = circuit.name
        self.instr: list[Instruction | None] = list(circuit.instructions)
        self.facts = Dependencies.of(
            deps.n_qubits, deps.n_clbits,
            list(deps.qubits), list(deps.reads), list(deps.writes), list(deps.is_reset),
        )
        self.prev = list(range(-1, n - 1))
        self.next = list(range(1, n + 1))
        if n:
            self.next[-1] = -1
        self.head = 0 if n else -1
        self.label = [(i + 1) * _GAP for i in range(n)]
        wp, wn = [-1] * (2 * n), [-1] * (2 * n)
        last = [-1] * deps.n_qubits
        for i, qubits in enumerate(deps.qubits):
            s = 2 * i
            for q in qubits:
                p = last[q]
                if p >= 0:
                    wn[p] = s
                    wp[s] = p
                last[q] = s
                s += 1
        self.wire_prev, self.wire_next = wp, wn
        self.wire0 = [qubits[0] if qubits else -1 for qubits in deps.qubits]

    def wire_slot(self, node: int, q: int) -> int:
        return 2 * node + (self.wire0[node] != q)

    def order(self) -> list[int]:
        """The live nodes in circuit order."""
        out = []
        node = self.head
        while node >= 0:
            out.append(node)
            node = self.next[node]
        return out

    def _detach(self, node: int) -> None:
        if node == self.head:
            self.head = self.next[node]
        _unlink(self.prev, self.next, node)

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
        self._detach(node)
        self._place(node, gate)
        wp, wn = self.wire_prev, self.wire_next
        s, gs = 2 * node, self.wire_slot(gate, q)
        a, b = wp[gs], wn[s]
        _link(wp, wn, s, a, gs)
        _link(wp, wn, gs, s, b)

    def insert_after(self, node: int, instr: Instruction) -> int:
        """Add ``instr`` between ``node`` and the node after it; each of its
        qubits must be one of ``node``'s. Returns the new node."""
        new = len(self.instr)
        self.instr.append(instr)
        self.prev.append(-1)
        self.next.append(-1)
        self.label.append(0)
        self._place(new, self.next[node])
        qubits, reads, write, reset = _facts(instr)
        facts = self.facts
        facts.qubits.append(qubits)
        facts.reads.append(reads)
        facts.writes.append(write)
        facts.is_reset.append(reset)
        self.wire0.append(qubits[0] if qubits else -1)
        wp, wn = self.wire_prev, self.wire_next
        wp += (-1, -1)
        wn += (-1, -1)
        for k, q in enumerate(qubits):
            a = self.wire_slot(node, q)
            _link(wp, wn, 2 * new + k, a, wn[a])
        return new

    def replace(self, node: int, instr: Instruction) -> None:
        """Put ``instr`` in ``node``'s place. Its qubits must be among the
        node's; a wire it no longer touches skips the node."""
        qubits, reads, write, reset = _facts(instr)
        facts = self.facts
        for q in facts.qubits[node]:
            if q not in qubits:
                _unlink(self.wire_prev, self.wire_next, self.wire_slot(node, q))
        self.instr[node] = instr
        facts.qubits[node] = qubits
        facts.reads[node] = reads
        facts.writes[node] = write
        facts.is_reset[node] = reset

    def remove(self, node: int) -> None:
        """Take ``node`` out of the order and its wires."""
        self._detach(node)
        for q in self.facts.qubits[node]:
            _unlink(self.wire_prev, self.wire_next, self.wire_slot(node, q))
        self.instr[node] = None

    def materialise(self) -> Circuit:
        """The circuit the chain holds, carrying its facts."""
        order = self.order()
        return self.facts.take(order).make_circuit([self.instr[v] for v in order], self.name)


def depth(circuit: Circuit) -> int:
    """As-soon-as-possible layer count.

    Gates, measurements, and resets each occupy one layer on every qubit they
    touch. A classically conditioned instruction lands strictly after the
    producer of every bit it reads. Toggles cost no quantum layer; they only
    forward the producer layer of their inputs.
    """
    deps = circuit.dependencies()
    qubit_avail = [1] * circuit.n_qubits
    bit_layer = [0] * circuit.n_clbits
    deepest = 0
    for qubits, reads, w in zip(deps.qubits, deps.reads, deps.writes):
        if not qubits:  # a toggle, the only instruction without qubits
            bit_layer[w] = max([bit_layer[b] for b in reads], default=0)
            continue
        layer = 0
        for q in qubits:
            if qubit_avail[q] > layer:
                layer = qubit_avail[q]
        for b in reads:
            if bit_layer[b] >= layer:
                layer = bit_layer[b] + 1
        for q in qubits:
            qubit_avail[q] = layer + 1
        if w is not None:  # a measurement
            bit_layer[w] = layer
        if layer > deepest:
            deepest = layer
    return deepest


def two_qubit_gate_count(circuit: Circuit) -> int:
    # Only a controlled gate touches two qubits.
    return sum(len(qubits) == 2 for qubits in circuit.dependencies().qubits)


class CircuitBuilder:
    """Chainable helper for assembling circuits in tests and generators."""

    def __init__(self, n_qubits: int, n_clbits: int, name: str = ""):
        self.n_qubits = n_qubits
        self.n_clbits = n_clbits
        self.name = name
        self._instrs: list[Instruction] = []

    def append(self, instr: Instruction) -> "CircuitBuilder":
        self._instrs.append(instr)
        return self

    def _gate(self, kind: GateKind, target: int, controls=(), condition=()) -> "CircuitBuilder":
        cond = condition if isinstance(condition, Condition) else Condition(tuple(condition))
        return self.append(Gate(kind, (target,), tuple(controls), cond))

    def h(self, q: int, **kw) -> "CircuitBuilder":
        return self._gate(H_KIND, q, **kw)

    def x(self, q: int, **kw) -> "CircuitBuilder":
        return self._gate(X_KIND, q, **kw)

    def y(self, q: int, **kw) -> "CircuitBuilder":
        return self._gate(Y_KIND, q, **kw)

    def z(self, q: int, **kw) -> "CircuitBuilder":
        return self._gate(Z_KIND, q, **kw)

    def s(self, q: int, **kw) -> "CircuitBuilder":
        return self._gate(S_KIND, q, **kw)

    def t(self, q: int, **kw) -> "CircuitBuilder":
        return self._gate(T_KIND, q, **kw)

    def p(self, theta: float, q: int, **kw) -> "CircuitBuilder":
        return self._gate(p_kind(theta), q, **kw)

    def rx(self, theta: float, q: int, **kw) -> "CircuitBuilder":
        return self._gate(rx_kind(theta), q, **kw)

    def rz(self, theta: float, q: int, **kw) -> "CircuitBuilder":
        return self._gate(rz_kind(theta), q, **kw)

    def cx(self, control: int, target: int, **kw) -> "CircuitBuilder":
        return self._gate(X_KIND, target, controls=((control, True),), **kw)

    def cz(self, control: int, target: int, **kw) -> "CircuitBuilder":
        return self._gate(Z_KIND, target, controls=((control, True),), **kw)

    def cp(self, theta: float, control: int, target: int, **kw) -> "CircuitBuilder":
        return self._gate(p_kind(theta), target, controls=((control, True),), **kw)

    def opaque(self, label: str, matrix, target: int, controls=(), **kw) -> "CircuitBuilder":
        return self._gate(opaque_kind(label, matrix), target, controls=tuple(controls), **kw)

    def measure(self, qubit: int, bit: int) -> "CircuitBuilder":
        return self.append(Measure(qubit, bit))

    def reset(self, qubit: int) -> "CircuitBuilder":
        return self.append(Reset(qubit))

    def toggle(self, target: int, product=()) -> "CircuitBuilder":
        return self.append(ClassicalToggle(target, tuple(product)))

    def build(self, check: bool = True) -> Circuit:
        circuit = Circuit(self.n_qubits, self.n_clbits, tuple(self._instrs), self.name)
        if check:
            errors = validate(circuit)
            if errors:
                raise ValueError("invalid circuit: " + "; ".join(errors))
        return circuit
