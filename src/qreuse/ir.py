"""Dynamic-circuit intermediate representation and the analyses built on it.

A ``Circuit`` is an immutable, ordered tuple of instructions over a register
of qubits and a register of classical bits: gates, mid-circuit measurements,
resets and classical XOR fix-ups (toggles). What a gate does is known here
only, as its ``GateKind``'s unitary. Every analysis reads one index of
per-instruction facts, ``Dependencies``; the rewrite passes update its
mutable form, ``Chain``, in place.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from operator import itemgetter

__all__ = [
    "GateKind",
    "Gate",
    "Measure",
    "Reset",
    "ClassicalToggle",
    "Instruction",
    "Circuit",
    "CircuitBuilder",
    "Dependencies",
    "Chain",
    "FIXED_KINDS",
    "X_KIND",
    "Z_KIND",
    "opaque_kind",
    "validate",
    "violations",
    "depth",
    "two_qubit_gate_count",
    "is_diagonal",
]

_SQRT2 = math.sqrt(0.5)


def _rx(angle: float) -> tuple[complex, complex, complex, complex]:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return (c, -1j * s, -1j * s, c)


# What each gate kind does: its 2x2 unitary as the entries (u00, u01, u10,
# u11), row-major; a function of the angle for a parametric kind. ``u`` is
# opaque: its entries are the matrix it declares.
_UNITARIES = {
    "h": (_SQRT2, _SQRT2, _SQRT2, -_SQRT2),
    "x": (0, 1, 1, 0),
    "y": (0, -1j, 1j, 0),
    "z": (1, 0, 0, -1),
    "s": (1, 0, 0, 1j),
    "t": (1, 0, 0, cmath.exp(1j * math.pi / 4)),
    "p": lambda angle: (1, 0, 0, cmath.exp(1j * angle)),
    "rx": _rx,
    "rz": lambda angle: (cmath.exp(-0.5j * angle), 0, 0, cmath.exp(0.5j * angle)),
    "u": None,
}
GATE_NAMES = frozenset(_UNITARIES)
PARAMETRIC = frozenset(name for name, entries in _UNITARIES.items() if callable(entries))

# An off-diagonal entry of at most this magnitude counts as zero: a kind is
# diagonal when both of its off-diagonal entries do.
ANGLE_TOL = 1e-12


@dataclass(frozen=True, slots=True, init=False)
class GateKind:
    """A single-qubit gate alphabet entry.

    ``p``/``rx``/``rz`` carry exactly one angle (radians), the others none.
    ``u`` is an opaque named gate with an explicit 2x2 unitary (row-major, 4
    finite entries, kept as complex numbers); no other kind takes a label or
    matrix. ``unitary`` is derived, computed once: the entries ``(u00, u01,
    u10, u11)`` that the oracle and every pass read. So is ``diagonal``:
    both off-diagonal entries are within ``ANGLE_TOL`` of zero.
    """

    name: str
    angle: float | None = None
    label: str | None = None
    matrix: tuple[complex, complex, complex, complex] | None = None
    unitary: tuple[complex, complex, complex, complex] = field(init=False, compare=False, repr=False)
    diagonal: bool = field(init=False, compare=False, repr=False)

    def __init__(self, name, angle=None, label=None, matrix=None):
        if name not in GATE_NAMES:
            raise ValueError(f"unknown gate kind {name!r}")
        if name in PARAMETRIC and angle is None:
            raise ValueError(f"{name} requires an angle")
        if name not in PARAMETRIC and angle is not None:
            raise ValueError(f"{name} takes no angle")
        if angle is not None and not math.isfinite(angle):
            raise ValueError(f"{name} angle must be finite, got {angle}")
        entries = _UNITARIES[name]
        if name == "u":
            if label is None or matrix is None:
                raise ValueError("opaque gates need a label and a 2x2 matrix")
            entries = matrix = tuple(map(complex, matrix))
            if len(matrix) != 4:
                raise ValueError("opaque matrix must have 4 entries (row-major 2x2)")
            if not all(map(cmath.isfinite, matrix)):
                raise ValueError(f"opaque matrix for {label!r} must have finite entries")
        elif label is not None or matrix is not None:
            raise ValueError(f"{name} takes no label or matrix")
        elif angle is not None:
            entries = entries(angle)
        _set_kind_name(self, name)
        _set_kind_angle(self, angle)
        _set_kind_label(self, label)
        _set_kind_matrix(self, matrix)
        _set_kind_unitary(self, entries)
        _, u01, u10, _ = entries
        _set_kind_diagonal(self, abs(u01) <= ANGLE_TOL and abs(u10) <= ANGLE_TOL)


# Kinds and instructions are built by the parser and by the hot loops of
# every pass, so each class writes its fields through its slot descriptors
# instead of the frozen dataclass's ``object.__setattr__`` calls; the setters
# are taken once, after the class.
_set_kind_name = GateKind.name.__set__
_set_kind_angle = GateKind.angle.__set__
_set_kind_label = GateKind.label.__set__
_set_kind_matrix = GateKind.matrix.__set__
_set_kind_unitary = GateKind.unitary.__set__
_set_kind_diagonal = GateKind.diagonal.__set__

# One shared kind per name without an angle.
FIXED_KINDS = {name: GateKind(name) for name, entries in _UNITARIES.items() if type(entries) is tuple}
X_KIND = FIXED_KINDS["x"]
Z_KIND = FIXED_KINDS["z"]


def opaque_kind(label: str, matrix) -> GateKind:
    return GateKind("u", label=label, matrix=matrix)


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    """``kind`` on ``target`` when the ``control`` qubit is 1 (``None``: no
    control) and every ``(bit, value)`` literal of ``condition`` holds
    (empty: always)."""

    kind: GateKind
    target: int
    control: int | None = None
    condition: tuple[tuple[int, bool], ...] = ()
    source_line: int | None = field(default=None, compare=False)

    def __init__(self, kind, target, control=None, condition=(), source_line=None):
        _set_gate_kind(self, kind)
        _set_gate_target(self, target)
        _set_gate_control(self, control)
        _set_gate_condition(self, condition)
        _set_gate_source_line(self, source_line)


_set_gate_kind = Gate.kind.__set__
_set_gate_target = Gate.target.__set__
_set_gate_control = Gate.control.__set__
_set_gate_condition = Gate.condition.__set__
_set_gate_source_line = Gate.source_line.__set__


@dataclass(frozen=True, slots=True, init=False)
class Measure:
    qubit: int
    bit: int
    source_line: int | None = field(default=None, compare=False)

    def __init__(self, qubit, bit, source_line=None):
        _set_measure_qubit(self, qubit)
        _set_measure_bit(self, bit)
        _set_measure_source_line(self, source_line)


_set_measure_qubit = Measure.qubit.__set__
_set_measure_bit = Measure.bit.__set__
_set_measure_source_line = Measure.source_line.__set__


@dataclass(frozen=True, slots=True, init=False)
class Reset:
    qubit: int
    source_line: int | None = field(default=None, compare=False)

    def __init__(self, qubit, source_line=None):
        _set_reset_qubit(self, qubit)
        _set_reset_source_line(self, source_line)


_set_reset_qubit = Reset.qubit.__set__
_set_reset_source_line = Reset.source_line.__set__


@dataclass(frozen=True, slots=True, init=False)
class ClassicalToggle:
    """``target ^= AND(product)``; empty product toggles unconditionally."""

    target: int
    product: tuple[tuple[int, bool], ...] = ()
    source_line: int | None = field(default=None, compare=False)

    def __init__(self, target, product=(), source_line=None):
        _set_toggle_target(self, target)
        _set_toggle_product(self, product)
        _set_toggle_source_line(self, source_line)


_set_toggle_target = ClassicalToggle.target.__set__
_set_toggle_product = ClassicalToggle.product.__set__
_set_toggle_source_line = ClassicalToggle.source_line.__set__


Instruction = Gate | Measure | Reset | ClassicalToggle


@dataclass(frozen=True, slots=True)
class Circuit:
    n_qubits: int
    n_clbits: int
    instructions: tuple[Instruction, ...] = ()
    name: str = ""
    # Cached ``Dependencies``; not part of the value.
    _deps: "Dependencies | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_qubits < 0:
            raise ValueError(f"qubit register size must be non-negative, got {self.n_qubits}")
        if self.n_clbits < 0:
            raise ValueError(f"bit register size must be non-negative, got {self.n_clbits}")

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
        control, literals = instr.control, instr.condition
        qubits = (instr.target,) if control is None else (control, instr.target)
        return qubits, tuple(map(_first, literals)) if literals else (), None, False
    if isinstance(instr, Measure):
        return (instr.qubit,), (), instr.bit, False
    if isinstance(instr, Reset):
        return (instr.qubit,), (), None, True
    # A toggle's XOR accumulates into its target, so the target is read too.
    return (), tuple(map(_first, instr.product)) + (instr.target,), instr.target, False


def violations(circuit: Circuit) -> list[tuple[int, str]]:
    """Every invariant violation as ``(instruction index, message)``."""
    errors: list[tuple[int, str]] = []
    n_qubits, n_clbits = circuit.n_qubits, circuit.n_clbits
    assigned = [False] * n_clbits

    # Indices are tested inline; these report what a test found, and the
    # literal check runs only on a non-empty condition or product.
    def bad_qubit(i: int, q: int, where: str) -> None:
        errors.append((i, f"qubit {q} out of range in {where}"))

    def bad_clbit(i: int, b: int, where: str) -> None:
        errors.append((i, f"clbit {b} out of range in {where}"))

    def check_literals(i: int, literals, where: str, reader: str) -> None:
        seen: set[int] = set()
        for b, _ in literals:
            inside = 0 <= b < n_clbits
            if not inside:
                bad_clbit(i, b, where)
            if b in seen:
                errors.append((i, f"clbit {b} repeated in {where}"))
            seen.add(b)
            if inside and not assigned[b]:
                errors.append((i, f"{reader} reads clbit {b} before assignment"))

    for i, instr in enumerate(circuit.instructions):
        if isinstance(instr, Gate):
            target, control = instr.target, instr.control
            if not 0 <= target < n_qubits:
                bad_qubit(i, target, "targets")
            if control is not None:
                if not 0 <= control < n_qubits:
                    bad_qubit(i, control, "controls")
                if control == target:
                    errors.append((i, f"control/target overlap on [{target}]"))
            if instr.condition:
                check_literals(i, instr.condition, "condition", "condition")
        elif isinstance(instr, Measure):
            qubit, bit = instr.qubit, instr.bit
            if not 0 <= qubit < n_qubits:
                bad_qubit(i, qubit, "measure")
            if 0 <= bit < n_clbits:
                assigned[bit] = True
            else:
                bad_clbit(i, bit, "measure")
        elif isinstance(instr, Reset):
            if not 0 <= instr.qubit < n_qubits:
                bad_qubit(i, instr.qubit, "reset")
        elif isinstance(instr, ClassicalToggle):
            target = instr.target
            inside = 0 <= target < n_clbits
            if not inside:
                bad_clbit(i, target, "toggle target")
            if instr.product:
                if any(b == target for b, _ in instr.product):
                    errors.append((i, f"toggle target {target} appears in its own product"))
                check_literals(i, instr.product, "toggle product", "toggle")
            if inside and not assigned[target]:
                errors.append((i, f"toggle target {target} unassigned"))
        else:  # pragma: no cover - exhaustive union
            errors.append((i, f"unknown instruction {instr!r}"))
    return errors


def validate(circuit: Circuit) -> list[str]:
    """Return all invariant violations; an empty list means the circuit is ok."""
    return [f"instr {i}: {message}" for i, message in violations(circuit)]


def is_diagonal(instr: Instruction) -> bool:
    """True when the gate's kind is ``diagonal``; a quantum control and a
    classical condition preserve diagonality."""
    return isinstance(instr, Gate) and instr.kind.diagonal


class Dependencies:
    """Per-instruction dependency facts: the one index every pass reads.

    Position ``i`` holds instruction ``i``'s qubits (a gate's quantum
    control first, then its target), the bits it reads, the bit it writes
    (``None``: none) and whether it is a reset. A circuit computes them once,
    on first use (``Circuit.dependencies``). A pass that already knows its
    output's facts builds them with ``of`` and attaches them with
    ``make_circuit``, so each stage hands its index to the next and one
    ``optimize`` computes it only for its input. Nothing derived is kept: a
    pass that needs wire order or scheduling edges derives them in a pass
    over these columns that it makes anyway.
    """

    __slots__ = ("n_qubits", "n_clbits", "qubits", "reads", "writes", "is_reset")

    def __init__(self, circuit: Circuit):
        self.n_qubits, self.n_clbits = circuit.n_qubits, circuit.n_clbits
        columns = tuple(zip(*map(_facts, circuit.instructions))) or ((), (), (), ())
        self.qubits, self.reads, self.writes, self.is_reset = map(list, columns)

    @classmethod
    def of(cls, n_qubits: int, n_clbits: int, qubits, reads, writes, is_reset) -> "Dependencies":
        """Facts the caller already knows; no instruction is inspected."""
        deps = cls.__new__(cls)
        deps.n_qubits, deps.n_clbits = n_qubits, n_clbits
        deps.qubits, deps.reads, deps.writes, deps.is_reset = qubits, reads, writes, is_reset
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


_GAP = 1 << 32


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
    place, from the first commutation to dead-gate removal, and turn back
    into a circuit once (``materialise``).

    Node ``i`` starts as instruction ``i``; nodes a rewrite adds are
    appended, and a removed node's ``instr`` is ``None``. ``facts`` holds
    every node's entry, starting from the circuit's ``Dependencies``, and
    each rewrite step is one call that updates only what the step changes,
    with the facts the step hands over. Wire links join slots, not nodes:
    node ``i`` owns slots ``2i`` (qubit ``wire0[i]``, its first qubit when
    added) and ``2i + 1`` (its other qubit). ``before`` and ``after`` answer
    in nodes, so a wire neighbour is one lookup and no other module reads
    the slots. ``label`` orders the nodes: a node placed between two others
    takes the midpoint of their labels, and when a gap is used up all labels
    are renumbered in list order, which keeps their order. The chain holds
    one ``(q,)`` per qubit and one ``(b,)`` and ``((b, True),)`` per bit,
    built on first use, which the steps' facts and conditions share, so an
    introduction on an unconditioned gate allocates only its new gate.
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
        self._one_qubit: list[tuple[int] | None] = [None] * deps.n_qubits
        self._one_bit: list[tuple | None] = [None] * deps.n_clbits

    def wire_slot(self, node: int, q: int) -> int:
        return 2 * node + (self.wire0[node] != q)

    def before(self, node: int, q: int) -> int:
        """The node right before ``node`` on wire ``q``; -1 when none."""
        # A slot's node is the slot halved, and -1 >> 1 is -1.
        return self.wire_prev[2 * node + (self.wire0[node] != q)] >> 1

    def after(self, node: int, q: int) -> int:
        """The node right after ``node`` on wire ``q``; -1 when none."""
        return self.wire_next[2 * node + (self.wire0[node] != q)] >> 1

    def order(self) -> list[int]:
        """The live nodes in circuit order."""
        out = []
        node = self.head
        while node >= 0:
            out.append(node)
            node = self.next[node]
        return out

    def _relabel(self) -> None:
        node, k = self.head, 1
        while node >= 0:
            self.label[node] = k * _GAP
            node, k = self.next[node], k + 1

    def bit_tuples(self, b: int) -> tuple[tuple[int], tuple[tuple[int, bool]]]:
        """The chain's ``(b,)`` and ``((b, True),)``: bit ``b`` read, and the
        literal ``b == 1``."""
        pair = self._one_bit[b]
        if pair is None:
            pair = self._one_bit[b] = ((b,), ((b, True),))
        return pair

    def drop_control(self, node: int, gate: Gate, reads: tuple[int, ...]) -> int:
        """Put ``gate``, the controlled gate ``node`` without its control,
        reading ``reads``, in ``node``'s place; the control's wire then skips
        the node. Returns the node after it on that wire; -1 when none."""
        wp, wn = self.wire_prev, self.wire_next
        s = 2 * node + (self.wire0[node] != self.instr[node].control)
        a, b = wp[s], wn[s]
        if a >= 0:
            wn[a] = b
        if b >= 0:
            wp[b] = a
        wp[s] = wn[s] = -1
        target = gate.target
        qubits = self._one_qubit[target]
        if qubits is None:
            qubits = self._one_qubit[target] = (target,)
        self.instr[node] = gate
        self.facts.qubits[node] = qubits
        self.facts.reads[node] = reads
        return b >> 1

    def put(self, node: int, gate: Gate, qubits: tuple[int, ...]) -> None:
        """Put ``gate``, on the gate ``node``'s wires and reading its bits, in
        its place; ``qubits`` are the same wires in ``gate``'s order, control
        first."""
        self.instr[node] = gate
        self.facts.qubits[node] = qubits

    def move_before(self, node: int, gate: int, q: int) -> None:
        """Move ``node`` (one qubit ``q``, no bit crossed) right before
        ``gate``, its predecessor on wire ``q``."""
        prev, nxt, label = self.prev, self.next, self.label
        a, b = prev[node], nxt[node]
        nxt[a] = b  # ``gate`` lies before ``node``, so ``a`` is a node
        if b >= 0:
            prev[b] = a
        a = prev[gate]
        prev[node], nxt[node], prev[gate] = a, gate, node
        if a >= 0:
            nxt[a] = node
        else:
            self.head = node
        if label[gate] - (label[a] if a >= 0 else 0) < 2:
            self._relabel()
        label[node] = ((label[a] if a >= 0 else 0) + label[gate]) // 2
        # On wire q, the node's slot and the gate's trade places.
        wp, wn = self.wire_prev, self.wire_next
        s, gs = 2 * node, 2 * gate + (self.wire0[gate] != q)
        a, b = wp[gs], wn[s]
        wp[s], wn[s], wp[gs], wn[gs] = a, gs, s, b
        if a >= 0:
            wn[a] = s
        if b >= 0:
            wp[b] = gs

    def insert_after(self, node: int, instr: Instruction, qubits: tuple, reads: tuple, write: int | None) -> int:
        """Add ``instr``, no reset, whose qubits, read bits and written bit
        the caller hands over, between ``node`` and the node after it, which
        must exist; each of its qubits must be one of ``node``'s. Returns the
        new node."""
        new = len(self.instr)
        self.instr.append(instr)
        prev, nxt, label = self.prev, self.next, self.label
        b = nxt[node]
        prev.append(node)
        nxt.append(b)
        label.append(0)
        nxt[node] = prev[b] = new
        if label[b] - label[node] < 2:
            self._relabel()
        label[new] = (label[node] + label[b]) // 2
        facts = self.facts
        facts.qubits.append(qubits)
        facts.reads.append(reads)
        facts.writes.append(write)
        facts.is_reset.append(False)
        self.wire0.append(qubits[0] if qubits else -1)
        wp, wn = self.wire_prev, self.wire_next
        wp += (-1, -1)
        wn += (-1, -1)
        s = 2 * new
        for q in qubits:
            a = 2 * node + (self.wire0[node] != q)
            c = wn[a]
            wp[s], wn[s], wn[a] = a, c, s
            if c >= 0:
                wp[c] = s
            s += 1
        return new

    def remove(self, node: int) -> None:
        """Take ``node`` out of the order and its wires."""
        if node == self.head:
            self.head = self.next[node]
        _unlink(self.prev, self.next, node)
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
        # One kind per parametric name and angle, keyed on the angle's bits
        # so that -0.0 stays apart from 0.0.
        self._kinds: dict[tuple[str, str], GateKind] = {}

    def append(self, instr: Instruction) -> "CircuitBuilder":
        self._instrs.append(instr)
        return self

    def _gate(self, kind: GateKind, target: int, control=None, condition=()) -> "CircuitBuilder":
        return self.append(Gate(kind, target, control, tuple(condition)))

    def _angled(self, name: str, theta: float) -> GateKind:
        theta = float(theta)
        key = name, theta.hex()
        kind = self._kinds.get(key)
        if kind is None:
            kind = self._kinds[key] = GateKind(name, angle=theta)
        return kind

    def h(self, q: int, **kw) -> "CircuitBuilder":
        return self._gate(FIXED_KINDS["h"], q, **kw)

    def x(self, q: int, **kw) -> "CircuitBuilder":
        return self._gate(X_KIND, q, **kw)

    def y(self, q: int, **kw) -> "CircuitBuilder":
        return self._gate(FIXED_KINDS["y"], q, **kw)

    def z(self, q: int, **kw) -> "CircuitBuilder":
        return self._gate(Z_KIND, q, **kw)

    def s(self, q: int, **kw) -> "CircuitBuilder":
        return self._gate(FIXED_KINDS["s"], q, **kw)

    def t(self, q: int, **kw) -> "CircuitBuilder":
        return self._gate(FIXED_KINDS["t"], q, **kw)

    def p(self, theta: float, q: int, **kw) -> "CircuitBuilder":
        return self._gate(self._angled("p", theta), q, **kw)

    def rx(self, theta: float, q: int, **kw) -> "CircuitBuilder":
        return self._gate(self._angled("rx", theta), q, **kw)

    def rz(self, theta: float, q: int, **kw) -> "CircuitBuilder":
        return self._gate(self._angled("rz", theta), q, **kw)

    def cx(self, control: int, target: int, **kw) -> "CircuitBuilder":
        return self._gate(X_KIND, target, control, **kw)

    def cz(self, control: int, target: int, **kw) -> "CircuitBuilder":
        return self._gate(Z_KIND, target, control, **kw)

    def cp(self, theta: float, control: int, target: int, **kw) -> "CircuitBuilder":
        return self._gate(self._angled("p", theta), target, control, **kw)

    def opaque(self, label: str, matrix, target: int, **kw) -> "CircuitBuilder":
        return self._gate(opaque_kind(label, matrix), target, **kw)

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
