"""Dynamic-circuit intermediate representation and the analyses built on it.

A circuit is a flat, ordered list of instructions over a register of qubits
and a register of classical bits. Four instruction variants cover the
dynamic-circuit primitives: gates (optionally quantum-controlled and/or
classically conditioned), mid-circuit measurement, reset, and classical XOR
fix-ups. Circuits are immutable values; rewrite passes return new circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    "link_slots",
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

    def with_instructions(self, instructions) -> "Circuit":
        return replace(self, instructions=tuple(instructions))


def instruction_qubits(instr: Instruction) -> tuple[int, ...]:
    if isinstance(instr, Gate):
        if not instr.controls:
            return instr.targets
        return tuple(q for q, _ in instr.controls) + instr.targets
    if isinstance(instr, (Measure, Reset)):
        return (instr.qubit,)
    return ()


def read_bits(instr: Instruction) -> tuple[int, ...]:
    """Classical bits whose value the instruction consumes."""
    if isinstance(instr, Gate):
        return instr.condition.bits()
    if isinstance(instr, ClassicalToggle):
        # The XOR accumulates into the target, so the target is read too.
        return tuple(b for b, _ in instr.product) + (instr.target,)
    return ()


def written_bit(instr: Instruction) -> int | None:
    if isinstance(instr, Measure):
        return instr.bit
    if isinstance(instr, ClassicalToggle):
        return instr.target
    return None


def link_slots(
    keys: list[tuple[int, ...]], base, n_slots: int, n_keys: int
) -> tuple[list[int], list[int]]:
    """Neighbour links of each key's accesses, in circuit order.

    Instruction ``i``'s ``j``-th key (a qubit or a bit below ``n_keys``)
    occupies slot ``base[i] + j``. Returns, per slot, the previous and the
    next slot of the same key, -1 at either end.
    """
    prev = [-1] * n_slots
    nxt = [-1] * n_slots
    last = [-1] * n_keys
    for s, ks in zip(base, keys):
        for k in ks:
            p = last[k]
            if p >= 0:
                nxt[p] = s
                prev[s] = p
            last[k] = s
            s += 1
    return prev, nxt


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
    """Per-circuit dependency index shared by the passes.

    Computes each instruction's qubits, read bits and written bit once, plus
    each wire's instruction positions in circuit order.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        instrs = circuit.instructions
        self.qubits = [instruction_qubits(i) for i in instrs]
        self.reads = [read_bits(i) for i in instrs]
        self.writes = [written_bit(i) for i in instrs]
        self.is_reset = [isinstance(i, Reset) for i in instrs]
        self.wires: list[list[int]] = [[] for _ in range(circuit.n_qubits)]
        for i, qubits in enumerate(self.qubits):
            for q in qubits:
                self.wires[q].append(i)

    def forward_reach(self) -> list[int]:
        """Per instruction, the bitmask of the bits its forward cone writes.

        The cone follows qubit wires (two-qubit gates fan out to both wires)
        and stops before a Reset, whose output no longer depends on anything
        earlier. A written bit reaches every later instruction that reads it.
        One backward pass: each wire carries the reach of its next
        instruction, each bit a running OR of its later readers' reach.
        """
        n = len(self.qubits)
        bit_reach = [0] * n
        wire_bits = [0] * self.circuit.n_qubits
        reader_bits = [0] * self.circuit.n_clbits
        qubits_of, reads_of, writes_of, is_reset = self.qubits, self.reads, self.writes, self.is_reset
        for i in range(n - 1, -1, -1):
            qubits = qubits_of[i]
            bm = 0
            for q in qubits:
                bm |= wire_bits[q]
            b = writes_of[i]
            if b is not None:
                bm |= (1 << b) | reader_bits[b]
            bit_reach[i] = bm
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


def depth(circuit: Circuit) -> int:
    """As-soon-as-possible layer count.

    Gates, measurements, and resets each occupy one layer on every qubit they
    touch. A classically conditioned instruction lands strictly after the
    producer of every bit it reads. Toggles cost no quantum layer; they only
    forward the producer layer of their inputs.
    """
    qubit_avail = [1] * circuit.n_qubits
    bit_layer = [0] * circuit.n_clbits
    deepest = 0
    for instr in circuit.instructions:
        if isinstance(instr, ClassicalToggle):
            layer = max((bit_layer[b] for b in read_bits(instr)), default=0)
            bit_layer[instr.target] = layer
            continue
        qubits = instruction_qubits(instr)
        layer = max(qubit_avail[q] for q in qubits)
        for b in read_bits(instr):
            layer = max(layer, bit_layer[b] + 1)
        for q in qubits:
            qubit_avail[q] = layer + 1
        if isinstance(instr, Measure):
            bit_layer[instr.bit] = layer
        deepest = max(deepest, layer)
    return deepest


def two_qubit_gate_count(circuit: Circuit) -> int:
    return sum(
        1
        for instr in circuit.instructions
        if isinstance(instr, Gate) and len(instruction_qubits(instr)) == 2
    )


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
