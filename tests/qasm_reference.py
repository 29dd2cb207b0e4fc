"""Regex-cascade parser and per-statement writer, kept as the references
for ``qasm.parse`` and ``qasm.emit``.

This is ``qasm.parse`` as it was before each statement was read with one
pattern chosen by its leading token: every statement runs the cascade of
anchored patterns in a fixed order, the gate patterns last, and each
instruction gets its own ``GateKind``. Lines are split
with ``str.splitlines()``. ``qasm.parse`` must accept the same circuits
with the same source lines and raise the same errors, apart from the inputs
``tests/test_qasm.py`` lists as changed on purpose.

``emit`` is ``qasm.emit`` as it was before each distinct statement head and
condition was written once per circuit: it formats every gate statement
afresh. ``qasm.emit`` must write the same text and refuse the same circuits
with the same errors.
"""

from __future__ import annotations

import math
import re

from qreuse.ir import (
    Circuit,
    ClassicalToggle,
    Gate,
    GateKind,
    Measure,
    Reset,
    opaque_kind,
    violations,
)
from qreuse.qasm import MAX_REGISTER, QasmSemanticError, QasmSyntaxError, QasmUnsupportedError

# Kind name -> its statement without a control and its statement with one.
_SPELLINGS = {
    **{name: (name, None) for name in ("h", "y", "s", "t", "rx", "rz")},
    "x": ("x", "cx"),
    "z": ("z", "cz"),
    "p": ("p", "cp"),
}

_FIXED_GATES = ("h", "x", "y", "z", "s", "t")
_PARAM_GATES = ("p", "rx", "rz")
_TWO_QUBIT = ("cx", "cz")
# Built-in gate and statement names, which no opaque label may take.
_RESERVED = frozenset(
    _FIXED_GATES + _PARAM_GATES + _TWO_QUBIT + ("cp", "measure", "reset", "if", "include", "qubit", "bit")
)

_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_RE_QUBIT_DECL = re.compile(r"^qubit\[(\d+)\]\s+(\w+)$")
_RE_BIT_DECL = re.compile(r"^bit\[(\d+)\]\s+(\w+)$")
_RE_FIXED = re.compile(r"^([a-z_][a-z0-9_]*)\s+q\[(\d+)\]$")
_RE_PARAM = re.compile(rf"^(p|rx|rz)\(({_NUM})\)\s+q\[(\d+)\]$")
_RE_TWOQ = re.compile(r"^(cx|cz)\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]$")
_RE_CP = re.compile(rf"^cp\(({_NUM})\)\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]$")
_RE_MEASURE = re.compile(r"^c\[(\d+)\]\s*=\s*measure\s+q\[(\d+)\]$")
_RE_RESET = re.compile(r"^reset\s+q\[(\d+)\]$")
_RE_IF = re.compile(r"^if\s*\((.*?)\)\s*(.+)$")
_RE_TOGGLE = re.compile(r"^c\[(\d+)\]\s*=\s*c\[(\d+)\]\s*\^\s*(.+)$")
_RE_LIT = re.compile(r"^(!?)c\[(\d+)\]$")
_LABEL = r"[a-z_][a-z0-9_]*"
_RE_MATRIX = re.compile(rf"^//\s*matrix\s+({_LABEL})\s*:\s*(.+)$")
_RE_NAME = re.compile(r"^//\s*circuit:\s*(.*)$")
_RE_HEADER = re.compile(r"^(?:OPENQASM|include)\b")

_UNSUPPORTED_HINTS = (
    "barrier",
    "gate ",
    "for ",
    "while ",
    "def ",
    "delay",
    "gphase",
    "swap",
    "ccx",
)


def _number(text: str, what: str, line: int, col: int | None = None) -> float:
    try:
        value = float(text)
    except ValueError:
        raise QasmSyntaxError(f"{what} {text!r} is not a number", line, col) from None
    if not math.isfinite(value):
        raise QasmSemanticError(f"{what} {text} is not finite", line, col)
    return value


def _unitary(a: complex, b: complex, c: complex, d: complex) -> bool:
    """Whether every entry of ``U^dagger U - I`` for ``U = [[a, b], [c, d]]``
    is within 1e-9 of zero."""
    gram = (
        abs(a) ** 2 + abs(c) ** 2 - 1,
        a.conjugate() * b + c.conjugate() * d,  # its mirror entry is the conjugate
        abs(b) ** 2 + abs(d) ** 2 - 1,
    )
    return all(abs(x) <= 1e-9 for x in gram)


def _parse_literals(text: str, line: int, col: int) -> tuple[tuple[int, bool], ...]:
    parts = [p.strip() for p in text.split("&")]
    literals = []
    for part in parts:
        m = _RE_LIT.match(part)
        if not m:
            raise QasmSyntaxError(f"bad condition literal {part!r}", line, col)
        literals.append((int(m.group(2)), m.group(1) != "!"))
    return tuple(literals)


def _parse_gate_statement(stmt: str, line: int, col: int, matrices: dict[str, GateKind]):
    m = _RE_PARAM.match(stmt)
    if m:
        name, angle, q = m.group(1), _number(m.group(2), "angle", line, col), int(m.group(3))
        return Gate(GateKind(name, angle=angle), q, source_line=line)
    m = _RE_TWOQ.match(stmt)
    if m:
        name, c, t = m.group(1), int(m.group(2)), int(m.group(3))
        kind = GateKind("x" if name == "cx" else "z")
        return Gate(kind, t, c, source_line=line)
    m = _RE_CP.match(stmt)
    if m:
        angle, c, t = _number(m.group(1), "angle", line, col), int(m.group(2)), int(m.group(3))
        return Gate(GateKind("p", angle=angle), t, c, source_line=line)
    m = _RE_FIXED.match(stmt)
    if m:
        name, q = m.group(1), int(m.group(2))
        if name in _FIXED_GATES:
            return Gate(GateKind(name), q, source_line=line)
        if name in matrices:
            return Gate(matrices[name], q, source_line=line)
        if name in ("measure", "reset") + _PARAM_GATES + _TWO_QUBIT + ("cp",):
            raise QasmSyntaxError(f"malformed statement {stmt!r}", line, col)
        raise QasmSemanticError(
            f"unknown gate {name!r}; opaque gates need a preceding matrix annotation", line, col
        )
    return None


def _register_size(text: str, what: str, line: int, col: int) -> int:
    size = int(text)
    if size > MAX_REGISTER:
        raise QasmSemanticError(f"{what} register of {size} exceeds the limit of {MAX_REGISTER}", line, col)
    return size


def parse(text: str) -> Circuit:
    n_qubits: int | None = None
    n_clbits: int | None = None
    name = ""
    matrices: dict[str, GateKind] = {}
    instructions = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _RE_MATRIX.match(raw.strip())
        if m:
            label, numbers = m.group(1), m.group(2).split()
            if label in _RESERVED:
                raise QasmSemanticError(f"matrix annotation names the built-in {label!r}", lineno)
            if label in matrices:
                raise QasmSemanticError(f"matrix annotation for {label!r} is declared twice", lineno)
            if len(numbers) != 8:
                raise QasmSyntaxError(
                    f"matrix annotation for {label!r} needs 8 numbers", lineno
                )
            vals = [_number(x, "matrix entry", lineno) for x in numbers]
            entries = [complex(vals[i], vals[i + 1]) for i in range(0, 8, 2)]
            if not _unitary(*entries):
                raise QasmSemanticError(f"matrix annotation for {label!r} is not unitary", lineno)
            matrices[label] = opaque_kind(label, entries)
            continue
        m = _RE_NAME.match(raw.strip())
        if m:
            name = m.group(1).strip()
            continue
        code = raw.split("//", 1)[0]
        if not code.strip():
            continue
        if not code.rstrip().endswith(";"):
            raise QasmSyntaxError("statement is not ';'-terminated", lineno)
        end = -1
        for piece in code.split(";"):
            start, end = end + 1, end + 1 + len(piece)
            stmt = piece.strip()
            if not stmt:
                continue
            col = start + len(piece) - len(piece.lstrip()) + 1
            if _RE_HEADER.match(stmt):
                continue  # headers tolerated and ignored on input, never emitted
            m = _RE_QUBIT_DECL.match(stmt)
            if m:
                if m.group(2) != "q":
                    raise QasmSemanticError("the qubit register must be named q", lineno, col)
                if n_qubits is not None:
                    raise QasmSemanticError("the qubit register is declared twice", lineno, col)
                n_qubits = _register_size(m.group(1), "qubit", lineno, col)
                continue
            m = _RE_BIT_DECL.match(stmt)
            if m:
                if m.group(2) != "c":
                    raise QasmSemanticError("the bit register must be named c", lineno, col)
                if n_clbits is not None:
                    raise QasmSemanticError("the bit register is declared twice", lineno, col)
                n_clbits = _register_size(m.group(1), "bit", lineno, col)
                continue
            m = _RE_MEASURE.match(stmt)
            if m:
                instructions.append(
                    Measure(int(m.group(2)), int(m.group(1)), source_line=lineno)
                )
                continue
            m = _RE_RESET.match(stmt)
            if m:
                instructions.append(Reset(int(m.group(1)), source_line=lineno))
                continue
            m = _RE_TOGGLE.match(stmt)
            if m:
                target, source, rhs = int(m.group(1)), int(m.group(2)), m.group(3).strip()
                if target != source:
                    raise QasmSemanticError(
                        "toggles must read and write the same bit", lineno, col
                    )
                if rhs.startswith("(") and rhs.endswith(")"):
                    rhs = rhs[1:-1].strip()
                product = () if rhs == "true" else _parse_literals(rhs, lineno, col)
                instructions.append(ClassicalToggle(target, product, source_line=lineno))
                continue
            m = _RE_IF.match(stmt)
            if m:
                cond_text, inner = m.group(1).strip(), m.group(2).strip()
                literals = () if cond_text == "true" else _parse_literals(cond_text, lineno, col)
                # A reset would otherwise read as a malformed one-qubit gate.
                gate = None if _RE_RESET.match(inner) else _parse_gate_statement(inner, lineno, col, matrices)
                if gate is None:
                    raise QasmUnsupportedError(
                        f"only gate statements may be conditioned, got {inner!r}", lineno, col
                    )
                instructions.append(
                    Gate(gate.kind, gate.target, gate.control, literals, source_line=lineno)
                )
                continue
            gate = _parse_gate_statement(stmt, lineno, col, matrices)
            if gate is not None:
                instructions.append(gate)
                continue
            head = stmt.split("(")[0].split()[0] if stmt else stmt
            if any(stmt.startswith(h) for h in _UNSUPPORTED_HINTS):
                raise QasmUnsupportedError(f"construct {head!r} is outside the subset", lineno, col)
            raise QasmSyntaxError(f"cannot parse statement {stmt!r}", lineno, col)

    if n_qubits is None or n_clbits is None:
        raise QasmSemanticError("missing qubit[...] q; or bit[...] c; declaration")
    circuit = Circuit(n_qubits, n_clbits, tuple(instructions), name)
    errors = violations(circuit)
    if errors:
        i, message = errors[0]
        raise QasmSemanticError(message, instructions[i].source_line)
    return circuit


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _literals_text(literals) -> str:
    return " & ".join(("" if pol else "!") + f"c[{b}]" for b, pol in literals)


def _gate_text(gate: Gate, declared: dict[str, tuple[complex, ...]]) -> str:
    kind, t, c = gate.kind, gate.target, gate.control
    name = _SPELLINGS.get(kind.name, (None, None))[c is not None]
    if name is None:
        if c is not None:
            raise QasmUnsupportedError(f"controlled {kind.label or kind.name} is outside the subset")
        if declared.setdefault(kind.label, kind.matrix) != kind.matrix:
            raise QasmUnsupportedError(f"opaque label {kind.label!r} names two different matrices")
        return f"{kind.label} q[{t}];"
    angle = kind.angle
    if c is None:
        return f"{name} q[{t}];" if angle is None else f"{name}({_fmt(angle)}) q[{t}];"
    return f"{name} q[{c}], q[{t}];" if angle is None else f"{name}({_fmt(angle)}) q[{c}], q[{t}];"


def emit(circuit: Circuit) -> str:
    name = circuit.name
    if "\n" in name or "\r" in name or name != name.strip():
        raise QasmUnsupportedError(f"circuit name {name!r} cannot be serialized")
    declared: dict[str, tuple[complex, ...]] = {}
    body: list[str] = []
    for instr in circuit.instructions:
        if isinstance(instr, Gate):
            text = _gate_text(instr, declared)
            if instr.condition:
                text = f"if ({_literals_text(instr.condition)}) {text}"
            body.append(text)
        elif isinstance(instr, Measure):
            body.append(f"c[{instr.bit}] = measure q[{instr.qubit}];")
        elif isinstance(instr, Reset):
            body.append(f"reset q[{instr.qubit}];")
        else:
            rhs = "true" if not instr.product else f"({_literals_text(instr.product)})"
            body.append(f"c[{instr.target}] = c[{instr.target}] ^ {rhs};")
    lines = [f"// circuit: {name}"] if name else []
    for label, matrix in declared.items():
        if label in _RESERVED or not re.fullmatch(_LABEL, label, re.ASCII):
            raise QasmUnsupportedError(f"opaque label {label!r} cannot be serialized")
        numbers = " ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in matrix)
        lines.append(f"// matrix {label}: {numbers}")
    lines.append(f"qubit[{circuit.n_qubits}] q;")
    lines.append(f"bit[{circuit.n_clbits}] c;")
    lines += body
    return "\n".join(lines) + "\n"
