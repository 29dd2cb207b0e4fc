"""Text format for dynamic circuits: a small OpenQASM-3 subset.

Grammar (statements are ``;``-terminated, ``//`` starts a comment):

    qubit[n] q;                 bit[m] c;
    h|x|y|z|s|t q[i];           p|rx|rz(angle) q[i];
    cx|cz q[i], q[j];           cp(angle) q[i], q[j];
    c[i] = measure q[j];        reset q[i];
    if (lit & lit & ...) <gate statement>;
    c[k] = c[k] ^ (lit & ...);  c[k] = c[k] ^ true;

where ``lit`` is ``c[i]`` or ``!c[i]`` and angles are decimal literals.
Register sizes are at most ``MAX_REGISTER``, so a declaration cannot make
validation allocate without bound.
Opaque gates are declared by a ``// matrix <label>: re im re im re im re im``
comment (row-major 2x2, unitary: no entry of ``U^dagger U - I`` above 1e-9)
and used as ``<label> q[i];``; a label is declared once and names no
built-in gate or statement. A circuit that breaks an ``ir.violations``
invariant is rejected at the line of its first offending statement. Emission is
deterministic: fixed ordering, 17-significant-digit floats, so identical
circuits produce byte-identical text.
"""

from __future__ import annotations

import math
import re

from .ir import (
    Circuit,
    ClassicalToggle,
    Condition,
    Gate,
    GateKind,
    Measure,
    Reset,
    opaque_kind,
    violations,
)

__all__ = [
    "QasmError",
    "QasmSyntaxError",
    "QasmSemanticError",
    "QasmUnsupportedError",
    "MAX_REGISTER",
    "parse",
    "emit",
]

# Largest qubit or bit register a file may declare; far above every
# generated benchmark (at most a few hundred qubits).
MAX_REGISTER = 1 << 16

_FIXED_GATES = ("h", "x", "y", "z", "s", "t")
_PARAM_GATES = ("p", "rx", "rz")
_TWO_QUBIT = ("cx", "cz")
# Built-in gate and statement names, which no opaque label may take.
_RESERVED = frozenset(
    _FIXED_GATES + _PARAM_GATES + _TWO_QUBIT + ("cp", "measure", "reset", "if", "include", "qubit", "bit")
)


class QasmError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.col = col


class QasmSyntaxError(QasmError):
    pass


class QasmSemanticError(QasmError):
    pass


class QasmUnsupportedError(QasmError):
    pass


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


def _fmt(value: float) -> str:
    return format(value, ".17g")


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
        return Gate(GateKind(name, angle=angle), (q,), (), Condition(), source_line=line)
    m = _RE_TWOQ.match(stmt)
    if m:
        name, c, t = m.group(1), int(m.group(2)), int(m.group(3))
        kind = GateKind("x" if name == "cx" else "z")
        return Gate(kind, (t,), ((c, True),), Condition(), source_line=line)
    m = _RE_CP.match(stmt)
    if m:
        angle, c, t = _number(m.group(1), "angle", line, col), int(m.group(2)), int(m.group(3))
        return Gate(GateKind("p", angle=angle), (t,), ((c, True),), Condition(), source_line=line)
    m = _RE_FIXED.match(stmt)
    if m:
        name, q = m.group(1), int(m.group(2))
        if name in _FIXED_GATES:
            return Gate(GateKind(name), (q,), (), Condition(), source_line=line)
        if name in matrices:
            return Gate(matrices[name], (q,), (), Condition(), source_line=line)
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
                    Gate(gate.kind, gate.targets, gate.controls, Condition(literals), source_line=lineno)
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


def _literals_text(literals) -> str:
    return " & ".join(("" if pol else "!") + f"c[{b}]" for b, pol in literals)


def _gate_text(gate: Gate) -> str:
    kind = gate.kind
    if kind.name == "u":
        if gate.controls:
            raise QasmUnsupportedError("controlled opaque gates cannot be serialized")
        return f"{kind.label} q[{gate.targets[0]}];"
    if gate.controls:
        (c, pol), = gate.controls
        if not pol:
            raise QasmUnsupportedError("negative quantum controls cannot be serialized")
        t = gate.targets[0]
        if kind.name == "x":
            return f"cx q[{c}], q[{t}];"
        if kind.name == "z":
            return f"cz q[{c}], q[{t}];"
        if kind.name == "p":
            return f"cp({_fmt(kind.angle)}) q[{c}], q[{t}];"
        raise QasmUnsupportedError(f"controlled {kind.name} is outside the subset")
    q = gate.targets[0]
    if kind.name in _PARAM_GATES:
        return f"{kind.name}({_fmt(kind.angle)}) q[{q}];"
    return f"{kind.name} q[{q}];"


def emit(circuit: Circuit) -> str:
    """Deterministic text for a circuit; ``parse(emit(c))`` reproduces ``c``."""
    lines: list[str] = []
    if circuit.name:
        lines.append(f"// circuit: {circuit.name}")
    declared: dict[str, tuple[complex, ...]] = {}
    for instr in circuit.instructions:
        if not isinstance(instr, Gate) or instr.kind.name != "u":
            continue
        label, matrix = instr.kind.label, instr.kind.matrix
        if label in declared:
            if declared[label] != matrix:
                raise QasmUnsupportedError(f"opaque label {label!r} names two different matrices")
            continue
        if label in _RESERVED or not re.fullmatch(_LABEL, label):
            raise QasmUnsupportedError(f"opaque label {label!r} cannot be serialized")
        numbers = " ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in matrix)
        lines.append(f"// matrix {label}: {numbers}")
        declared[label] = matrix
    lines.append(f"qubit[{circuit.n_qubits}] q;")
    lines.append(f"bit[{circuit.n_clbits}] c;")
    for instr in circuit.instructions:
        if isinstance(instr, Gate):
            text = _gate_text(instr)
            if not instr.condition.always:
                text = f"if ({_literals_text(instr.condition.literals)}) {text}"
            lines.append(text)
        elif isinstance(instr, Measure):
            lines.append(f"c[{instr.bit}] = measure q[{instr.qubit}];")
        elif isinstance(instr, Reset):
            lines.append(f"reset q[{instr.qubit}];")
        else:
            rhs = "true" if not instr.product else f"({_literals_text(instr.product)})"
            lines.append(f"c[{instr.target}] = c[{instr.target}] ^ {rhs};")
    return "\n".join(lines) + "\n"
