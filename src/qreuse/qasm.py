"""Text format for dynamic circuits: a small OpenQASM-3 subset.

Grammar (statements are ``;``-terminated, ``//`` starts a comment):

    qubit[n] q;                 bit[m] c;
    h|x|y|z|s|t q[i];           p|rx|rz(angle) q[i];
    cx|cz q[i], q[j];           cp(angle) q[i], q[j];
    c[i] = measure q[j];        reset q[i];
    if (lit & lit & ...) <gate statement>;
    c[k] = c[k] ^ (lit & ...);  c[k] = c[k] ^ true;

where ``lit`` is ``c[i]`` or ``!c[i]`` and angles are decimal literals.
The grammar is ASCII: digits are 0-9 only, and only ASCII whitespace
separates tokens, though any whitespace ``str.strip`` removes is blank
around a statement. Lines end at ``\n``, ``\r\n`` or a lone ``\r``.
Register sizes are at most ``MAX_REGISTER``, so a declaration cannot make
validation allocate without bound, and an index or size has no more digits
than the interpreter reads as an int. Opaque gates are declared by a
``// matrix <label>: re im re im re im re im`` comment (row-major 2x2,
unitary: no entry of ``U^dagger U - I`` above 1e-9) and used as
``<label> q[i];``; a label is declared once and names no built-in gate or
statement. A circuit that breaks an ``ir.violations`` invariant is
rejected at the line of its first offending statement. Emission is
deterministic (fixed ordering, 17-significant-digit floats), so identical
circuits produce byte-identical text.

``parse`` reads a line by one of two routes. A line that holds exactly one
gate, measurement or reset statement, spaced as ``emit`` writes it, is read
with one match of the whole line, opaque labels and over-long indices
included; every other line, and such a line whose match reads as no gate
(``cx q[0];``, an undeclared label, ``include``), is read statement by
statement. Both routes build a gate or reset with ``_Reader.gate`` and give
the same instructions and the same errors, with the same line and column.
"""

from __future__ import annotations

import math
import re

from .ir import FIXED_KINDS, PARAMETRIC, Circuit, ClassicalToggle, Gate, GateKind, Measure, Reset, violations

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

# Gate statement name -> (kind name, whether the statement has a control
# qubit). A statement takes an angle iff its kind does (``ir.PARAMETRIC``).
_STATEMENTS = {
    **{name: (name, False) for name in ("h", "x", "y", "z", "s", "t", "p", "rx", "rz")},
    "cx": ("x", True),
    "cz": ("z", True),
    "cp": ("p", True),
}
# Kind name -> its statement without a control and its statement with one;
# None where the table has no such statement.
_SPELLINGS: dict[str, list[str | None]] = {kind: [None, None] for kind, _ in _STATEMENTS.values()}
for _name, (_kind, _controlled) in _STATEMENTS.items():
    _SPELLINGS[_kind][_controlled] = _name
# Built-in gate and statement names, which no opaque label may take.
_RESERVED = frozenset(_STATEMENTS).union(("measure", "reset", "if", "include", "qubit", "bit"))


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
_LABEL = r"[a-z_][a-z0-9_]*"
# Each statement is read with one pattern, chosen by its first two
# characters. Every gate statement, ``reset`` included, has the shape
# ``name[(angle)] q[i][, q[j]]``, which ``_Reader.gate`` reads.
_RE_GATE = re.compile(rf"({_LABEL})(?:\(({_NUM})\))?\s+q\[(\d+)\](?:\s*,\s*q\[(\d+)\])?", re.ASCII)
_RE_BITS = re.compile(r"c\[(\d+)\]\s*=\s*(?:measure\s+q\[(\d+)\]|c\[(\d+)\]\s*\^\s*(.+))", re.ASCII)
_RE_IF = re.compile(r"if\s*\((.*?)\)\s*(.+)", re.ASCII)
_RE_DECL = re.compile(r"(qubit|bit)\[(\d+)\]\s+(\w+)", re.ASCII)
_RE_HEADER = re.compile(r"(?:OPENQASM|include)\b", re.ASCII)
_RE_LIT = re.compile(r"(!?)c\[(\d+)\]", re.ASCII)
_RE_LABEL = re.compile(_LABEL, re.ASCII)
_RE_MATRIX = re.compile(rf"//\s*matrix\s+({_LABEL})\s*:\s*(.+)", re.ASCII)
_RE_NAME = re.compile(r"//\s*circuit:\s*(.*)", re.ASCII)
# A whole line as ``emit`` writes a measurement, or else a gate or reset
# with ``_RE_GATE``'s four groups.
_RE_LINE = re.compile(
    rf"c\[(\d+)\] = measure q\[(\d+)\];|({_LABEL})(?:\(({_NUM})\))? q\[(\d+)\](?:, q\[(\d+)\])?;", re.ASCII
)

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

_REGISTER_NAMES = {"qubit": "q", "bit": "c"}
# First two characters of the statements that are not gates, or may not be.
_LEADS = frozenset(("c[", "if", "qu", "bi", "OP", "in"))


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _integer(text: str, line: int, col: int) -> int:
    """Every index and register size is read through here."""
    try:
        return int(text)
    except ValueError:  # the patterns admit ASCII digits only: this is the interpreter's digit limit
        raise QasmSemanticError(f"integer of {len(text)} digits is too long to read", line, col) from None


def _number(text: str, what: str, line: int, col: int | None = None) -> float:
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not text.isascii():  # float() also reads non-ASCII digits
        raise QasmSyntaxError(f"{what} {text!r} is not a number", line, col)
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


def _literals(text: str, line: int, col: int) -> tuple[tuple[int, bool], ...]:
    literals = []
    for part in text.split("&"):
        part = part.strip()
        m = _RE_LIT.fullmatch(part)
        if not m:
            raise QasmSyntaxError(f"bad condition literal {part!r}", line, col)
        literals.append((_integer(m[2], line, col), m[1] != "!"))
    return tuple(literals)


def _refuse_lone(m: re.Match, line: int, col: int) -> None:
    """Raise for a ``_RE_GATE`` match of one qubit and no angle that reads as
    no statement: a statement name in another shape, or an undeclared label."""
    name, angle, _, second = m.groups()
    if angle is None and second is None:
        if name in _STATEMENTS or name == "measure":
            raise QasmSyntaxError(f"malformed statement {m.string!r}", line, col)
        raise QasmSemanticError(f"unknown gate {name!r}; opaque gates need a preceding matrix annotation", line, col)


class _Reader:
    """One parse's state: the register sizes declared so far and the kinds
    its gates share: one per kind name without an angle, per ``// matrix``
    label from its declaration on, and per (kind name, angle text), since a
    qft or qpe repeats a few angles over thousands of statements."""

    __slots__ = ("sizes", "kinds")

    def __init__(self) -> None:
        self.sizes: dict[str, int | None] = {"qubit": None, "bit": None}
        self.kinds: dict[str | tuple[str, str], GateKind] = dict(FIXED_KINDS)

    def matrix(self, label: str, numbers: list[str], line: int) -> None:
        if label in _RESERVED:
            raise QasmSemanticError(f"matrix annotation names the built-in {label!r}", line)
        if label in self.kinds:
            raise QasmSemanticError(f"matrix annotation for {label!r} is declared twice", line)
        if len(numbers) != 8:
            raise QasmSyntaxError(f"matrix annotation for {label!r} needs 8 numbers", line)
        vals = [_number(x, "matrix entry", line) for x in numbers]
        entries = [complex(vals[i], vals[i + 1]) for i in range(0, 8, 2)]
        if not _unitary(*entries):
            raise QasmSemanticError(f"matrix annotation for {label!r} is not unitary", line)
        self.kinds[label] = GateKind("u", label=label, matrix=entries)

    def statement(self, stmt: str, line: int, col: int):
        """The instruction a stripped, non-empty statement at ``line`` and
        ``col`` reads as, or None for a declaration or header."""
        lead = stmt[:2]
        if lead in _LEADS:
            if lead == "c[":
                m = _RE_BITS.fullmatch(stmt)
                if m:
                    target, qubit, source, rhs = m.groups()
                    if qubit is not None:
                        return Measure(_integer(qubit, line, col), _integer(target, line, col), line)
                    return self.toggle(_integer(target, line, col), _integer(source, line, col), rhs, line, col)
            elif lead == "if":
                m = _RE_IF.fullmatch(stmt)
                if m:
                    return self.conditioned(m[1].strip(), m[2].strip(), line, col)
            elif lead == "qu" or lead == "bi":
                m = _RE_DECL.fullmatch(stmt)
                if m:
                    self.declare(*m.groups(), line, col)
                    return None
            elif _RE_HEADER.match(stmt):
                return None  # headers tolerated and ignored on input, never emitted
        m = _RE_GATE.fullmatch(stmt)
        if m:
            instr = self.gate(*m.groups(), (), line, col)
            if instr is not None:
                return instr
            _refuse_lone(m, line, col)
        if stmt.startswith(_UNSUPPORTED_HINTS):
            head = stmt.split("(")[0].split()[0]
            raise QasmUnsupportedError(f"construct {head!r} is outside the subset", line, col)
        raise QasmSyntaxError(f"cannot parse statement {stmt!r}", line, col)

    def declare(self, register: str, size: str, name: str, line: int, col: int) -> None:
        if name != _REGISTER_NAMES[register]:
            raise QasmSemanticError(f"the {register} register must be named {_REGISTER_NAMES[register]}", line, col)
        if self.sizes[register] is not None:
            raise QasmSemanticError(f"the {register} register is declared twice", line, col)
        n = _integer(size, line, col)
        if n > MAX_REGISTER:
            raise QasmSemanticError(f"{register} register of {n} exceeds the limit of {MAX_REGISTER}", line, col)
        self.sizes[register] = n

    def toggle(self, target: int, source: int, rhs: str, line: int, col: int) -> ClassicalToggle:
        if target != source:
            raise QasmSemanticError("toggles must read and write the same bit", line, col)
        rhs = rhs.strip()
        if rhs.startswith("(") and rhs.endswith(")"):
            rhs = rhs[1:-1].strip()
        return ClassicalToggle(target, () if rhs == "true" else _literals(rhs, line, col), line)

    def conditioned(self, cond: str, inner: str, line: int, col: int) -> Gate:
        literals = () if cond == "true" else _literals(cond, line, col)
        m = _RE_GATE.fullmatch(inner)
        if m and m[1] != "reset":  # a reset is refused here whatever its index
            gate = self.gate(*m.groups(), literals, line, col)
            if gate is not None:
                return gate
            _refuse_lone(m, line, col)
        raise QasmUnsupportedError(f"only gate statements may be conditioned, got {inner!r}", line, col)

    def gate(
        self, name: str, angle: str | None, first: str, second: str | None, condition: tuple, line: int, col: int
    ) -> Gate | Reset | None:
        """The ``Gate`` of ``name[(angle)] q[first][, q[second]]`` under
        ``condition``, the ``Reset`` of ``reset q[first]``, or None where no
        statement has that shape. Any name outside ``_STATEMENTS`` reads as
        an opaque label: one qubit, no angle."""
        kind_name, controlled = _STATEMENTS.get(name) or (name, False)
        if controlled is (second is None):
            return None  # a statement name in another shape, such as ``cx q[0]``
        if angle is None:
            kind = self.kinds.get(kind_name)
            if kind is None and name == "reset":
                return Reset(_integer(first, line, col), line)
        else:
            kind = self.kinds.get((kind_name, angle)) or self.angled_kind(kind_name, angle, line, col)
        if kind is None:
            return None
        try:
            if second is None:
                return Gate(kind, int(first), None, condition, line)
            return Gate(kind, int(second), int(first), condition, line)
        except ValueError:  # an index past the digit limit: ``_integer`` refuses the first one read
            for text in filter(None, (second, first)):
                _integer(text, line, col)
            raise

    def angled_kind(self, name: str, angle: str, line: int, col: int) -> GateKind | None:
        """Build and remember the kind for a decimal angle text not seen
        before; None if the kind takes no angle."""
        if name not in PARAMETRIC:
            return None
        kind = self.kinds[name, angle] = GateKind(name, angle=_number(angle, "angle", line, col))
        return kind


def parse(text: str) -> Circuit:
    reader = _Reader()
    statement, gate, line_match = reader.statement, reader.gate, _RE_LINE.fullmatch
    name = ""
    instructions = []
    append = instructions.append

    # Lines end at "\n", "\r\n" or a lone "\r", as in an editor.
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        m = line_match(raw)
        if m is not None:
            bit, qubit, op, angle, first, second = m.groups()
            if bit is None:
                instr = gate(op, angle, first, second, (), lineno, 1)
            else:
                try:
                    instr = Measure(int(qubit), int(bit), lineno)
                except ValueError:  # an index past the digit limit, which ``_integer`` refuses
                    instr = Measure(_integer(qubit, lineno, 1), _integer(bit, lineno, 1), lineno)
            if instr is not None:
                append(instr)
                continue
        if "//" in raw:
            stripped = raw.strip()
            if stripped.startswith("//"):
                m = _RE_MATRIX.fullmatch(stripped)
                if m:
                    reader.matrix(m[1], m[2].split(), lineno)
                    continue
                m = _RE_NAME.fullmatch(stripped)
                if m:
                    name = m[1].strip()
                continue
            raw = raw.split("//", 1)[0]
        pieces = raw.split(";")
        if pieces.pop().strip():
            raise QasmSyntaxError("statement is not ';'-terminated", lineno)
        start = 1  # the column of the piece's first character
        for piece in pieces:
            stmt = piece.strip()
            if stmt:
                instr = statement(stmt, lineno, start + len(piece) - len(piece.lstrip()))
                if instr is not None:
                    append(instr)
            start += len(piece) + 1

    n_qubits, n_clbits = reader.sizes["qubit"], reader.sizes["bit"]
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


def _gate_text(gate: Gate, declared: dict[str, tuple[complex, ...]]) -> str:
    """A gate's statement; an opaque gate's matrix is entered in ``declared``
    under its label."""
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
    """Deterministic text for a circuit; ``parse(emit(c))`` reproduces ``c``."""
    name = circuit.name
    # parse reads the name back from one comment line, stripped.
    if "\n" in name or "\r" in name or name != name.strip():
        raise QasmUnsupportedError(f"circuit name {name!r} cannot be serialized")
    declared: dict[str, tuple[complex, ...]] = {}  # opaque label -> matrix, in order of first use
    body: list[str] = []
    append = body.append
    for instr in circuit.instructions:
        if isinstance(instr, Gate):
            text = _gate_text(instr, declared)
            if instr.condition:
                text = f"if ({_literals_text(instr.condition)}) {text}"
            append(text)
        elif isinstance(instr, Measure):
            append(f"c[{instr.bit}] = measure q[{instr.qubit}];")
        elif isinstance(instr, Reset):
            append(f"reset q[{instr.qubit}];")
        else:
            rhs = "true" if not instr.product else f"({_literals_text(instr.product)})"
            append(f"c[{instr.target}] = c[{instr.target}] ^ {rhs};")
    lines = [f"// circuit: {name}"] if name else []
    for label, matrix in declared.items():
        if label in _RESERVED or not _RE_LABEL.fullmatch(label):
            raise QasmUnsupportedError(f"opaque label {label!r} cannot be serialized")
        numbers = " ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in matrix)
        lines.append(f"// matrix {label}: {numbers}")
    lines.append(f"qubit[{circuit.n_qubits}] q;")
    lines.append(f"bit[{circuit.n_clbits}] c;")
    lines += body
    return "\n".join(lines) + "\n"
