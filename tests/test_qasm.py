import cmath
import functools
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qasm_reference
from qreuse import bench
from qreuse.ir import Circuit, CircuitBuilder, Gate, GateKind, Measure
from qreuse.pipeline import MODES, optimize
from qreuse.qasm import (
    MAX_REGISTER,
    QasmSemanticError,
    QasmSyntaxError,
    QasmUnsupportedError,
    emit,
    parse,
)

from conftest import adversarial, cx_pair, schedule_battery, small_random


CX_PAIR_TEXT = """qubit[2] q;
bit[2] c;
h q[0];
cx q[0], q[1];
c[0] = measure q[0];
c[1] = measure q[1];
"""


class TestParse:
    def test_cx_pair_example(self):
        assert parse(CX_PAIR_TEXT).instructions == cx_pair().instructions

    def test_statements_may_share_a_line(self):
        one_line = (
            "qubit[2] q; bit[2] c; h q[0]; cx q[0], q[1]; "
            "c[0] = measure q[0]; c[1] = measure q[1];"
        )
        assert parse(one_line).instructions == cx_pair().instructions

    def test_empty_declarations(self):
        c = parse("qubit[0] q;\nbit[0] c;\n")
        assert c.n_qubits == 0 and c.n_clbits == 0 and c.instructions == ()

    def test_conditioned_gate(self):
        c = parse("qubit[2] q;\nbit[1] c;\nc[0] = measure q[0];\nif (c[0]) x q[1];\n")
        gate = c.instructions[1]
        assert isinstance(gate, Gate)
        assert gate.condition == ((0, True),)

    def test_negated_literal_and_conjunction(self):
        text = "qubit[1] q;\nbit[2] c;\nc[0] = measure q[0];\nc[1] = measure q[0];\nif (!c[0] & c[1]) z q[0];\n"
        gate = parse(text).instructions[2]
        assert gate.condition == ((0, False), (1, True))

    def test_source_lines_recorded(self):
        c = parse(CX_PAIR_TEXT)
        assert [i.source_line for i in c.instructions] == [3, 4, 5, 6]

    def test_toggle_forms(self):
        text = (
            "qubit[1] q;\nbit[3] c;\n"
            "c[0] = measure q[0];\nc[1] = measure q[0];\nc[2] = measure q[0];\n"
            "c[2] = c[2] ^ (c[0] & !c[1]);\nc[2] = c[2] ^ true;\n"
        )
        c = parse(text)
        assert c.instructions[3].product == ((0, True), (1, False))
        assert c.instructions[4].product == ()

    def test_openqasm_header_tolerated(self):
        c = parse('OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[1] q;\nbit[1] c;\nh q[0];\n')
        assert len(c.instructions) == 1

    def test_conditioned_two_qubit_gate(self):
        text = "qubit[2] q;\nbit[1] c;\nc[0] = measure q[0];\nif (c[0]) cp(0.5) q[0], q[1];\n"
        gate = parse(text).instructions[1]
        assert gate.control == 0
        assert gate.condition == ((0, True),)

    def test_if_true_means_unconditional(self):
        gate = parse("qubit[1] q;\nbit[0] c;\nif (true) x q[0];\n").instructions[0]
        assert gate.condition == ()

    def test_syntax_error_has_location(self):
        with pytest.raises(QasmSyntaxError) as err:
            parse("qubit[1] q;\nbit[1] c;\nh q[0\n")
        assert err.value.line == 3

    def test_error_column_is_the_statement_s_own(self):
        # The second h on the line, not the first, is at fault.
        with pytest.raises(QasmSyntaxError) as err:
            parse("qubit[2] q; bit[1] c;\nh q[0]; h q[0] q[1];\n")
        assert (err.value.line, err.value.col) == (2, 9)

    def test_unicode_whitespace_only_at_a_statement_s_edges(self):
        # Any whitespace str.strip removes may surround a statement; between
        # its tokens only ASCII whitespace separates.
        for text in ("h q[0];\u00a0", "\u3000h q[0];"):
            assert parse(f"qubit[1] q;\nbit[0] c;\n{text}\n").instructions[0].target == 0
        with pytest.raises(QasmSyntaxError) as err:
            parse("qubit[1] q;\nbit[0] c;\nh\u00a0q[0];\n")
        assert (err.value.line, err.value.col) == (3, 1)

    @pytest.mark.parametrize(
        "stmt,error",
        [
            ("mystery q[0];", QasmSemanticError),
            ("p(1e999) q[0];", QasmSemanticError),
            ("if (c[0] & zz) h q[0];", QasmSyntaxError),
        ],
        ids=["unknown gate", "non-finite angle", "bad literal"],
    )
    def test_statement_errors_have_a_column(self, stmt, error):
        text = f"qubit[1] q;\nbit[1] c;\nc[0] = measure q[0];  {stmt}\n"
        with pytest.raises(error) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (3, 23)

    def test_undeclared_index_is_semantic_error(self):
        with pytest.raises(QasmSemanticError):
            parse("qubit[1] q;\nbit[1] c;\nh q[5];\n")

    def test_unknown_gate(self):
        with pytest.raises(QasmSemanticError):
            parse("qubit[1] q;\nbit[1] c;\nmystery q[0];\n")

    def test_unsupported_construct(self):
        with pytest.raises(QasmUnsupportedError):
            parse("qubit[2] q;\nbit[1] c;\nswap q[0], q[1];\n")

    def test_opaque_requires_annotation(self):
        with pytest.raises(QasmSemanticError):
            parse("qubit[1] q;\nbit[0] c;\nu_thing q[0];\n")

    def test_opaque_with_annotation(self):
        text = (
            "// matrix u_s: 1 0 0 0 0 0 0 1\n"
            "qubit[1] q;\nbit[0] c;\nu_s q[0];\n"
        )
        gate = parse(text).instructions[0]
        assert gate.kind.name == "u"
        assert gate.kind.matrix == (1 + 0j, 0j, 0j, 1j)

    def test_missing_declarations(self):
        with pytest.raises(QasmSemanticError):
            parse("h q[0];\n")

    @pytest.mark.parametrize("stmt", ["p(1e999) q[0];", "cp(-1e400) q[0], q[1];"])
    def test_non_finite_angle_rejected(self, stmt):
        # An infinite angle would emit as "inf", which does not parse again.
        with pytest.raises(QasmSemanticError) as err:
            parse(f"qubit[2] q;\nbit[0] c;\n{stmt}\n")
        assert err.value.line == 3

    def test_non_numeric_matrix_entry_is_a_syntax_error(self):
        text = "qubit[1] q;\nbit[0] c;\n// matrix u_a: 1 0 0 0 0 0 abc 1\nu_a q[0];\n"
        with pytest.raises(QasmSyntaxError, match="abc") as err:
            parse(text)
        assert err.value.line == 3

    @pytest.mark.parametrize("entry", ["nan", "inf", "-1e999"])
    def test_non_finite_matrix_entry_rejected(self, entry):
        # A nan entry never compares equal, so parse(emit(c)) == c would fail.
        text = f"qubit[1] q;\nbit[0] c;\n// matrix u_a: 1 0 0 0 0 0 {entry} 1\nu_a q[0];\n"
        with pytest.raises(QasmSemanticError, match="not finite") as err:
            parse(text)
        assert err.value.line == 3

    @pytest.mark.parametrize("numbers", ["2 0 0 0 0 0 2 0", "0 0 0 0 0 0 0 0"], ids=["2I", "zero"])
    def test_non_unitary_matrix_rejected(self, numbers):
        # Simulating these gave {"0": 4.0} for 2I and {} for the zero matrix.
        text = f"qubit[1] q;\nbit[1] c;\n// matrix u_a: {numbers}\nu_a q[0];\nc[0] = measure q[0];\n"
        with pytest.raises(QasmSemanticError, match="not unitary") as err:
            parse(text)
        assert err.value.line == 3

    def test_validation_error_names_the_line(self):
        text = "qubit[1] q;\nbit[2] c;\nif (c[5]) x q[0];\n"
        with pytest.raises(QasmSemanticError, match=r"clbit 5 out of range in condition \(line 3\)") as err:
            parse(text)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "text,line",
        [
            ("qubit[1] q;\nqubit[3] q;\nbit[0] c;\n", 2),
            ("qubit[1] q;\nbit[1] c;\nbit[2] c;\n", 3),
        ],
    )
    def test_repeated_declaration_rejected(self, text, line):
        with pytest.raises(QasmSemanticError, match="declared twice") as err:
            parse(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text,line",
        [
            (f"qubit[{MAX_REGISTER + 1}] q;\nbit[1] c;\n", 1),
            (f"qubit[1] q;\n\nbit[{MAX_REGISTER + 1}] c;\n", 3),
        ],
    )
    def test_register_above_limit_rejected(self, text, line):
        with pytest.raises(QasmSemanticError, match="exceeds the limit") as err:
            parse(text)
        assert err.value.line == line

    def test_register_at_limit_accepted(self):
        assert parse(f"qubit[1] q;\nbit[{MAX_REGISTER}] c;\n").n_clbits == MAX_REGISTER

    def test_redeclared_matrix_label_is_rejected(self):
        # The second matrix used to replace the first for every use, while
        # emit wrote only the first: the input gives {"1": 1.0}, the emitted
        # file {"0": 1.0}.
        text = (
            "qubit[1] q;\nbit[1] c;\n"
            "// matrix u_a: 1 0 0 0 0 0 1 0\nu_a q[0];\n"
            "// matrix u_a: 0 0 1 0 1 0 0 0\nu_a q[0];\n"
            "c[0] = measure q[0];\n"
        )
        with pytest.raises(QasmSemanticError, match="declared twice") as err:
            parse(text)
        assert err.value.line == 5

    @pytest.mark.parametrize("label", ["h", "reset", "cp", "measure"])
    def test_matrix_annotation_for_a_built_in_is_rejected(self, label):
        text = f"qubit[1] q;\nbit[1] c;\n// matrix {label}: 0 0 1 0 1 0 0 0\nh q[0];\n"
        with pytest.raises(QasmSemanticError, match="built-in") as err:
            parse(text)
        assert err.value.line == 3

    def test_label_starting_with_include_is_a_gate(self):
        # Only a whole "include" word starts a header line.
        text = "qubit[1] q;\nbit[0] c;\n// matrix include_a: 0 0 1 0 1 0 0 0\ninclude_a q[0];\n"
        assert parse(text).instructions[0].kind.label == "include_a"

    def test_conditioned_reset_is_unsupported(self):
        text = "qubit[1] q;\nbit[1] c;\nc[0] = measure q[0];\nif (c[0]) reset q[0];\n"
        with pytest.raises(QasmUnsupportedError, match="only gate statements may be conditioned") as err:
            parse(text)
        assert err.value.line == 4


class TestEmit:
    def test_reset_between_computations(self):
        b = CircuitBuilder(1, 2)
        b.h(0).measure(0, 0).reset(0).measure(0, 1).toggle(1, ((0, True),))
        text = emit(b.build())
        assert "reset q[0];" in text
        assert text.index("c[0] = measure") < text.index("reset") < text.index("c[1] = measure")
        assert "c[1] = c[1] ^ (c[0]);" in text

    def test_y_gate_passes_through(self):
        text = emit(CircuitBuilder(1, 0).y(0).build())
        assert "y q[0];" in text

    def test_float_formatting_is_stable(self):
        c = CircuitBuilder(2, 0).cp(-math.pi / 2, 0, 1).build()
        assert "cp(-1.5707963267948966) q[0], q[1];" in emit(c)

    def test_deterministic(self):
        c = bench.gen_qft(4)
        assert emit(c) == emit(c)

    def test_one_label_for_two_matrices_rejected(self):
        b = CircuitBuilder(1, 1)
        b.opaque("u_a", [1, 0, 0, 1], 0).opaque("u_a", [0, 1, 1, 0], 0).measure(0, 0)
        with pytest.raises(QasmUnsupportedError, match="two different matrices"):
            emit(b.build())

    @pytest.mark.parametrize(
        "add",
        [
            lambda b: b.opaque("u_a", [0, 1, 1, 0], 1, control=0),
            lambda b: b.h(1, control=0),
            lambda b: b.rx(0.5, 1, control=0),
        ],
        ids=["opaque", "h", "rx"],
    )
    def test_controlled_gate_without_a_statement_rejected(self, add):
        # Only x, z and p have a controlled statement (cx, cz, cp).
        b = CircuitBuilder(2, 0)
        add(b)
        with pytest.raises(QasmUnsupportedError, match="controlled"):
            emit(b.build())

    def test_label_used_twice_is_declared_once(self):
        b = CircuitBuilder(2, 2)
        b.opaque("u_a", [0, 1, 1, 0], 0).opaque("u_a", [0, 1, 1, 0], 1).measure(0, 0).measure(1, 1)
        c = b.build()
        text = emit(c)
        assert text.count("// matrix") == 1
        assert parse(text) == c

    @pytest.mark.parametrize("label", ["h", "U_a"])
    def test_label_that_does_not_parse_back_rejected(self, label):
        c = CircuitBuilder(1, 0).opaque(label, [0, 1, 1, 0], 0).build()
        with pytest.raises(QasmUnsupportedError, match="cannot be serialized"):
            emit(c)

    @pytest.mark.parametrize(
        "name",
        ["demo\nh q[0];", "demo\rh q[0];", " demo", "demo "],
        ids=["newline", "carriage-return", "leading-space", "trailing-space"],
    )
    def test_name_that_does_not_parse_back_rejected(self, name):
        # The name sits on one comment line, which parse reads back stripped:
        # a line break would start a statement, outer whitespace would be lost.
        with pytest.raises(QasmUnsupportedError, match="cannot be serialized"):
            emit(Circuit(1, 0, (), name))

    def test_parsed_name_round_trips(self):
        c = parse("//  circuit:  qft 8 (v2) // proposed \nqubit[1] q;\nbit[0] c;\nh q[0];\n")
        assert c.name == "qft 8 (v2) // proposed"
        assert parse(emit(c)) == c

    def test_qpe_roundtrip_is_identity(self):
        c = bench.gen_qpe(4, 2 * math.pi * 3 / 8)
        assert parse(emit(c)) == c

    def test_opaque_roundtrip(self):
        # A generic unitary's entries, rounded to 17 digits, must still pass
        # the unitarity check.
        cos, sin = math.cos(1.234), math.sin(1.234)
        phi, psi = cmath.exp(0.7j), cmath.exp(-2.1j)
        b = CircuitBuilder(1, 1)
        b.opaque("u_q", [1, 0, 0, complex(0.6, 0.8)], 0)
        b.opaque("u_g", [cos, -sin * phi, sin * psi, cos * phi * psi], 0).measure(0, 0)
        c = b.build()
        again = parse(emit(c))
        assert again.instructions == c.instructions
        assert emit(again) == emit(c)

    def test_opaque_matrix_given_as_a_list_roundtrips(self):
        # The kind stores any sequence of 4 entries as a tuple of complex
        # numbers, which is what ``parse`` builds.
        c = Circuit(1, 1, (Gate(GateKind("u", label="u_a", matrix=[0, 1, 1, 0]), 0), Measure(0, 0)))
        assert parse(emit(c)) == c
        assert len({c.instructions[0].kind, parse(emit(c)).instructions[0].kind}) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_roundtrip_identity_on_random_circuits(seed):
    c = small_random(seed)
    text = emit(c)
    again = parse(text)
    assert again == c
    assert emit(again) == text


def test_roundtrip_through_pipeline_output():
    # Pipeline outputs exercise conditions, toggles, and resets all at once.
    from qreuse import pipeline

    c, _ = pipeline.optimize(bench.gen_qft(5))
    assert parse(emit(c)) == c



# str.splitlines() breaks at all of these; only "\n", "\r\n" and "\r" end a line.
SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SEPARATOR_IDS = [f"U+{ord(s):04X}" for s in SEPARATORS]


def in_comment(sep: str) -> str:
    return f"qubit[1] q; // note{sep}more\nbit[1] c;\nh q[0];\n"


class TestLineEnds:
    @pytest.mark.parametrize("sep", SEPARATORS, ids=SEPARATOR_IDS)
    def test_separator_inside_a_comment_stays_in_the_comment(self, sep):
        # Its tail used to become a statement: "statement is not
        # ';'-terminated (line 2)", and every later line was one off.
        assert [i.source_line for i in parse(in_comment(sep)).instructions] == [3]
        with pytest.raises(QasmSemanticError) as err:
            parse(in_comment(sep).replace("h q[0]", "h q[5]"))
        assert err.value.line == 3

    @pytest.mark.parametrize("sep", SEPARATORS, ids=SEPARATOR_IDS)
    def test_separator_between_statements_is_blank(self, sep):
        c = parse(f"qubit[1] q;{sep}bit[1] c;{sep}h q[0];{sep}\nx q[0];\n")
        assert [i.source_line for i in c.instructions] == [1, 2]

    def test_crlf_reads_as_lf(self):
        crlf = CX_PAIR_TEXT.replace("\n", "\r\n")
        c = parse(crlf)
        assert c == parse(CX_PAIR_TEXT)
        assert [i.source_line for i in c.instructions] == [3, 4, 5, 6]
        with pytest.raises(QasmSyntaxError) as err:
            parse(crlf.replace("h q[0];", "h q[0]"))
        assert err.value.line == 3

    def test_lone_cr_ends_a_line(self):
        # As in an editor: a comment stops at the "\r" and the measurement
        # after it is kept.
        cr = "qubit[1] q;\rbit[1] c;\rx q[0]; // flip\rc[0] = measure q[0];\r"
        c = parse(cr)
        assert c == parse(cr.replace("\r", "\n")) and len(c.instructions) == 2
        assert [i.source_line for i in c.instructions] == [3, 4]
        assert outcome(parse, cr) == outcome(qasm_reference.parse, cr)


LONG = "9" * 5000
# Statements on line 3 whose integer has 5,000 digits, with their column.
OVER_LONG = {
    "qubit index": (f"x q[{LONG}];", 1),
    "measured bit": (f"c[{LONG}] = measure q[0];", 1),
    "condition literal": (f"if (c[{LONG}]) x q[0];", 1),
    "toggle": (f"c[{LONG}] = c[{LONG}] ^ true;", 1),
    "register size": (f"h q[0]; qubit[{LONG}] q;", 9),
}


def over_long(stmt: str) -> str:
    return f"bit[1] c;\nc[0] = measure q[0];\n{stmt}\nqubit[1] q;\n"


class TestIntegers:
    @pytest.mark.parametrize("stmt,col", OVER_LONG.values(), ids=OVER_LONG.keys())
    def test_over_long_integer_is_a_semantic_error(self, stmt, col):
        # Python's int() refuses more than 4,300 digits with a bare ValueError.
        with pytest.raises(QasmSemanticError, match="integer of 5000 digits is too long to read") as err:
            parse(over_long(stmt))
        assert (err.value.line, err.value.col) == (3, col)

    def test_leading_zeros_read_as_the_number(self):
        c = parse("qubit[02] q;\nbit[1] c;\nx q[00];\nc[000] = measure q[01];\n")
        assert c.n_qubits == 2
        assert c.instructions[0].target == 0 and c.instructions[1] == Measure(1, 0)

    def test_digit_limit_counts_leading_zeros(self):
        index = "0" * 4299 + "1"
        assert parse(f"qubit[2] q;\nbit[0] c;\nx q[{index}];\n").instructions[0].target == 1
        with pytest.raises(QasmSemanticError, match="4301 digits"):
            parse(f"qubit[2] q;\nbit[0] c;\nx q[0{index}];\n")

    def test_the_interpreter_s_limit_is_the_limit(self):
        # Under a lower limit, 1,000 digits are too many as well.
        code = (
            "from qreuse.qasm import QasmSemanticError, parse\n"
            "try:\n"
            "    parse('qubit[1] q;\\nbit[0] c;\\nx q[' + '9' * 1000 + '];\\n')\n"
            "except QasmSemanticError as err:\n"
            "    print(err)\n"
        )
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "integer of 1000 digits is too long to read (line 3, col 1)\n", out.stderr


# Inputs with a fullwidth digit, and the line it is on.
NON_ASCII = {
    "register size": ("qubit[\uff12] q;\nbit[0] c;\n", 1),
    "index": ("qubit[2] q;\nbit[0] c;\nh q[\uff11];\n", 3),
    "angle": ("qubit[2] q;\nbit[0] c;\np(\uff11.5) q[0];\n", 3),
    "matrix entry": ("qubit[2] q;\nbit[0] c;\n// matrix u_a: \uff11 0 0 0 0 0 1 0\nu_a q[0];\n", 3),
}


@pytest.mark.parametrize("text,line", NON_ASCII.values(), ids=NON_ASCII.keys())
def test_non_ascii_digits_are_rejected(text, line):
    # "qubit[\uff12] q;" (a fullwidth two) used to declare two qubits
    # and emit as "qubit[2] q;".
    with pytest.raises(QasmSyntaxError) as err:
        parse(text)
    assert err.value.line == line


def test_gate_kinds_and_the_unconditional_condition_are_shared():
    c = parse(emit(bench.gen_qft(64)))
    gates = [i for i in c.instructions if isinstance(i, Gate)]
    objects: dict[tuple, set[int]] = {}
    for g in gates:
        objects.setdefault((g.kind.name, g.kind.angle), set()).add(id(g.kind))
    assert len(objects) > 60 and all(len(ids) == 1 for ids in objects.values())
    assert len({id(g.condition) for g in gates if not g.condition}) == 1


def test_statements_of_one_kind_share_it():
    c = parse("qubit[2] q;\nbit[0] c;\ncp(0.5) q[0], q[1];\np(0.5) q[1];\ncx q[0], q[1];\nx q[0];\n")
    cp, p, cx, x = (g.kind for g in c.instructions)
    assert cp is p and cx is x


# -- Differential test against the regex-cascade parser (qasm_reference) --

def outcome(read, text: str):
    """What ``read`` makes of ``text``: the circuit, its name and source
    lines, or the error's class, message, line and column."""
    try:
        c = read(text)
    except Exception as exc:  # the reference may raise anything
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return c, c.name, [i.source_line for i in c.instructions]


# Unusual spellings the grammar accepts.
ODD_ACCEPTED = [
    "qubit[2] q; bit[2] c; c[1]=measure q[0]; c[1] =c[1]^ true;; ;",
    'OPENQASM 3.0;\ninclude "stdgates.inc";\ninclude q[0];\nqubit[2]\tq;\nbit[1]   c ;\n',
    "qubit[2] q;\nbit[2] c;\nx\tq[0];\ncp(+.5e-3) q[0],q[1];\nrz(-2.) q[1] ;\np(1E+2) q[0];\n",
    "qubit[2] q;\nbit[2] c;\nc[0] = measure q[0];\nif(c[0])x q[1];\nif (true) h q[0];\nif ( !c[0] ) cz q[1] ,q[0];\n",
    "qubit[2] q;\nbit[2] c;\nc[0] = measure q[0];  c[1] = measure q[1];  c[1] = c[1] ^ (!c[0]);  // done\n",
    "// circuit:   named  \n// matrix u_a :  0 0 1 0 1 0 0 0 \nqubit[1] q;\nbit[0] c;\nu_a q[0];\n// comment; h q[0]\n",
    # Lines near the shape that parse reads with one match.
    "qubit[2] q;\nbit[2] c;\nOPENQASM q[0];\nh q[0];;\nreset q[0];\nh q[0];\u00a0\n",
]


def accepted_texts():
    yield from ODD_ACCEPTED
    families = [
        bench.gen_qpe(n, 2 * math.pi * 3 / 8) for n in (8, 32)
    ] + [bench.gen_qft(n) for n in (8, 32)] + [bench.gen_vqe(n, s) for n in (8, 32) for s in bench.STRATEGIES]
    for c in [*schedule_battery(), *families]:
        yield emit(c)
        for mode in MODES:
            yield emit(optimize(c, mode)[0])


def statement_error(stmt: str) -> str:
    return f"qubit[2] q;\nbit[2] c;\nc[0] = measure q[0];\n{stmt}\n"


# Every malformed input of the tests above that the reference reads the
# same way, and more statements on the error paths of each leading token.
MALFORMED = [
    "qubit[1] q;\nbit[1] c;\nh q[0\n",
    "qubit[2] q; bit[1] c;\nh q[0]; h q[0] q[1];\n",
    "qubit[1] q;\nbit[1] c;\nc[0] = measure q[0];  mystery q[0];\n",
    "qubit[1] q;\nbit[1] c;\nc[0] = measure q[0];  p(1e999) q[0];\n",
    "qubit[1] q;\nbit[1] c;\nc[0] = measure q[0];  if (c[0] & zz) h q[0];\n",
    "qubit[1] q;\nbit[1] c;\nh q[5];\n",
    "qubit[2] q;\nbit[1] c;\nswap q[0], q[1];\n",
    "qubit[1] q;\nbit[0] c;\nu_thing q[0];\n",
    "h q[0];\n",
    "qubit[2] q;\nbit[0] c;\ncp(-1e400) q[0], q[1];\n",
    "qubit[1] q;\nbit[0] c;\n// matrix u_a: 1 0 0 0 0 0 abc 1\nu_a q[0];\n",
    *(f"qubit[1] q;\nbit[0] c;\n// matrix u_a: 1 0 0 0 0 0 {e} 1\nu_a q[0];\n" for e in ("nan", "inf", "-1e999")),
    *(f"qubit[1] q;\nbit[1] c;\n// matrix u_a: {m}\nu_a q[0];\n" for m in ("2 0 0 0 0 0 2 0", "0 " * 8)),
    "qubit[1] q;\nbit[1] c;\n// matrix u_a: 1 0 0 0 0 0 1\nu_a q[0];\n",
    "qubit[1] q;\nbit[2] c;\nif (c[5]) x q[0];\n",
    "qubit[1] q;\nqubit[3] q;\nbit[0] c;\n",
    "qubit[1] q;\nbit[1] c;\nbit[2] c;\n",
    f"qubit[{MAX_REGISTER + 1}] q;\nbit[1] c;\n",
    f"qubit[1] q;\n\nbit[{MAX_REGISTER + 1}] c;\n",
    "qubit[1] q;\nbit[1] c;\n// matrix u_a: 1 0 0 0 0 0 1 0\nu_a q[0];\n// matrix u_a: 0 0 1 0 1 0 0 0\n",
    *(f"qubit[1] q;\nbit[1] c;\n// matrix {label}: 0 0 1 0 1 0 0 0\nh q[0];\n" for label in ("h", "reset", "cp", "measure")),
    "qubit[1] q;\nbit[1] c;\nc[0] = measure q[0];\nif (c[0]) reset q[0];\n",
    "qubit[2] q;\nbit[1] c;\nwobble q[0];\n",
    "qubit[2] r;\nbit[1] c;\n",
    "qubit[2] q;\nbit[1] d;\n",
    *(
        statement_error(stmt)
        for stmt in (
            "cx q[0];", "cz q[0], q[1], q[1];", "p q[0];", "rx q[0];", "measure q[0];", "h(0.5) q[0];",
            "cp q[0], q[1];", "cp(0.5) q[0];", "cx(0.5) q[0], q[1];", "p(0.5) q[0], q[1];", "p() q[0];",
            "p(1.2.3) q[0];", "p(0.5)) q[0];", "reset(0.5) q[0];", "reset q[0], q[1];", "h q[0], q[1];",
            "h q0;", "H q[0];", "c[0] = measure q;", "c[0] = measure;", "c[1] = c[0] ^ true;",
            "c[1] = c[1] ^ c[0] &;", "c[1] = c[1] ^ (c[0]) & c[1];", "c[1] = c[1] ^ ();", "c[0] == measure q[0];",
            "if (c[0]) c[1] = measure q[0];", "if (c[0]) if (c[0]) x q[0];", "if (c[0])", "if (c[0]) ;",
            "if (true) reset q[0];", "if c[0] x q[0];", "if (c[0] & ) x q[0];", "ifx q[0];", "if(0.5) q[0];",
            "qubit[2] q;", "qubit [2] q;", "bit[2]c;", "bits q[0];", "quux q[0];",
            "includes q[0];", "OPENQASMx 3;", "inv q[0];", "gate foo q { h q; }", "barrier q[0];",
            "for i in [0:1] { h q[0]; }", "delay[10ns] q[0];", "gphase(0.5);", "ccx q[0], q[1], q[2];",
            "u_b q[0];", "_ q[0];", "x  q [0];", "x q[-1];", "x q[+1];",
            # Near the shape that parse reads with one match.
            "p(1;2) q[0];", "p(1//2) q[0];", "p(inf) q[0];", "cx q[1], q[1];", "c[1] = measure q[7];",
            # An angle already read in another shape.
            "cp(0.5) q[0], q[1]; cp(0.5) q[0];", "p(0.5) q[0]; p(0.5) q[0], q[1];", "rx(1) q[0]; cp(1) q[0];",
        )
    ),
]


@pytest.mark.parametrize("half", ["accepted", "errors"])
def test_parse_matches_reference(half):
    texts = accepted_texts() if half == "accepted" else MALFORMED
    for text in texts:
        new = outcome(parse, text)
        assert new == outcome(qasm_reference.parse, text), text[-300:]
        assert isinstance(new[0], Circuit) == (half == "accepted"), text[-300:]


# Inputs read differently from the reference on purpose, each with what
# parse now makes of it: the four boundary fixes, and a statement starting
# with "(", on which the reference raised a bare IndexError.
CHANGED = {
    **{f"separator {name}": (in_comment(sep), Circuit) for sep, name in zip(SEPARATORS, SEPARATOR_IDS)},
    **{f"over-long {name}": (over_long(stmt), QasmSemanticError) for name, (stmt, _) in OVER_LONG.items()},
    **{f"non-ASCII {name}": (text, QasmSyntaxError) for name, (text, _) in NON_ASCII.items()},
    "leading paren": ("qubit[1] q;\nbit[0] c;\n(h q[0];\n", QasmSyntaxError),
}


@pytest.mark.parametrize("text,now", CHANGED.values(), ids=CHANGED.keys())
def test_parse_differs_from_reference_only_where_fixed(text, now):
    new = outcome(parse, text)
    assert new != outcome(qasm_reference.parse, text)
    assert isinstance(new[0], now) if now is Circuit else new[0] is now


def test_statement_starting_with_a_paren_is_a_syntax_error():
    # The reference raised a bare IndexError while naming the construct.
    with pytest.raises(QasmSyntaxError, match=r"cannot parse statement '\(h q\[0\]'") as err:
        parse("qubit[1] q;\nbit[0] c;\nh q[0]; (h q[0];\n")
    assert (err.value.line, err.value.col) == (3, 9)


# Printable ASCII, tab and newline: the characters the fixes above leave
# alone.
EDIT_ALPHABET = [chr(c) for c in range(32, 127)] + ["\t", "\n"]


@functools.cache
def edit_pool() -> list[str]:
    circuits = [adversarial(seed) for seed in range(24)] + [small_random(seed) for seed in range(24)]
    circuits += [bench.gen_qft(4), bench.gen_vqe(4, "full")]
    return [emit(c) for c in circuits] + [emit(optimize(c, mode)[0]) for c in circuits[::4] for mode in MODES]


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_parse_matches_reference_on_edited_files(data):
    text = data.draw(st.sampled_from(edit_pool()))
    i = data.draw(st.integers(0, len(text)))
    if i < len(text) and data.draw(st.booleans()):
        edited = text[:i] + text[i + 1:]
    else:
        edited = text[:i] + data.draw(st.sampled_from(EDIT_ALPHABET)) + text[i:]
    new, old = outcome(parse, edited), outcome(qasm_reference.parse, edited)
    if old[0] is IndexError:  # a statement starting with "(", listed in CHANGED
        assert new[0] is QasmSyntaxError and new[1].startswith("cannot parse statement '(")
    else:
        assert new == old


# -- Differential test against the per-statement writer (qasm_reference) --

def written(write, circuit):
    """The text ``write`` makes of ``circuit``, or its error's class and message."""
    try:
        return write(circuit)
    except QasmUnsupportedError as exc:
        return type(exc), str(exc)


def writer_inputs():
    """The seeded batteries and the paper's families at n <= 64, each as
    generated and as compiled in both modes."""
    families = [bench.gen_qft(n) for n in (8, 32, 64)]
    families += [bench.gen_qpe(n, 2 * math.pi * 3 / 8, single_p) for n in (8, 32, 64) for single_p in (False, True)]
    families += [bench.gen_vqe(n, s) for n in (8, 32) for s in bench.STRATEGIES] + [bench.gen_vqe(64, "full")]
    for c in (*schedule_battery(), *families):
        yield c
        for mode in MODES:
            yield optimize(c, mode)[0]


def test_emit_matches_reference():
    for c in writer_inputs():
        assert emit(c) == qasm_reference.emit(c), c.name


def shared_kinds() -> Circuit:
    """``p`` and ``cp`` on one kind object, one condition tuple on many gates,
    equal but distinct condition tuples, toggles and opaque kinds."""
    b = CircuitBuilder(3, 3, name="shared")
    b.h(0).measure(0, 0).measure(1, 1)
    cond = ((0, True), (1, False))
    for q in range(3):
        b.p(0.5, q, condition=cond).cp(0.5, q, (q + 1) % 3, condition=cond)
        b.cp(0.5, (q + 1) % 3, q, condition=((0, True), (1, False))).p(-0.0, q).cp(0.0, q, (q + 2) % 3)
        b.rz(0.25, q, condition=((1, True),)).x(q, condition=((1, True),)).cx(q, (q + 1) % 3, condition=cond)
    b.opaque("u_a", [0, 1, 1, 0], 2).opaque("u_b", [1, 0, 0, 1j], 1, condition=cond).opaque("u_a", [0, 1, 1, 0], 0)
    b.measure(2, 2).toggle(2, cond).toggle(2).toggle(2, ((1, True),))
    return b.build()


def test_emit_matches_reference_on_shared_kinds_and_conditions():
    c = shared_kinds()
    halves = [g for g in c.instructions if isinstance(g, Gate) and g.kind.name == "p" and g.kind.angle == 0.5]
    assert len({id(g.kind) for g in halves}) == 1 and {g.control is None for g in halves} == {True, False}
    text = emit(c)
    assert text == qasm_reference.emit(c)
    assert "if (c[0] & !c[1]) p(0.5) q[0];\nif (c[0] & !c[1]) cp(0.5) q[0], q[1];" in text
    assert parse(text) == c


@pytest.mark.parametrize(
    "add,message",
    [
        (lambda b: b.opaque("u_a", [0, 1, 1, 0], 1).opaque("u_a", [0, 1, 1, 0], 1, control=0), "controlled u_a"),
        (lambda b: b.p(0.5, 0).cp(0.5, 0, 1).h(0).h(1, control=0), "controlled h"),
        (lambda b: b.opaque("u_a", [0, 1, 1, 0], 0).opaque("u_a", [0, 1, 1, 0], 1).opaque("u_a", [1, 0, 0, 1], 0),
         "two different matrices"),
    ],
    ids=["controlled opaque after its plain use", "controlled h", "one label, two matrices"],
)
def test_emit_refuses_as_the_reference_does(add, message):
    b = CircuitBuilder(2, 0)
    add(b)
    b.x(1)
    c = b.build()
    refused = written(emit, c)
    assert refused == written(qasm_reference.emit, c)
    assert refused[0] is QasmUnsupportedError and message in refused[1]
