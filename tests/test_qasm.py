import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from qreuse import bench
from qreuse.ir import CircuitBuilder, Condition, Gate, Measure
from qreuse.qasm import (
    MAX_REGISTER,
    QasmSemanticError,
    QasmSyntaxError,
    QasmUnsupportedError,
    emit,
    parse,
)

from conftest import cx_pair, small_random


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
        assert gate.condition == Condition(((0, True),))

    def test_negated_literal_and_conjunction(self):
        text = "qubit[1] q;\nbit[2] c;\nc[0] = measure q[0];\nc[1] = measure q[0];\nif (!c[0] & c[1]) z q[0];\n"
        gate = parse(text).instructions[2]
        assert gate.condition == Condition(((0, False), (1, True)))

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
        assert gate.controls == ((0, True),)
        assert gate.condition == Condition(((0, True),))

    def test_if_true_means_unconditional(self):
        gate = parse("qubit[1] q;\nbit[0] c;\nif (true) x q[0];\n").instructions[0]
        assert gate.condition.always

    def test_syntax_error_has_location(self):
        with pytest.raises(QasmSyntaxError) as err:
            parse("qubit[1] q;\nbit[1] c;\nh q[0\n")
        assert err.value.line == 3

    def test_error_column_is_the_statement_s_own(self):
        # The second h on the line, not the first, is at fault.
        with pytest.raises(QasmSyntaxError) as err:
            parse("qubit[2] q; bit[1] c;\nh q[0]; h q[0] q[1];\n")
        assert (err.value.line, err.value.col) == (2, 9)

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

    def test_negative_quantum_control_rejected(self):
        from qreuse.ir import Circuit, X_KIND

        gate = Gate(X_KIND, (1,), ((0, False),))
        with pytest.raises(QasmUnsupportedError):
            emit(Circuit(2, 0, (gate,)))

    def test_one_label_for_two_matrices_rejected(self):
        b = CircuitBuilder(1, 1)
        b.opaque("u_a", [1, 0, 0, 1], 0).opaque("u_a", [0, 1, 1, 0], 0).measure(0, 0)
        with pytest.raises(QasmUnsupportedError, match="two different matrices"):
            emit(b.build())

    @pytest.mark.parametrize("label", ["h", "U_a"])
    def test_label_that_does_not_parse_back_rejected(self, label):
        c = CircuitBuilder(1, 0).opaque(label, [0, 1, 1, 0], 0).build()
        with pytest.raises(QasmUnsupportedError, match="cannot be serialized"):
            emit(c)

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
