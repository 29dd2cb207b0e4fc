import dataclasses
import math
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qreuse import bench, commute, ir, oracle, reuse, transform
from qreuse.ir import (
    Chain,
    Circuit,
    CircuitBuilder,
    ClassicalToggle,
    Dependencies,
    Gate,
    GateKind,
    Measure,
    Reset,
    X_KIND,
    Z_KIND,
    depth,
    is_diagonal,
    opaque_kind,
    two_qubit_gate_count,
    validate,
    violations,
)

import facts_reference
from facts_reference import cone_by_search
from conftest import adversarial, cx_pair, schedule_battery, small_random, wide_battery


class TestValidate:
    def test_iterative_phase_estimation_circuit_is_valid(self):
        # Two-qubit iterative form: single counting qubit, reset between digits.
        theta = 2 * math.pi * 3 / 8
        b = CircuitBuilder(2, 3)
        b.x(1)
        b.h(0).cp(theta * 4, 0, 1).h(0).measure(0, 2)
        b.reset(0)
        b.h(0).cp(theta * 2, 0, 1)
        b.p(-math.pi / 2, 0, condition=((2, True),)).h(0).measure(0, 1)
        b.reset(0)
        b.h(0).cp(theta, 0, 1)
        b.p(-math.pi / 2, 0, condition=((1, True),))
        b.p(-math.pi / 4, 0, condition=((2, True),)).h(0).measure(0, 0)
        assert validate(b.build(check=False)) == []

    def test_empty_circuit_ok(self):
        assert validate(Circuit(0, 0)) == []

    @pytest.mark.parametrize(
        "n_qubits, n_clbits, message",
        [
            (-2, -1, "qubit register size must be non-negative, got -2"),
            (1, -1, "bit register size must be non-negative, got -1"),
        ],
    )
    def test_negative_register_size_is_refused(self, n_qubits, n_clbits, message):
        # Emit would write ``qubit[-2] q;``, which parse refuses, so no
        # circuit with a negative register may exist.
        with pytest.raises(ValueError, match=f"^{message}$"):
            CircuitBuilder(n_qubits, n_clbits).build(check=False)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Circuit(n_qubits, n_clbits)

    def test_builder_rejects_an_invalid_circuit(self):
        with pytest.raises(ValueError, match=r"^invalid circuit: .*out of range"):
            CircuitBuilder(1, 1).x(2).build()

    def test_clbit_out_of_range_in_condition(self):
        gate = Gate(X_KIND, 0, None, ((3, True),))
        errors = validate(Circuit(2, 2, (Measure(0, 0), gate)))
        assert any("out of range" in e for e in errors)

    def test_condition_before_assignment(self):
        b = CircuitBuilder(1, 1)
        b.x(0, condition=((0, True),))
        errors = validate(b.build(check=False))
        assert any("before assignment" in e for e in errors)

    def test_control_target_overlap(self):
        gate = Gate(X_KIND, 0, 0)
        errors = validate(Circuit(1, 0, (gate,)))
        assert any("overlap" in e for e in errors)

    def test_toggle_self_product(self):
        b = CircuitBuilder(1, 2)
        b.measure(0, 0).toggle(0, ((0, True),))
        errors = validate(b.build(check=False))
        assert any("own product" in e for e in errors)


# Each case: the message, the register sizes, and the instructions, the last
# of which is the only fault. Gate conditions and toggle products share one
# literal check, and these pin its messages for both.
_VIOLATIONS = [
    ("clbit 3 out of range in condition", 1, 1, lambda b: b.measure(0, 0).x(0, condition=((3, True),))),
    ("condition reads clbit 0 before assignment", 1, 1, lambda b: b.h(0).x(0, condition=((0, True),))),
    ("clbit 0 repeated in condition", 1, 1, lambda b: b.measure(0, 0).x(0, condition=((0, True), (0, False)))),
    ("control/target overlap on [0]", 1, 0, lambda b: b.h(0).cx(0, 0)),
    ("qubit 5 out of range in targets", 2, 0, lambda b: b.h(0).x(5)),
    ("qubit 5 out of range in controls", 2, 0, lambda b: b.h(0).cx(5, 0)),
    ("qubit 5 out of range in measure", 2, 1, lambda b: b.h(0).measure(5, 0)),
    ("clbit 5 out of range in measure", 2, 1, lambda b: b.h(0).measure(0, 5)),
    ("qubit 5 out of range in reset", 2, 0, lambda b: b.h(0).reset(5)),
    ("toggle target 0 appears in its own product", 1, 1, lambda b: b.measure(0, 0).toggle(0, ((0, True),))),
    (
        "clbit 0 repeated in toggle product",
        1,
        2,
        lambda b: b.measure(0, 0).measure(0, 1).toggle(1, ((0, True), (0, True))),
    ),
    ("clbit 5 out of range in toggle product", 1, 1, lambda b: b.measure(0, 0).toggle(0, ((5, True),))),
    ("clbit 5 out of range in toggle target", 1, 1, lambda b: b.measure(0, 0).toggle(5)),
    ("toggle reads clbit 1 before assignment", 1, 2, lambda b: b.measure(0, 0).toggle(0, ((1, True),))),
    ("toggle target 1 unassigned", 1, 2, lambda b: b.measure(0, 0).toggle(1, ((0, True),))),
]


@pytest.mark.parametrize("message, n_qubits, n_clbits, steps", _VIOLATIONS, ids=[case[0] for case in _VIOLATIONS])
def test_each_violation_has_its_own_message(message, n_qubits, n_clbits, steps):
    circuit = steps(CircuitBuilder(n_qubits, n_clbits)).build(check=False)
    assert violations(circuit) == [(len(circuit.instructions) - 1, message)]


def reach_of(circuit, position):
    return facts_reference.forward_reach(circuit)[1][position]


class TestForwardCone:
    """The reference reach that the commute and reuse references read. The
    product decides dead gates by the same rule, one flag per wire
    (``test_transform.py::TestDeadGates``)."""

    def test_cx_pair_cone_covers_both_measurements(self):
        assert reach_of(cx_pair(), 1) == 0b11  # the CX

    def test_final_measurement_cone_is_itself(self):
        assert reach_of(cx_pair(), 3) == 0b10

    def test_reset_blocks_propagation(self):
        # Hand-enumeration: [h, reset, measure] on one wire; the gate's cone
        # reaches nothing past the reset.
        b = CircuitBuilder(1, 1)
        b.h(0).reset(0).measure(0, 0)
        assert reach_of(b.build(), 0) == 0

    def test_classical_propagation_through_condition(self):
        b = CircuitBuilder(2, 2)
        b.h(0).measure(0, 0).x(1, condition=((0, True),)).measure(1, 1)
        assert reach_of(b.build(), 0) == 0b11

    def test_matches_graph_search(self):
        # The reference's closure over its own cone steps against a plain
        # search.
        circuits = [gen(seed) for seed in range(0, 400, 7) for gen in (adversarial, small_random)]
        for c in circuits:
            reference_reach = facts_reference.forward_reach(c)[1]
            for i in range(len(c.instructions)):
                assert reference_reach[i] == cone_by_search(c, i)


class TestDepth:
    def test_single_h_then_measure(self):
        c = CircuitBuilder(1, 1).h(0).measure(0, 0).build()
        assert depth(c) == 2

    def test_empty_circuit(self):
        assert depth(Circuit(3, 3)) == 0

    @pytest.mark.parametrize("n,expected", [(4, 8), (6, 12), (10, 20)])
    def test_qft_depth_is_2n(self, n, expected):
        assert depth(bench.gen_qft(n)) == expected

    def test_conditioned_gate_waits_for_producer(self):
        b = CircuitBuilder(2, 1)
        b.h(0).measure(0, 0).x(1, condition=((0, True),))
        assert depth(b.build()) == 3

    def test_toggle_occupies_no_layer(self):
        b = CircuitBuilder(1, 2)
        b.measure(0, 0).toggle(1, ((0, True),))
        assert depth(b.build(check=False)) == 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_removing_gates_never_increases_depth(self, seed):
        c = small_random(seed)
        base = depth(c)
        gates = [i for i, it in enumerate(c.instructions) if isinstance(it, Gate)]
        if gates:
            drop = gates[seed % len(gates)]
            thinner = c.with_instructions(
                it for i, it in enumerate(c.instructions) if i != drop
            )
            assert depth(thinner) <= base


class TestTwoQubitGateCount:
    def test_cx_pair_has_one(self, bell_measured):
        assert two_qubit_gate_count(bell_measured) == 1

    def test_conditioned_single_qubit_counts_zero(self):
        b = CircuitBuilder(2, 2)
        b.h(0).measure(0, 0).x(1, condition=((0, True),)).measure(1, 1)
        assert two_qubit_gate_count(b.build()) == 0

    def test_single_qubit_only(self):
        assert two_qubit_gate_count(CircuitBuilder(2, 0).h(0).x(1).build()) == 0

    def test_vqe_full_entanglement_n6(self):
        # n(n-1)/2 CX gates by construction
        assert two_qubit_gate_count(bench.gen_vqe(6, "full")) == 15

    def test_invariant_under_reordering(self):
        b = CircuitBuilder(4, 0)
        b.cx(0, 1).cz(2, 3).h(0)
        c = b.build()
        shuffled = c.with_instructions(reversed(c.instructions))
        assert two_qubit_gate_count(shuffled) == two_qubit_gate_count(c) == 2


class TestDependencies:
    def test_cache_is_not_part_of_the_value(self):
        c, fresh = cx_pair(), cx_pair()
        c.dependencies()
        assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)
        assert c.dependencies() is c.dependencies()
        assert c.with_instructions(c.instructions)._deps is None

    def test_handed_over_facts_match_computed_ones(self):
        # Each pass attaches its output's facts instead of computing them;
        # they must be what computing them from the instructions gives.
        def facts(d):
            return d.n_qubits, d.n_clbits, d.qubits, d.reads, d.writes, d.is_reset

        def fixpoint(c):
            chain = Chain(c)
            transform._controls_fixpoint(chain)
            return chain.materialise()

        for c in schedule_battery():
            outputs = (
                commute.run(c)[0],
                fixpoint(c),
                transform.introduce_classical_controls(c)[0],
                transform.exchange_controls(c)[0],
                transform.eliminate_dead_gates(c)[0],
                transform.run(c)[0],
                reuse.run(c)[0],
                reuse.run(transform.run(c)[0])[0],
            )
            for out in outputs:
                assert facts(out.dependencies()) == facts(Dependencies(out)), c.name

    def test_rewrite_steps_hand_over_the_facts_of_their_gate(self, monkeypatch):
        # Each step tells the chain the new instruction's facts instead of
        # having them computed; check the facts the chain then holds for it
        # at every call.
        calls = {"introduce": 0, "exchange": 0, "y_split": 0, "toggle": 0, "split_x": 0}
        drop_control, put, insert_after = Chain.drop_control, Chain.put, Chain.insert_after

        def held(chain, node):
            facts = chain.facts
            return facts.qubits[node], facts.reads[node], facts.writes[node], facts.is_reset[node]

        def checked_drop_control(chain, node, gate, reads):
            after = drop_control(chain, node, gate, reads)
            assert gate.control is None and chain.instr[node] is gate
            assert held(chain, node) == ir._facts(gate), gate
            calls["introduce"] += 1
            return after

        def checked_put(chain, node, gate, qubits):
            old = chain.instr[node]
            put(chain, node, gate, qubits)
            assert held(chain, node) == ir._facts(gate), (old, gate)
            calls["y_split" if old.kind.name == "y" else "exchange"] += 1

        def checked_insert_after(chain, node, instr, qubits, reads, write):
            new = insert_after(chain, node, instr, qubits, reads, write)
            assert chain.instr[new] is instr
            assert held(chain, new) == ir._facts(instr), instr
            calls["toggle" if isinstance(instr, ClassicalToggle) else "split_x"] += 1
            return new

        monkeypatch.setattr(Chain, "drop_control", checked_drop_control)
        monkeypatch.setattr(Chain, "put", checked_put)
        monkeypatch.setattr(Chain, "insert_after", checked_insert_after)
        for c in (*schedule_battery(), *wide_battery()):
            transform.run(c)
        assert all(calls.values()), calls


class TestInstructionContract:
    # Each instruction class with a full positional argument list and the
    # fields that argument list sets.
    CASES = [
        (Gate, (Z_KIND, 1, 0, ((2, True),), 9)),
        (Measure, (1, 2, 9)),
        (Reset, (1, 9)),
        (ClassicalToggle, (2, ((0, False), (1, True)), 9)),
    ]
    IDS = [cls.__name__ for cls, _ in CASES]

    @pytest.mark.parametrize("cls, args", CASES, ids=IDS)
    def test_frozen(self, cls, args):
        instr = cls(*args)
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instr, f.name, getattr(instr, f.name))
        with pytest.raises((AttributeError, TypeError)):
            instr.extra = 1

    @pytest.mark.parametrize("cls, args", CASES, ids=IDS)
    def test_equality_and_hash_ignore_source_line(self, cls, args):
        a, b = cls(*args[:-1], 9), cls(*args[:-1], 10)
        assert a == b and hash(a) == hash(b)
        assert a.source_line == 9 and b.source_line == 10
        first = dataclasses.fields(cls)[0].name
        assert dataclasses.replace(a, **{first: 7}) != a

    @pytest.mark.parametrize("cls, args", CASES, ids=IDS)
    def test_positional_and_keyword_construction(self, cls, args):
        names = [f.name for f in dataclasses.fields(cls)]
        assert names[-1] == "source_line" and len(names) == len(args)
        positional = cls(*args)
        keyword = cls(**dict(zip(names, args)))
        assert positional == keyword
        assert [getattr(positional, n) for n in names] == list(args)
        assert [getattr(keyword, n) for n in names] == list(args)

    def test_defaults(self):
        assert Gate(Z_KIND, 1) == Gate(Z_KIND, 1, None, (), None)
        g = Gate(Z_KIND, 1)
        assert (g.control, g.condition, g.source_line) == (None, (), None)
        m = Measure(1, 2)
        assert m.source_line is None
        assert Reset(3).source_line is None
        t = ClassicalToggle(2)
        assert (t.product, t.source_line) == ((), None)
        with pytest.raises(TypeError):
            Gate(Z_KIND)
        with pytest.raises(TypeError):
            Measure(1)
        with pytest.raises(TypeError):
            Gate(Z_KIND, 1, colour=2)

    @pytest.mark.parametrize("cls, args", CASES, ids=IDS)
    def test_replace_keeps_other_fields(self, cls, args):
        instr = cls(*args)
        first = dataclasses.fields(cls)[0].name
        changed = dataclasses.replace(instr, **{first: 7})
        assert getattr(changed, first) == 7 and changed.source_line == 9
        assert dataclasses.replace(changed, **{first: getattr(instr, first)}) == instr

    @pytest.mark.parametrize("cls, args", CASES, ids=IDS)
    def test_pickle_round_trip(self, cls, args):
        instr = cls(*args)
        back = pickle.loads(pickle.dumps(instr))
        assert back == instr and type(back) is cls
        assert back.source_line == instr.source_line

    def test_repr(self):
        z = "GateKind(name='z', angle=None, label=None, matrix=None)"
        assert repr(Gate(Z_KIND, 1, 0, ((2, True),), 9)) == (
            f"Gate(kind={z}, target=1, control=0, condition=((2, True),), source_line=9)"
        )
        assert repr(Gate(Z_KIND, 1)) == (
            f"Gate(kind={z}, target=1, control=None, condition=(), source_line=None)"
        )
        assert repr(Measure(1, 2)) == "Measure(qubit=1, bit=2, source_line=None)"
        assert repr(Reset(1, 9)) == "Reset(qubit=1, source_line=9)"
        assert repr(ClassicalToggle(2, ((0, False),))) == (
            "ClassicalToggle(target=2, product=((0, False),), source_line=None)"
        )


def _check_chain(chain: Chain) -> None:
    """Labels rise along the order, and each qubit's wire links visit
    exactly the live nodes on that qubit, in order, each through its own
    slot for the qubit."""
    order = chain.order()
    labels = [chain.label[v] for v in order]
    assert all(a < b for a, b in zip(labels, labels[1:]))
    for q in range(chain.facts.n_qubits):
        on_wire = [v for v in order if q in chain.facts.qubits[v]]
        slots = [chain.wire_slot(v, q) for v in on_wire]
        for k, s in enumerate(slots):
            assert chain.wire_prev[s] == (slots[k - 1] if k else -1)
            assert chain.wire_next[s] == (slots[k + 1] if k + 1 < len(slots) else -1)


class TestChain:
    @pytest.mark.parametrize("gap", [ir._GAP, 2], ids=["default gap", "labels run out"])
    def test_links_hold_after_every_step_of_the_rewrite_schedule(self, gap, monkeypatch):
        # The steps of ``transform.run``, checked one by one on one chain.
        monkeypatch.setattr(ir, "_GAP", gap)
        steps = (commute.push, transform._controls_fixpoint, commute.push, transform._remove_dead_gates)
        for c in schedule_battery():
            chain = Chain(c)
            _check_chain(chain)
            for step in steps:
                step(chain)
                _check_chain(chain)
            assert chain.materialise().instructions == transform.run(c)[0].instructions, c.name


@pytest.mark.parametrize("module", [commute, transform, reuse], ids=lambda m: m.__name__)
def test_only_ir_knows_the_wire_slot_layout(module):
    # The passes ask a chain for wire neighbours by node (``before``/``after``).
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert not re.findall(r"wire_prev|wire_next|wire_slot", source)


class TestGatePredicates:
    def test_cp_is_diagonal(self):
        gate = CircuitBuilder(2, 0).cp(0.4, 0, 1).build().instructions[0]
        assert is_diagonal(gate)

    def test_h_is_neither(self):
        gate = CircuitBuilder(1, 0).h(0).build().instructions[0]
        assert not is_diagonal(gate)

    def test_conditioned_x_is_not_diagonal(self):
        b = CircuitBuilder(2, 1).measure(0, 0).x(1, condition=((0, True),))
        gate = b.build().instructions[1]
        assert not is_diagonal(gate)

    def test_y_is_neither(self):
        gate = CircuitBuilder(1, 0).y(0).build().instructions[0]
        assert not is_diagonal(gate)

    @pytest.mark.parametrize("angle", [0.0, 2 * math.pi, -2 * math.pi, 4 * math.pi])
    def test_rx_at_a_multiple_of_two_pi_is_diagonal(self, angle):
        # sin(angle / 2) is within ``ANGLE_TOL`` of zero: the same test as for
        # every other kind.
        assert is_diagonal(CircuitBuilder(1, 0).rx(angle, 0).build().instructions[0])

    @pytest.mark.parametrize("angle", [1e-9, 0.7, math.pi, 2 * math.pi + 1e-9])
    def test_rx_elsewhere_is_not_diagonal(self, angle):
        assert not is_diagonal(CircuitBuilder(1, 0).rx(angle, 0).build().instructions[0])

    def test_every_phase_kind_is_diagonal(self):
        b = CircuitBuilder(2, 0).z(0).s(0).t(0).p(0.3, 0).rz(-1.2, 0).cz(0, 1).cp(2.0, 0, 1)
        assert all(map(is_diagonal, b.build().instructions))

    def test_opaque_judged_by_matrix(self):
        diag = Gate(opaque_kind("u_d", [1, 0, 0, 1j]), 0)
        offdiag = Gate(opaque_kind("u_h", [0.6, 0.8, 0.8, -0.6]), 0)
        assert is_diagonal(diag) and not is_diagonal(offdiag)


class TestGateKind:
    def test_parametric_needs_angle(self):
        with pytest.raises(ValueError):
            GateKind("p")

    def test_fixed_rejects_angle(self):
        with pytest.raises(ValueError):
            GateKind("h", angle=0.5)

    def test_opaque_needs_matrix(self):
        with pytest.raises(ValueError):
            GateKind("u", label="u0")

    def test_opaque_rejects_angle(self):
        # ``emit`` writes no angle for an opaque gate, so one would not round-trip.
        with pytest.raises(ValueError, match="takes no angle"):
            GateKind("u", angle=0.5, label="u_a", matrix=(0, 1, 1, 0))

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        # Such a kind would emit as ``p(nan)``, which the parser rejects.
        for name in ("p", "rx", "rz"):
            with pytest.raises(ValueError, match="finite"):
                GateKind(name, angle=angle)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0, math.inf), complex(math.nan, 0)])
    def test_non_finite_matrix_entry_rejected(self, entry):
        with pytest.raises(ValueError, match="finite"):
            opaque_kind("u_bad", [entry, 0, 0, 1])

    def test_opaque_matrix_needs_four_entries(self):
        with pytest.raises(ValueError, match=r"^opaque matrix must have 4 entries \(row-major 2x2\)$"):
            opaque_kind("u_a", (1, 0, 0, 1, 0))

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            (("w",), {}, "unknown gate kind 'w'"),
            (("p",), {}, "p requires an angle"),
            (("h",), {"angle": 0.5}, "h takes no angle"),
            (("u", 0.5), {"label": "u_a", "matrix": (0, 1, 1, 0)}, "u takes no angle"),
            (("rx", math.inf), {}, "rx angle must be finite, got inf"),
            (("u",), {"label": "u0"}, "opaque gates need a label and a 2x2 matrix"),
            (("u",), {"matrix": (0, 1, 1, 0)}, "opaque gates need a label and a 2x2 matrix"),
            # ``emit`` writes a built-in kind by its name alone, so a label or
            # matrix would not round-trip.
            (("h",), {"label": "zz", "matrix": (0, 1, 1, 0)}, "h takes no label or matrix"),
            (("x",), {"label": "zz"}, "x takes no label or matrix"),
            (("p", 0.5), {"matrix": (1, 0, 0, 1)}, "p takes no label or matrix"),
            (("u",), {"label": "u_a", "matrix": (1, 0, 0)}, "opaque matrix must have 4 entries (row-major 2x2)"),
            (("u",), {"label": "u_a", "matrix": (1, 0, 0, math.nan)}, "opaque matrix for 'u_a' must have finite entries"),
        ],
    )
    def test_each_check_has_its_message(self, args, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GateKind(*args, **kwargs)

    KINDS = [GateKind("h"), GateKind("p", 0.25), GateKind("rz", angle=-1.5), opaque_kind("u_a", (0, 1, 1, 0))]

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_value_semantics(self, kind):
        fields = {f.name: getattr(kind, f.name) for f in dataclasses.fields(GateKind) if f.init}
        twin = GateKind(**fields)
        assert twin is not kind and twin == kind and hash(twin) == hash(kind)
        back = pickle.loads(pickle.dumps(kind))
        assert back == kind and hash(back) == hash(kind)
        assert dataclasses.replace(kind) == kind
        with pytest.raises(dataclasses.FrozenInstanceError):
            kind.name = "x"

    def test_opaque_matrix_is_stored_as_a_complex_tuple(self):
        # A list would make the kind unhashable and read back unequal.
        kind = GateKind("u", label="u_a", matrix=[0, 1, 1, 0])
        assert kind.matrix == (0j, 1 + 0j, 1 + 0j, 0j)
        assert type(kind.matrix) is tuple and {type(x) for x in kind.matrix} == {complex}
        assert kind.unitary is kind.matrix
        assert kind == opaque_kind("u_a", (0, 1, 1, 0)) and hash(kind) == hash(opaque_kind("u_a", (0, 1, 1, 0)))

    def test_unitary_is_derived_from_the_other_fields(self):
        # Not an argument, not compared and not shown: it follows from them.
        kind = GateKind("p", 0.25)
        field = {f.name: f for f in dataclasses.fields(GateKind)}["unitary"]
        assert (field.init, field.compare, field.repr) == (False, False, False)
        assert "unitary" not in repr(kind)
        assert dataclasses.replace(kind, angle=0.5).unitary == GateKind("p", 0.5).unitary != kind.unitary
        assert pickle.loads(pickle.dumps(kind)).unitary == kind.unitary

    @pytest.mark.parametrize("kind", [
        *ir.FIXED_KINDS.values(),
        *(GateKind(name, angle) for name in sorted(ir.PARAMETRIC) for angle in (0.0, 1e-13, 0.7, math.pi, 2 * math.pi)),
        opaque_kind("u_d", (1, 1e-13, 0, 1j)), opaque_kind("u_o", (0.6, 0.8, 0.8, -0.6)),
    ], ids=repr)
    def test_diagonal_is_derived_from_the_unitary(self, kind):
        # Both off-diagonal entries within ``ANGLE_TOL`` of zero, computed
        # once beside the unitary, and like it not an argument, compared or shown.
        _, u01, u10, _ = kind.unitary
        assert kind.diagonal is (abs(u01) <= ir.ANGLE_TOL and abs(u10) <= ir.ANGLE_TOL)
        field = {f.name: f for f in dataclasses.fields(GateKind)}["diagonal"]
        assert (field.init, field.compare, field.repr) == (False, False, False)
        assert pickle.loads(pickle.dumps(kind)).diagonal is kind.diagonal

    def test_a_builder_shares_one_kind_per_name_and_angle(self):
        b = CircuitBuilder(2, 0).p(0.5, 0).cp(0.5, 0, 1).rz(0.5, 1).rz(0.5, 0).rx(0.0, 0).rx(-0.0, 1).p(1, 0)
        p, cp, rz0, rz1, rx0, rx1, p1 = (g.kind for g in b.build().instructions)
        assert p is cp and rz0 is rz1 and p is not rz0
        # Keyed on the angle's bits: -0.0 equals 0.0 but stays its own kind.
        assert rx0 == rx1 and rx0 is not rx1 and math.copysign(1, rx1.angle) == -1
        assert p1.angle == 1.0 and type(p1.angle) is float
        assert CircuitBuilder(1, 0).p(0.5, 0).build().instructions[0].kind is not p

    def test_fixed_kinds_are_the_kinds_without_an_angle(self):
        assert sorted(ir.FIXED_KINDS) == ["h", "s", "t", "x", "y", "z"]
        assert all(kind == GateKind(name) for name, kind in ir.FIXED_KINDS.items())
        assert ir.FIXED_KINDS["x"] is X_KIND and ir.FIXED_KINDS["z"] is Z_KIND
        assert ir.GATE_NAMES == {*ir.FIXED_KINDS, *ir.PARAMETRIC, "u"}
        assert ir.PARAMETRIC == {"p", "rx", "rz"}

    def test_replace_checks_the_new_fields(self):
        kind = GateKind("p", 0.5)
        assert dataclasses.replace(kind, angle=0.25) == GateKind("p", angle=0.25) != kind
        assert dataclasses.replace(kind, name="rz") == GateKind("rz", 0.5)
        with pytest.raises(ValueError, match="^h takes no angle$"):
            dataclasses.replace(kind, name="h")
        with pytest.raises(ValueError, match="^p angle must be finite, got nan$"):
            dataclasses.replace(kind, angle=math.nan)


def test_toggle_twice_is_identity_on_distribution():
    base = CircuitBuilder(2, 2).h(0).measure(0, 0).h(1).measure(1, 1)
    plain = base.build()
    twice = plain.with_instructions(
        plain.instructions
        + (plain.instructions[-1],) * 0
        + tuple(
            CircuitBuilder(2, 2).toggle(1, ((0, True),)).toggle(1, ((0, True),)).build(check=False).instructions
        )
    )
    d0 = oracle.distribution(plain)
    d1 = oracle.distribution(twice)
    assert d0.total_variation(d1) <= 1e-9


def test_instruction_qubits_order():
    # The quantum control first, then the target.
    assert Dependencies(CircuitBuilder(2, 0).cx(1, 0).build()).qubits == [(1, 0)]
