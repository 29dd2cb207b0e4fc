import math

import pytest
from hypothesis import given, settings, strategies as st

from qreuse import bench, commute, ir, oracle, reuse, transform
from qreuse.ir import (
    Chain,
    Circuit,
    CircuitBuilder,
    Condition,
    Dependencies,
    Gate,
    GateKind,
    Measure,
    X_KIND,
    Reset,
    depth,
    instruction_qubits,
    is_bitflip,
    is_diagonal,
    opaque_kind,
    read_bits,
    two_qubit_gate_count,
    validate,
    written_bit,
)

from conftest import adversarial, cx_pair, schedule_battery, small_random


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

    def test_clbit_out_of_range_in_condition(self):
        gate = Gate(X_KIND, (0,), (), Condition(((3, True),)))
        errors = validate(Circuit(2, 2, (Measure(0, 0), gate)))
        assert any("out of range" in e for e in errors)

    def test_condition_before_assignment(self):
        b = CircuitBuilder(1, 1)
        b.x(0, condition=((0, True),))
        errors = validate(b.build(check=False))
        assert any("before assignment" in e for e in errors)

    def test_control_target_overlap(self):
        gate = Gate(X_KIND, (0,), ((0, True),))
        errors = validate(Circuit(1, 0, (gate,)))
        assert any("overlap" in e for e in errors)

    def test_toggle_self_product(self):
        b = CircuitBuilder(1, 2)
        b.measure(0, 0).toggle(0, ((0, True),))
        errors = validate(b.build(check=False))
        assert any("own product" in e for e in errors)


def cone_by_search(circuit, start):
    """Mask of the bits one instruction's forward cone writes, by graph search.

    Follows each wire to its next instruction unless that is a reset, and
    from a written bit to every later reader of it.
    """
    instrs = circuit.instructions
    seen, stack = set(), [start]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        for q in instruction_qubits(instrs[i]):
            j = next((j for j in range(i + 1, len(instrs)) if q in instruction_qubits(instrs[j])), None)
            if j is not None and not isinstance(instrs[j], Reset):
                stack.append(j)
        b = written_bit(instrs[i])
        if b is not None:
            stack.extend(j for j in range(i + 1, len(instrs)) if b in read_bits(instrs[j]))
    bits = 0
    for i in seen:
        if written_bit(instrs[i]) is not None:
            bits |= 1 << written_bit(instrs[i])
    return bits


def reach_of(circuit, position):
    return Dependencies(circuit).forward_reach()[position]


class TestForwardCone:
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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_monotone(self, seed):
        # An instruction's reach contains the reach of every instruction its
        # cone steps to next.
        c = small_random(seed)
        deps = Dependencies(c)
        bit_reach = deps.forward_reach()

        def contains(i, j):
            return not bit_reach[j] & ~bit_reach[i]

        for positions in deps.wires:
            for i, j in zip(positions, positions[1:]):
                assert deps.is_reset[j] or contains(i, j)
        for i, b in enumerate(deps.writes):
            if b is not None:
                assert all(contains(i, j) for j in range(i + 1, len(deps.reads)) if b in deps.reads[j])

    def test_matches_graph_search(self):
        circuits = [gen(seed) for seed in range(0, 400, 7) for gen in (adversarial, small_random)]
        for c in circuits:
            bit_reach = Dependencies(c).forward_reach()
            for i in range(len(c.instructions)):
                assert bit_reach[i] == cone_by_search(c, i)


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
            return d.n_qubits, d.n_clbits, d.qubits, d.reads, d.writes, d.is_reset, d.wires

        for c in schedule_battery():
            outputs = (
                commute.run(c)[0],
                transform._controls_to_fixpoint(c)[0],
                transform.eliminate_dead_gates(c)[0],
                transform.run(c)[0],
                reuse.run(c)[0],
                reuse.run(transform.run(c)[0])[0],
            )
            for out in outputs:
                assert facts(out.dependencies()) == facts(Dependencies(out)), c.name


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


class TestGatePredicates:
    def test_cp_is_diagonal(self):
        gate = CircuitBuilder(2, 0).cp(0.4, 0, 1).build().instructions[0]
        assert is_diagonal(gate) and not is_bitflip(gate)

    def test_h_is_neither(self):
        gate = CircuitBuilder(1, 0).h(0).build().instructions[0]
        assert not is_diagonal(gate) and not is_bitflip(gate)

    def test_conditioned_x_is_bitflip(self):
        b = CircuitBuilder(2, 1).measure(0, 0).x(1, condition=((0, True),))
        gate = b.build().instructions[1]
        assert is_bitflip(gate) and not is_diagonal(gate)

    def test_cx_is_not_bitflip(self):
        gate = CircuitBuilder(2, 0).cx(0, 1).build().instructions[0]
        assert not is_bitflip(gate)

    def test_y_is_neither(self):
        gate = CircuitBuilder(1, 0).y(0).build().instructions[0]
        assert not is_diagonal(gate) and not is_bitflip(gate)

    def test_opaque_judged_by_matrix(self):
        diag = Gate(opaque_kind("u_d", [1, 0, 0, 1j]), (0,))
        offdiag = Gate(opaque_kind("u_h", [0.6, 0.8, 0.8, -0.6]), (0,))
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
    gate = CircuitBuilder(2, 0).cx(1, 0).build().instructions[0]
    assert instruction_qubits(gate) == (1, 0)
