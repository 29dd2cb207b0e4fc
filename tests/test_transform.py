import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qreuse import bench, commute, oracle, transform
from qreuse.ir import (
    FIXED_KINDS,
    Chain,
    CircuitBuilder,
    ClassicalToggle,
    Gate,
    GateKind,
    Measure,
    two_qubit_gate_count,
    validate,
)
from qreuse.transform import (
    eliminate_dead_gates,
    exchange_controls,
    introduce_classical_controls,
    run,
)

import commute_reference
import facts_reference
from commute_reference import controls_loop, exchange_scan, introduce_scan, transform_run
from conftest import adversarial, cx_pair, schedule_battery, small_random
from facts_reference import cone_by_search


def tagged(circuit):
    """``circuit`` with each instruction's position as its source line, which
    instruction equality ignores, so a pass's survivors can be told apart."""
    return circuit.with_instructions(
        dataclasses.replace(instr, source_line=i) for i, instr in enumerate(circuit.instructions)
    )


class TestDeadGates:
    def test_trailing_x_after_final_measure(self):
        b = CircuitBuilder(1, 1)
        b.measure(0, 0).toggle(0).x(0)
        out, removed = eliminate_dead_gates(b.build())
        assert removed == 1
        assert [type(i).__name__ for i in out.instructions] == ["Measure", "ClassicalToggle"]

    def test_live_circuit_unchanged(self):
        c = cx_pair()
        out, removed = eliminate_dead_gates(c)
        assert removed == 0 and out.instructions == c.instructions

    def test_reset_blocks_liveness(self):
        b = CircuitBuilder(1, 1)
        b.h(0).reset(0).measure(0, 0)
        out, removed = eliminate_dead_gates(b.build())
        assert removed == 1
        assert [type(i).__name__ for i in out.instructions] == ["Reset", "Measure"]

    def test_chained_dead_gates_removed_together(self):
        b = CircuitBuilder(2, 1)
        b.measure(0, 0).h(1).cx(1, 0)
        out, removed = eliminate_dead_gates(b.build())
        assert removed == 2
        assert len(out.instructions) == 1

    def test_liveness_through_a_classical_condition(self):
        b = CircuitBuilder(2, 2)
        b.h(0).measure(0, 0).x(1, condition=((0, True),)).measure(1, 1)
        c = b.build()
        out, removed = eliminate_dead_gates(c)
        assert removed == 0 and out.instructions == c.instructions

    @pytest.mark.parametrize("measured", [0, 1], ids=["control", "target"])
    def test_two_qubit_gate_live_through_one_wire(self, measured):
        # Control first, target second in the gate's wires; the h before the
        # CX on the other wire lives through the CX.
        b = CircuitBuilder(2, 1)
        b.h(1 - measured).cx(0, 1).measure(measured, 0)
        c = b.build()
        out, removed = eliminate_dead_gates(c)
        assert removed == 0 and out.instructions == c.instructions

    def test_decisions_match_graph_search(self):
        # A gate goes exactly when its forward cone writes no bit; the
        # reference, which reads the reference reach, removes the same ones.
        for c in [gen(seed) for seed in range(0, 400, 7) for gen in (adversarial, small_random)]:
            c = tagged(c)
            dead = {i for i, instr in enumerate(c.instructions) if isinstance(instr, Gate) and not cone_by_search(c, i)}
            out, removed = eliminate_dead_gates(c)
            assert [instr.source_line for instr in out.instructions] == [
                i for i in range(len(c.instructions)) if i not in dead
            ], c.name
            assert removed == len(dead)
            assert (out, removed) == commute_reference.eliminate_dead_gates(c)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_kept_exactly_when_a_wire_successor_is_live(self, seed):
        # Liveness passes backward along wires and stops at a reset: a gate
        # stays exactly when the next instruction on one of its wires is a
        # measurement or a gate that stays.
        c = tagged(small_random(seed))
        instrs = c.instructions
        kept = {instr.source_line for instr in eliminate_dead_gates(c)[0].instructions}
        successors = [[] for _ in instrs]
        for positions in facts_reference.wires(c):
            for i, j in zip(positions, positions[1:]):
                successors[i].append(j)

        def live(j):
            return isinstance(instrs[j], Measure) or (isinstance(instrs[j], Gate) and j in kept)

        for i, instr in enumerate(instrs):
            if isinstance(instr, Gate):
                assert (i in kept) == any(live(j) for j in successors[i])


class TestIntroduceClassicalControls:
    def test_basic_replacement(self):
        c = CircuitBuilder(2, 1).measure(0, 0).cx(0, 1).build()
        out, k = introduce_classical_controls(c)
        assert k == 1
        gate = out.instructions[1]
        assert gate.control is None and gate.condition == ((0, True),)
        assert gate.kind.name == "x"

    def test_intervening_gate_blocks(self):
        c = CircuitBuilder(2, 1).measure(0, 0).h(0).cx(0, 1).build()
        out, k = introduce_classical_controls(c)
        assert k == 0 and out.instructions == c.instructions

    def test_toggle_on_the_bit_blocks(self):
        b = CircuitBuilder(2, 2)
        b.measure(1, 1).measure(0, 0).toggle(0, ((1, True),)).cx(0, 1)
        out, k = introduce_classical_controls(b.build())
        assert k == 0

    def test_chain_in_one_call(self):
        b = CircuitBuilder(3, 3)
        b.measure(0, 0).cx(0, 1)
        b.measure(1, 1).cx(1, 2)
        out, k = introduce_classical_controls(b.build())
        assert k == 2
        assert two_qubit_gate_count(out) == 0

    def test_contradictory_condition_drops_gate(self):
        b = CircuitBuilder(2, 1)
        b.measure(0, 0).cx(0, 1, condition=((0, False),))
        out, k = introduce_classical_controls(b.build())
        assert k == 1
        assert len(out.instructions) == 1


class TestExchangeControls:
    def test_cz_swaps_roles(self):
        c = CircuitBuilder(2, 1).measure(0, 0).cz(1, 0).build()
        out, k = exchange_controls(c)
        assert k == 1
        gate = out.instructions[1]
        assert gate.control == 0 and gate.target == 1

    def test_cx_not_phase_type(self):
        c = CircuitBuilder(2, 1).measure(0, 0).cx(1, 0).build()
        out, k = exchange_controls(c)
        assert k == 0 and out.instructions == c.instructions

    def test_controlled_s_swaps_roles(self):
        # A controlled diag(1, i), built through the API (no statement writes
        # it), is symmetric in its qubits like a CZ.
        b = CircuitBuilder(2, 2).h(0).h(1).measure(0, 0)
        c = b.append(Gate(FIXED_KINDS["s"], 0, 1)).h(1).measure(1, 1).build()
        out, k = exchange_controls(c)
        assert k == 1
        gate = out.instructions[3]
        assert (gate.kind, gate.control, gate.target) == (FIXED_KINDS["s"], 0, 1)
        assert exchange_scan(c) == (out, 1)
        assert oracle.equivalent(c, out)[0]
        full, counts = run(c)
        assert counts["exchanges"] == 1 and counts["classical_controls"] == 1
        assert two_qubit_gate_count(full) == 0 and oracle.equivalent(c, full)[0]

    def test_controlled_rz_not_phase_type(self):
        # diag(e^-ia, e^ia) is diagonal but not diag(1, phase): swapping its
        # qubits changes the circuit.
        b = CircuitBuilder(2, 2).h(0).h(1).measure(0, 0)
        c = b.append(Gate(GateKind("rz", 1.0), 0, 1)).h(1).measure(1, 1).build()
        out, k = exchange_controls(c)
        assert k == 0 and out.instructions == c.instructions
        assert exchange_scan(c) == (c, 0)
        full, counts = run(c)
        assert counts["exchanges"] == 0 and oracle.equivalent(c, full)[0]
        gate = c.instructions[3]
        swapped = c.with_instructions((*c.instructions[:3], Gate(gate.kind, 1, 0), *c.instructions[4:]))
        assert not oracle.equivalent(c, swapped)[0]

    def test_both_sides_measured_prefers_introduction(self):
        b = CircuitBuilder(2, 2)
        b.measure(0, 0).measure(1, 1).cp(0.5, 1, 0)
        out, counts = run(b.build())
        assert counts["exchanges"] == 0
        assert counts["classical_controls"] == 1
        assert two_qubit_gate_count(out) == 0

    def test_unmeasured_target_blocks(self):
        c = CircuitBuilder(2, 1).measure(0, 0).h(1).cz(0, 1).build()
        out, k = exchange_controls(c)
        assert k == 0


class TestRun:
    def test_cx_pair_reaches_single_toggle_form(self):
        out, counts = run(cx_pair())
        kinds = [type(i).__name__ for i in out.instructions]
        assert kinds == ["Gate", "Measure", "Measure", "ClassicalToggle"]
        assert out.instructions[3] == ClassicalToggle(1, ((0, True),))
        assert two_qubit_gate_count(out) == 0
        assert counts["dead_gates"] == 1

    def test_qpe_corrections_become_conditioned_phases(self):
        c = bench.gen_qpe(4, 2 * math.pi * 3 / 8)
        out, _ = run(c)
        conditioned = [
            i for i in out.instructions
            if isinstance(i, Gate) and i.kind.name == "p" and i.condition
        ]
        # three correction gates in the transform tail: distances 1, 1, 2
        assert len(conditioned) == 3
        assert sorted(g.kind.angle for g in conditioned) == sorted(
            [-math.pi / 2, -math.pi / 2, -math.pi / 4]
        )
        # only the controlled powers toward the eigenstate survive as 2q gates
        assert two_qubit_gate_count(out) == 3

    def test_no_measurements_all_gates_die(self):
        c = CircuitBuilder(3, 0).h(0).cx(0, 1).cz(1, 2).build()
        out, _ = run(c)
        assert out.instructions == ()

    def test_qft_goes_fully_classical(self):
        out, _ = run(bench.gen_qft(4))
        assert two_qubit_gate_count(out) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_run_preserves_distribution_and_validity(seed):
    c = small_random(seed)
    out, _ = run(c)
    assert validate(out) == []
    ok, dev = oracle.equivalent(c, out)
    assert ok, dev


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_metrics_never_increase(seed):
    c = small_random(seed)
    out, _ = run(c)
    assert two_qubit_gate_count(out) <= two_qubit_gate_count(c)
    controls = lambda circ: sum(
        i.control is not None for i in circ.instructions if isinstance(i, Gate)
    )
    assert controls(out) <= controls(c)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_each_transformation_alone_preserves_distribution(seed):
    c = small_random(seed)
    for op in (eliminate_dead_gates, introduce_classical_controls, exchange_controls):
        out, _ = op(c)
        ok, dev = oracle.equivalent(c, out)
        assert ok, (op.__name__, dev)


def control_battery():
    """``schedule_battery()`` plus the benchmark families at n = 2-10, each
    raw and after commutation. After commutation, the families' fixpoint
    takes many introduction/exchange rounds (qft8 takes 9)."""
    families = [bench.gen_qft(n) for n in range(2, 11)]
    families += [bench.gen_qpe(n, 2 * math.pi * 3 / 8, single_p=p) for n in range(2, 11) for p in (False, True)]
    families += [bench.gen_vqe(n, s) for n in range(2, 11) for s in bench.STRATEGIES]
    for c in (*schedule_battery(), *families):
        yield c, c
        yield c, commute.run(c)[0]


def test_single_passes_match_the_scans():
    # The one-pass functions run the chain steps on a worklist; they must
    # decide as the dict-based scans do, on raw inputs and after commutation.
    for c, start in control_battery():
        for step, scan in (
            (introduce_classical_controls, introduce_scan),
            (exchange_controls, exchange_scan),
        ):
            out, k = step(start)
            ref, ref_k = scan(start)
            assert out.instructions == ref.instructions, (step.__name__, c.name)
            assert k == ref_k, (step.__name__, c.name)


@pytest.mark.parametrize("arrange", ["forward", "reversed", "shuffled"])
def test_introduction_reaches_one_pass_in_any_order(arrange):
    # Introduction only takes gates off wires, so retrying the gate after
    # each wire a gate leaves reaches the one-pass result from any order.
    rng = random.Random(20)
    for c, start in control_battery():
        chain = Chain(start)
        order = chain.order()
        gates = [v for v in order if isinstance(chain.instr[v], Gate) and chain.instr[v].control is not None]
        if arrange == "reversed":
            gates.reverse()
        elif arrange == "shuffled":
            rng.shuffle(gates)
        k, _ = transform._introduce_all(chain, gates, transform._next_writes(chain, order))
        ref, ref_k = introduce_scan(start)
        assert chain.materialise().instructions == ref.instructions, c.name
        assert k == ref_k, c.name


def test_run_matches_round_loop():
    # The worklist rounds must replay full introduction/exchange rounds
    # exactly, both on raw inputs and after commutation.
    for c, start in control_battery():
        chain = Chain(start)
        introduced, exchanged = transform._controls_fixpoint(chain)
        ref, ref_introduced, ref_exchanged = controls_loop(start)
        assert chain.materialise().instructions == ref.instructions, c.name
        assert (introduced, exchanged) == (ref_introduced, ref_exchanged), c.name
        if start is c:
            out, counts = run(c)
            ref, ref_counts = transform_run(c)
            assert out.instructions == ref.instructions, c.name
            assert counts == ref_counts, c.name
