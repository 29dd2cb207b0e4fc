import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from qreuse import bench, ir, oracle
from qreuse.commute import CommuteRule, run
from qreuse.ir import (
    CircuitBuilder,
    ClassicalToggle,
    Gate,
    Measure,
    validate,
)

import facts_reference
from commute_reference import _rule_at, run as reference_run
from conftest import schedule_battery, small_random


def rules_applied(circuit):
    """The nonzero rule counts of one ``run``."""
    return {rule: k for rule, k in run(circuit)[1].items() if k}


def movable(circuit, pos):
    """Whether the scan-based reference can move the measurement at ``pos``."""
    return _rule_at(list(circuit.instructions), pos) is not None


class TestApplicableRule:
    """Which rule moves a measurement across its wire predecessor."""

    def test_cp_on_control_side(self):
        c = CircuitBuilder(2, 1).cp(0.3, 0, 1).measure(0, 0).build()
        assert rules_applied(c) == {CommuteRule.CONTROLLED_ON_CONTROL.value: 1}

    def test_cp_on_target_side_is_diagonal(self):
        c = CircuitBuilder(2, 1).cp(0.3, 0, 1).measure(1, 0).build()
        assert rules_applied(c) == {CommuteRule.DIAGONAL.value: 1}

    def test_hadamard_blocks(self):
        c = CircuitBuilder(1, 1).h(0).measure(0, 0).build()
        assert rules_applied(c) == {}

    def test_rx_blocks(self):
        c = CircuitBuilder(1, 1).rx(0.7, 0).measure(0, 0).build()
        assert rules_applied(c) == {}

    def test_cx_target_blocks(self):
        c = CircuitBuilder(2, 1).cx(0, 1).measure(1, 0).build()
        assert rules_applied(c) == {}

    def test_conditioned_x_is_bitflip(self):
        b = CircuitBuilder(2, 2)
        b.measure(0, 0).x(1, condition=((0, True),)).measure(1, 1)
        assert rules_applied(b.build()) == {CommuteRule.BIT_FLIP.value: 1}

    def test_y_decomposes(self):
        # Y becomes Z then X; the measurement then crosses X and Z.
        c = CircuitBuilder(1, 1).y(0).measure(0, 0).build()
        assert _rule_at(list(c.instructions), 1) == (CommuteRule.Y_DECOMPOSE, 0)
        assert rules_applied(c) == {
            CommuteRule.Y_DECOMPOSE.value: 1,
            CommuteRule.BIT_FLIP.value: 1,
            CommuteRule.DIAGONAL.value: 1,
        }

    def test_self_conditioned_x_blocks(self):
        # Re-measurement into the bit that conditions the X: moving would
        # create a self-referential toggle.
        b = CircuitBuilder(1, 1)
        b.measure(0, 0).x(0, condition=((0, True),)).measure(0, 0)
        assert rules_applied(b.build()) == {}

    def test_opaque_diagonal_moves_and_opaque_mixer_stops(self):
        # diag(1, i) is an S written as a matrix; the rotation mixes |0> and |1>.
        mixer = (math.cos(0.4), -math.sin(0.4), math.sin(0.4), math.cos(0.4))
        b = CircuitBuilder(1, 1).h(0).opaque("u_mix", mixer, 0)
        c = b.opaque("u_diag", (1, 0, 0, 1j), 0).measure(0, 0).build()
        out, counts = run(c)
        assert {rule: k for rule, k in counts.items() if k} == {CommuteRule.DIAGONAL.value: 1}
        assert out.instructions == (*c.instructions[:2], c.instructions[3], c.instructions[2])
        assert oracle.equivalent(c, out)[0]
        # Past the rotation, the measurement would read another distribution.
        crossed = c.with_instructions((c.instructions[0], c.instructions[3], *c.instructions[1:3]))
        assert not oracle.equivalent(c, crossed)[0]

    @pytest.mark.parametrize("angle", [0.0, 2 * math.pi])
    def test_rx_at_a_multiple_of_two_pi_is_diagonal(self, angle):
        # Its off-diagonal entries are within ``ir.ANGLE_TOL`` of zero.
        c = CircuitBuilder(1, 1).h(0).rx(angle, 0).measure(0, 0).build()
        out, counts = run(c)
        assert {rule: k for rule, k in counts.items() if k} == {CommuteRule.DIAGONAL.value: 1}
        assert out.instructions == (c.instructions[0], c.instructions[2], c.instructions[1])
        assert oracle.equivalent(c, out)[0]


class TestCommuteOnce:
    """Circuits where ``run`` applies exactly one rule."""

    def test_plain_x_inserts_negation(self):
        c = CircuitBuilder(1, 1).x(0).measure(0, 0).build()
        out, counts = run(c)
        assert sum(counts.values()) == 1
        kinds = [type(i).__name__ for i in out.instructions]
        assert kinds == ["Measure", "ClassicalToggle", "Gate"]
        assert out.instructions[1] == ClassicalToggle(0, ())
        assert out.instructions[2].kind.name == "x"

    def test_cx_control_swaps_without_fixup(self):
        c = CircuitBuilder(2, 1).cx(0, 1).measure(0, 0).build()
        out, counts = run(c)
        assert sum(counts.values()) == 1
        assert isinstance(out.instructions[0], Measure)
        assert out.instructions[1].kind.name == "x"
        assert out.instructions[1].control == 0

    def test_conditioned_x_toggle_carries_condition(self):
        b = CircuitBuilder(2, 2)
        b.measure(0, 0).x(1, condition=((0, True),)).measure(1, 1)
        out, counts = run(b.build())
        assert sum(counts.values()) == 1
        toggle = out.instructions[2]
        assert toggle == ClassicalToggle(1, ((0, True),))


class TestRun:
    def test_z_then_measure(self):
        c = CircuitBuilder(1, 1).z(0).measure(0, 0).build()
        out, counts = run(c)
        assert isinstance(out.instructions[0], Measure)
        assert counts["diagonal"] == 1
        assert sum(counts.values()) == 1

    def test_already_first_is_fixpoint(self):
        c = CircuitBuilder(1, 1).measure(0, 0).h(0).build()
        out, counts = run(c)
        assert out.instructions == c.instructions
        assert sum(counts.values()) == 0

    def test_y_chain(self):
        c = CircuitBuilder(1, 1).y(0).measure(0, 0).build()
        out, counts = run(c)
        assert counts["y_decompose"] == 1
        assert counts["bit_flip"] == 1
        assert counts["diagonal"] == 1
        assert isinstance(out.instructions[0], Measure)
        ok, dev = oracle.equivalent(c, out)
        assert ok, dev

    def test_qpe_measurements_end_up_behind_their_h(self):
        c = bench.gen_qpe(4, 2 * math.pi * 3 / 8)
        out, _ = run(c)
        wires = facts_reference.wires(out)
        for q in range(3):  # counting qubits
            positions = wires[q]
            meas_at = [k for k, p in enumerate(positions) if isinstance(out.instructions[p], Measure)]
            assert len(meas_at) == 1
            prev = out.instructions[positions[meas_at[0] - 1]]
            assert isinstance(prev, Gate) and prev.kind.name == "h"

    def test_measurement_count_and_bits_preserved(self):
        c = bench.gen_qft(4)
        out, _ = run(c)
        before = sorted(m.bit for m in c.instructions if isinstance(m, Measure))
        after = sorted(m.bit for m in out.instructions if isinstance(m, Measure))
        assert before == after

    def test_fixpoint_soundness_and_validity(self):
        c = bench.gen_qpe(5, 1.0)
        out, counts = run(c)
        assert validate(out) == []
        for pos, instr in enumerate(out.instructions):
            if isinstance(instr, Measure):
                assert not movable(out, pos)
        assert sum(counts.values()) <= len(c.instructions) ** 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_run_preserves_distribution(seed):
    c = small_random(seed)
    out, counts = run(c)
    assert validate(out) == []
    assert sum(counts.values()) <= (len(c.instructions) + 2) ** 2
    before = sorted((m.qubit, m.bit) for m in c.instructions if isinstance(m, Measure))
    after = sorted((m.qubit, m.bit) for m in out.instructions if isinstance(m, Measure))
    assert before == after
    ok, dev = oracle.equivalent(c, out)
    assert ok, dev


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_run_fixpoint(seed):
    out, _ = run(small_random(seed))
    for pos, instr in enumerate(out.instructions):
        if isinstance(instr, Measure):
            assert not movable(out, pos)


def test_run_matches_scan_reference():
    # One push per measurement on linked neighbours must make the decisions
    # of the scan-based schedule with its outer sweep.
    for c in schedule_battery():
        out, counts = run(c)
        ref, ref_counts = reference_run(c)
        assert out.instructions == ref.instructions, c.name
        assert counts == ref_counts, c.name


def test_run_matches_scan_reference_when_labels_run_out(monkeypatch):
    # With a gap of 2 between order labels nearly every move renumbers them.
    monkeypatch.setattr(ir, "_GAP", 2)
    for c in itertools.islice(schedule_battery(), 0, 800, 4):
        out, counts = run(c)
        ref, ref_counts = reference_run(c)
        assert (out.instructions, counts) == (ref.instructions, ref_counts), c.name
