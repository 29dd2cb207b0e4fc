import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qreuse import bench, oracle, pipeline, qasm, transform
from qreuse.ir import FIXED_KINDS, CircuitBuilder, Gate, GateKind, Measure, opaque_kind
from qreuse.oracle import OutcomeDistribution, SimulationLimitError, distribution, equivalent

from commute_reference import _apply, _rule_at
from conftest import adversarial, count_executions, cx_pair, schedule_battery, small_random
from density_reference import density_distribution
from oracle_reference import kind_matrix, reference_distribution


def test_hadamard_born_rule():
    c = CircuitBuilder(1, 1).h(0).measure(0, 0).build()
    d = distribution(c)
    assert d["0"] == pytest.approx(0.5)
    assert d["1"] == pytest.approx(0.5)


def test_deterministic_zero():
    c = CircuitBuilder(1, 1).measure(0, 0).build()
    assert distribution(c).probs == {"0": 1.0}


def test_no_bits_is_one_empty_outcome():
    c = CircuitBuilder(1, 0).h(0).build()
    assert distribution(c).probs == {"": 1.0}
    c = qasm.parse("qubit[1] q;\nbit[0] c;\nh q[0];\nreset q[0];\nh q[0];\n")
    assert equivalent(c, c) == (True, 0.0)


def test_cx_pair_vs_reused_single_wire_form():
    # Both qubits prepared in |+>, then the cx/measure pattern, versus the
    # single-wire rewrite with a reset and a classical fix-up.
    start = cx_pair(with_second_prep=True)
    b = CircuitBuilder(1, 2)
    b.h(0).measure(0, 0).reset(0).h(0).measure(0, 1).toggle(1, ((0, True),))
    reused = b.build()
    ok, dev = equivalent(start, reused)
    assert ok, dev


def test_conditioned_gate_and_toggle_semantics():
    b = CircuitBuilder(2, 2)
    b.x(0).measure(0, 0).x(1, condition=((0, True),)).measure(1, 1)
    d = distribution(b.build())
    assert d["11"] == pytest.approx(1.0)
    b2 = CircuitBuilder(1, 2)
    b2.x(0).measure(0, 0).measure(0, 1).toggle(1, ((0, False),))
    d2 = distribution(b2.build())
    # bit1 measured as 1, toggled only when bit0 == 0, so it stays 1
    assert d2["11"] == pytest.approx(1.0)


def test_reset_of_entangled_qubit_keeps_marginals():
    b = CircuitBuilder(2, 1)
    b.h(0).cx(0, 1).reset(0).measure(1, 0)
    d = distribution(b.build())
    assert d["0"] == pytest.approx(0.5)
    assert d["1"] == pytest.approx(0.5)


def test_qpe_oracle_reads_phase_numerator():
    c = bench.gen_qpe(4, 2 * math.pi * 3 / 8)
    d = distribution(c)
    assert d["011"] == pytest.approx(1.0)


def test_equivalent_self_and_distinct():
    c = CircuitBuilder(1, 1).x(0).measure(0, 0).build()
    ok, dev = equivalent(c, c)
    assert ok and dev == 0.0
    other = CircuitBuilder(1, 1).measure(0, 0).build()
    assert equivalent(c, other) == (False, 1.0)
    assert equivalent(other, c) == (False, 1.0)

    with pytest.raises(ValueError):
        equivalent(c, CircuitBuilder(1, 2).measure(0, 0).build(check=False))


def test_qubit_cap():
    c = CircuitBuilder(13, 0).build()
    with pytest.raises(SimulationLimitError):
        distribution(c)


def test_branch_guard(monkeypatch):
    b = CircuitBuilder(1, 1)
    for _ in range(6):
        b.h(0).measure(0, 0)
    monkeypatch.setattr(oracle, "MAX_BRANCHES", 16)
    with pytest.raises(SimulationLimitError):
        distribution(b.build())


def test_branch_guard_counts_qubits_outside_the_state(monkeypatch):
    # The split of the first measurement keeps 2 branches. On each, the
    # measurement and the reset of the qubit it left outside the state keep
    # 1 each, and the read-out 1 leaf: 8 in all.
    c = _outside_state_circuit()
    monkeypatch.setattr(oracle, "MAX_BRANCHES", 7)
    with pytest.raises(SimulationLimitError):
        distribution(c)
    monkeypatch.setattr(oracle, "MAX_BRANCHES", 8)
    assert distribution(c).probs == pytest.approx({"001": 0.5, "010": 0.5})


def test_branch_guard_bounds_a_measurement_tail(monkeypatch):
    # 32 leaves from one read-out, with no branching before the tail.
    b = CircuitBuilder(5, 5)
    for q in range(5):
        b.h(q)
    for q in range(5):
        b.measure(q, q)
    monkeypatch.setattr(oracle, "MAX_BRANCHES", 16)
    with pytest.raises(SimulationLimitError):
        distribution(b.build())
    monkeypatch.setattr(oracle, "MAX_BRANCHES", 32)
    assert len(distribution(b.build()).probs) == 32


def _tail_cases():
    """Measurement-only tails that stress the read-out, with their outcomes."""
    # One qubit measured into two bits: both bits read the same outcome.
    b = CircuitBuilder(1, 2)
    b.h(0).measure(0, 0).measure(0, 1)
    yield "one qubit, two bits", b.build(), {"00": 0.5, "11": 0.5}
    # A bit written twice in the tail: the later write wins.
    b = CircuitBuilder(2, 1)
    b.h(0).x(1).measure(0, 0).measure(1, 0)
    yield "later write wins", b.build(), {"1": 1.0}
    b = CircuitBuilder(2, 1)
    b.h(0).x(1).measure(1, 0).measure(0, 0)
    yield "earlier write lost", b.build(), {"0": 0.5, "1": 0.5}
    # Only some qubits measured, in an order that is not the qubit order.
    b = CircuitBuilder(3, 2)
    b.x(0).h(1).cx(1, 2).measure(2, 0).measure(0, 1)
    yield "some qubits measured", b.build(), {"10": 0.5, "11": 0.5}
    # A tail right after a reset of an entangled qubit.
    b = CircuitBuilder(2, 2)
    b.h(0).cx(0, 1).reset(0).measure(0, 0).measure(1, 1)
    yield "tail after reset", b.build(), {"00": 0.5, "10": 0.5}
    b = CircuitBuilder(2, 2)
    b.measure(1, 0).measure(0, 1)
    yield "measurement-only circuit", b.build(), {"00": 1.0}
    yield "empty circuit", CircuitBuilder(2, 2).build(), {"00": 1.0}
    # A kept outcome whose marginal is spread over unmeasured qubits in
    # pieces each below the pruning threshold.
    theta = 2 * math.asin(math.sqrt(4e-14))
    b = CircuitBuilder(4, 1)
    b.rx(theta, 0).h(1).h(2).h(3).measure(0, 0)
    yield "tiny spread marginal", b.build(), {"0": 1.0 - 4e-14, "1": 4e-14}


@pytest.mark.parametrize(
    "circuit,expected", [pytest.param(c, e, id=name) for name, c, e in _tail_cases()]
)
def test_measurement_tail_hand_cases(circuit, expected):
    d = distribution(circuit)
    assert set(d.probs) == set(expected)
    for key, p in expected.items():
        assert d[key] == pytest.approx(p, rel=1e-9, abs=1e-15), key


def _plan_cases():
    """Conditions, toggles and splits the compiled plan must keep exact,
    with their outcomes."""
    # One bit named with both polarities: the condition and product never hold.
    b = CircuitBuilder(1, 2)
    b.x(0).measure(0, 0).x(0, condition=((0, True), (0, False))).measure(0, 1)
    yield "condition on both polarities", b.build(check=False), {"11": 1.0}
    b = CircuitBuilder(1, 2)
    b.x(0).measure(0, 0).measure(0, 1).toggle(1, ((0, False), (0, True)))
    yield "toggle on both polarities", b.build(check=False), {"11": 1.0}
    # The branches of one split diverge: each must own its amplitudes.
    b = CircuitBuilder(1, 2)
    b.h(0).measure(0, 0).x(0, condition=((0, True),)).h(0).measure(0, 1)
    yield "diverging split", b.build(), {k: 0.25 for k in ("00", "01", "10", "11")}
    b = CircuitBuilder(1, 2)
    b.h(0).measure(0, 0).x(0, condition=((0, False),)).measure(0, 1)
    yield "diverging split, deterministic", b.build(), {"10": 0.5, "11": 0.5}
    # A reset whose only kept outcome is 1, and one that keeps both.
    b = CircuitBuilder(1, 1)
    b.x(0).reset(0).measure(0, 0)
    yield "reset keeps outcome 1", b.build(), {"0": 1.0}
    b = CircuitBuilder(2, 2)
    b.h(0).cx(0, 1).reset(0).x(0).measure(0, 0).measure(1, 1)
    yield "reset keeps both", b.build(), {"01": 0.5, "11": 0.5}
    # A controlled y on its +1 eigenstate (s h |0>) kicks back no phase; -y
    # would kick back -1 and turn the control's |+> into |->.
    b = CircuitBuilder(2, 1)
    b.h(1).s(1).h(0).append(Gate(GateKind("y"), 1, 0)).h(0).measure(0, 0)
    yield "controlled y on its eigenstate", b.build(), {"0": 1.0}
    # A condition on a bit above 63.
    b = CircuitBuilder(1, 70)
    b.x(0).measure(0, 64).x(0, condition=((64, True),)).measure(0, 65)
    yield "condition on bit 64", b.build(), {format(1 << 64, "070b"): 1.0}
    # rz and opaque kinds, each between two h (or alone, off the diagonal),
    # then the same gate conditioned on a fair coin in bit 0.
    turn = complex(0.5, math.sqrt(3) / 2)  # exp(i pi/3)
    rotations = [
        ("rz", lambda b, **kw: b.h(0).rz(math.pi / 3, 0, **kw).h(0), 0.25),
        ("diagonal opaque", lambda b, **kw: b.h(0).opaque("u_d", [1, 0, 0, turn], 0, **kw).h(0), 0.25),
        ("off-diagonal opaque", lambda b, **kw: b.opaque("u_o", [0.6, -0.8, 0.8, 0.6], 0, **kw), 0.64),
    ]
    for name, rotate, one in rotations:
        b = CircuitBuilder(1, 1)
        rotate(b)
        yield name, b.measure(0, 0).build(), {"0": 1 - one, "1": one}
        b = CircuitBuilder(2, 2)
        b.h(1).measure(1, 0)
        rotate(b, condition=((0, True),))
        yield f"conditioned {name}", b.measure(0, 1).build(), {"00": 0.5, "01": 0.5 * (1 - one), "11": 0.5 * one}


@pytest.mark.parametrize(
    "circuit,expected", [pytest.param(c, e, id=name) for name, c, e in _plan_cases()]
)
def test_plan_hand_cases(circuit, expected):
    d = distribution(circuit)
    assert set(d.probs) == set(expected)
    for key, p in expected.items():
        assert d[key] == pytest.approx(p, rel=1e-9, abs=1e-15), key


def _outside_state_circuit():
    """A measurement and a reset of a qubit already outside the state."""
    b = CircuitBuilder(1, 3)
    b.h(0).measure(0, 0).measure(0, 1).reset(0).toggle(1, ()).measure(0, 2)
    return b.build()


def _compaction_cases():
    """Circuits where qubits stay outside a path's state, leave it and
    re-enter it, with their outcomes (None: checked against the references
    only)."""
    third = math.pi / 3  # rx(pi/3) leaves |1> at 1 with probability 3/4, |0> with 1/4
    b = CircuitBuilder(1, 2)
    b.x(0).measure(0, 0).x(0).measure(0, 1)
    yield "bit flip on a qubit measured as 1", b.build(), {"01": 1.0}
    b = CircuitBuilder(1, 2)
    b.x(0).measure(0, 0).rx(third, 0).measure(0, 1)
    yield "rotation on a qubit measured as 1", b.build(), {"01": 0.25, "11": 0.75}
    b = CircuitBuilder(1, 2)
    b.x(0).x(0).measure(0, 0).rx(third, 0).measure(0, 1)
    yield "rotation on a qubit measured as 0", b.build(), {"00": 0.75, "10": 0.25}
    b = CircuitBuilder(1, 2)
    b.h(0).measure(0, 0).rx(third, 0).measure(0, 1)
    yield "rotation after either outcome", b.build(), {"00": 0.375, "10": 0.125, "01": 0.125, "11": 0.375}
    b = CircuitBuilder(2, 2)
    b.h(0).measure(0, 0).cx(0, 1).measure(1, 1)
    yield "control re-enters at its outcome", b.build(), {"00": 0.5, "11": 0.5}
    b = CircuitBuilder(3, 4)
    b.h(0).h(1).rx(third, 2).measure(1, 0).cx(1, 2).h(1).cx(2, 0).measure(0, 1).rx(third, 0)
    b.measure(1, 2).measure(2, 3).measure(0, 1)
    yield "a middle qubit leaves and re-enters on top", b.build(), None
    b = CircuitBuilder(2, 2)
    b.h(0).measure(0, 0).p(1.0, 0, condition=((0, True),)).cz(0, 1).h(0).measure(0, 1)
    yield "diagonal gates on known values", b.build(), {k: 0.25 for k in ("00", "01", "10", "11")}
    b = CircuitBuilder(2, 2)
    b.x(1).measure(1, 0).h(0).cz(0, 1).h(0).measure(0, 1)
    yield "phase from a qubit measured as 1", b.build(), {"11": 1.0}
    yield "measurement and reset outside the state", _outside_state_circuit(), {"001": 0.5, "010": 0.5}
    # The read-out mixes q0 in the state with q1 outside it, and the later
    # write to bits 1 and 2 wins: bits 0, 1 and 3 read q1, bit 2 reads q0.
    b = CircuitBuilder(2, 4)
    b.h(0).h(1).measure(1, 0).s(0)
    b.measure(0, 1).measure(1, 1).measure(1, 2).measure(0, 2).measure(1, 3)
    yield "read-out inside and outside the state", b.build(), {k: 0.25 for k in ("0000", "0100", "1011", "1111")}
    # q1 is never touched; it is measured mid-circuit and in the read-out.
    b = CircuitBuilder(3, 3)
    b.measure(1, 1).h(0).cx(0, 2).measure(0, 0).measure(1, 1).measure(2, 2)
    yield "a qubit no instruction touches", b.build(), {"000": 0.5, "101": 0.5}
    # A qubit outside the state is a classical bit of the path. Below, q1 is
    # known as v: it starts as 0, and an x on it toggles its known value.
    def known(v, n_qubits, n_bits):
        b = CircuitBuilder(n_qubits, n_bits)
        return b.x(1) if v else b

    for v in (0, 1):
        one = f"{v}1"  # q1 in bit 1, q0 read as 1 in bit 0
        # A control outside the state tests its known value.
        b = known(v, 2, 2).rx(third, 0).cx(1, 0).measure(0, 0).measure(1, 1)
        p1 = 0.75 if v else 0.25
        yield f"cx with its control outside at {v}", b.build(), {f"{v}0": 1 - p1, one: p1}
        b = known(v, 2, 2).append(Gate(GateKind("rx", angle=third), 0, 1)).measure(0, 0).measure(1, 1)
        yield f"rx with its control outside at {v}", b.build(), {"10": 0.75, one: 0.25} if v else {"00": 1.0}
        b = known(v, 2, 2).h(0).cz(1, 0).h(0).measure(0, 0).measure(1, 1)
        yield f"cz with its control outside at {v}", b.build(), {f"{v}{v}": 1.0}
        # A flip of a qubit outside the state toggles its known value; y's
        # phase is the whole path's.
        b = known(v, 3, 3).y(0).cx(1, 2).measure(0, 0).y(0).cx(1, 0).measure(0, 1).measure(2, 2)
        yield f"x, y and cx on qubits outside at {v}", b.build(), {f"{v}{v}1": 1.0}
        # A controlled diagonal whose target is outside is diag(1, u_vv) on
        # its control: with the s, q0 gains a relative phase pi/2 -/+ pi/2.
        b = known(v, 2, 2).h(0).s(0).append(Gate(GateKind("rz", angle=math.pi), 1, 0))
        b.h(0).measure(0, 0).measure(1, 1)
        yield f"crz with its target outside at {v}", b.build(), {f"{v}{v}": 1.0}
        b = known(v, 2, 2).h(0).cp(math.pi, 0, 1).h(0).measure(0, 0).measure(1, 1)
        yield f"cp with its target outside at {v}", b.build(), {f"{v}{v}": 1.0}
    # q1 is known as 1; the condition names bit 0 with both polarities.
    b = CircuitBuilder(2, 2)
    b.x(1).measure(1, 0).cx(1, 0, condition=((0, True), (0, False))).measure(0, 1)
    yield "never-holding condition, control outside", b.build(check=False), {"01": 1.0}
    # Unit flips swap slices for each order of control and target bits.
    b = CircuitBuilder(4, 4)
    for q in range(4):
        b.rx(third * (q + 1) / 2, q)
    b.cx(0, 3).cx(3, 1).cx(2, 0).cx(1, 2).x(3).cx(0, 1)
    for q in range(4):
        b.measure(q, q)
    yield "unit flips on every bit order", b.build(), None


@pytest.mark.parametrize(
    "circuit,expected", [pytest.param(c, e, id=name) for name, c, e in _compaction_cases()]
)
def test_compaction_hand_cases(circuit, expected):
    d = distribution(circuit)
    if expected is not None:
        assert set(d.probs) == set(expected)
        for key, p in expected.items():
            assert d[key] == pytest.approx(p, rel=1e-9, abs=1e-15), key
    branching = reference_distribution(circuit)
    density = OutcomeDistribution(circuit.n_clbits, density_distribution(circuit))
    for want in (branching, density):
        assert set(d.probs) == set(want.probs)
        assert d.total_variation(want) <= 1e-12


def test_a_split_copies_one_branch():
    # Seven splitting rounds keep both outcomes; the eighth measurement is
    # read out by the tail, not split. Stepwise that is 1 + 2 + ... + 64
    # copies. But after each measurement the state is empty, and from the
    # second on, fewer record bits that later ops touch may be set (only the
    # qubit's known value) than splits came before: the rest is walked once
    # per known value. So the first two rounds copy 1 + 2 times, and rounds
    # 3 to 7 copy once in each of their 2 shared walks: 13 copies.
    b = CircuitBuilder(1, 8)
    for k in range(8):
        b.h(0).measure(0, k)
    c = b.build()
    d, copies = count_executions(oracle._walk, "copy", lambda: distribution(c), 13)
    assert len(d.probs) == 256
    assert copies == 13
    assert d.probs == pytest.approx({format(k, "08b"): 1 / 256 for k in range(256)})


def test_qubits_outside_the_state_cost_no_pair_updates():
    # qft12: each h brings its qubit into the state, and every cp's control
    # is outside it at 0, a failed test: 1 + 2 + ... + 2048 general-gate
    # pair updates (with every control entering the state, 22,529).
    qft = bench.gen_qft(12)
    _, pairs = count_executions(oracle._walk, "pair", lambda: distribution(qft), 4095)
    assert pairs == 4095
    # qpe12: the x on the eigenstate qubit toggles its known value, and each
    # controlled power is a phase on its counting qubit, so only the 11
    # counting qubits enter and no op runs on a 12-qubit state.
    qpe = bench.gen_qpe(12, 2 * math.pi * 5 / 2 ** 11)
    d, entered = count_executions(oracle._walk, "enter", lambda: distribution(qpe), 11)
    assert entered == 11
    assert d.probs == pytest.approx({format(5, "011b"): 1.0})


def test_a_unit_flip_swaps_without_multiplying():
    b = CircuitBuilder(3, 3)
    for q in range(3):
        b.rx(math.pi * (q + 1) / 5, q)
    b.cx(0, 2).x(1).cx(2, 1).x(0).cx(1, 0)
    for q in range(3):
        b.measure(q, q)
    c = b.build()
    d, diagonals = count_executions(oracle._walk, "diagonal", lambda: distribution(c), 0)
    assert diagonals == 0
    _, pairs = count_executions(oracle._walk, "pair", lambda: distribution(c), 7)
    assert pairs == 1 + 2 + 4  # the three rx
    assert d.total_variation(reference_distribution(c)) <= 1e-12


def test_qft12_output_walks_each_round_once_per_known_value():
    # The reused qft12 runs on one qubit: h, a measurement and a reset per
    # round, and the conditioned phases on a reset qubit are no ops. After
    # the second measurement the rest depends only on the qubit's known
    # value, so each later h runs once in each of 2 shared walks: 1 + 2 +
    # 10 * 2 pair updates (4,095 walking every path).
    out = pipeline.optimize(bench.gen_qft(12))[0]
    assert out.n_qubits == 1
    d, pairs = count_executions(oracle._walk, "pair", lambda: distribution(out), 23)
    assert pairs == 23
    assert d.probs == pytest.approx({format(k, "012b"): 2.0 ** -12 for k in range(4096)})


def test_no_share_where_every_later_step_reads_all_earlier_bits():
    # Before each round an x on the measured qubit is conditioned on every
    # earlier bit, so no key takes fewer values than the paths reaching it:
    # the walk is the stepwise one, 1 + 2 + ... + 16 copies and 1 + 2 + ...
    # + 32 pair updates.
    b = CircuitBuilder(1, 6)
    for k in range(6):
        for bit in range(k):
            b.x(0, condition=((bit, True),))
        b.h(0).measure(0, k)
    c = b.build()
    d, hits = count_executions(oracle._walk, "hit", lambda: distribution(c), 0)
    assert hits == 0
    _, copies = count_executions(oracle._walk, "copy", lambda: distribution(c), 31)
    _, pairs = count_executions(oracle._walk, "pair", lambda: distribution(c), 63)
    assert (copies, pairs) == (31, 63)
    assert len(d.probs) == 64
    assert d.total_variation(reference_distribution(c)) <= 1e-12


def _biased_rounds(rounds: int):
    # Rounds of a measurement that reads 1 with probability 1e-4, each
    # followed by a reset.
    theta = 2 * math.asin(math.sqrt(1e-4))
    b = CircuitBuilder(1, rounds)
    for k in range(rounds):
        b.rx(theta, 0).measure(0, k).reset(0)
    return b.build()


def test_a_shared_walk_counts_no_more_than_stepwise_branching(monkeypatch):
    # 16 rounds: every path with four 1s falls below the pruning weight, so
    # 697 outcomes remain, and stepwise branching counts 6,424 branches.
    # Each round's future is walked once by the all-0 path, the heaviest
    # that reaches it, and every other path counts the leaves it takes: 789.
    c = _biased_rounds(16)
    monkeypatch.setattr(oracle, "MAX_BRANCHES", 788)
    with pytest.raises(SimulationLimitError):
        distribution(c)
    monkeypatch.setattr(oracle, "MAX_BRANCHES", 789)
    d = distribution(c)
    assert len(d.probs) == 697
    want = reference_distribution(c)
    assert set(d.probs) == set(want.probs)
    assert d.total_variation(want) <= 1e-12


def test_the_most_biased_rounds_stepwise_branching_runs_are_still_run():
    # 59 rounds are the most that stepwise branching runs within
    # MAX_BRANCHES (1,047,368 branches; 60 rounds count over 2^20). The
    # shared walks count 34,630 and keep the same 34,280 outcomes.
    d = distribution(_biased_rounds(59))
    assert len(d.probs) == 34_280
    assert sum(d.probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_a_lighter_path_drops_each_outcome_of_a_shared_walk_as_its_own():
    # The first round reads 1 with probability 6e-14, so the paths that
    # read 0 walk the last two rounds first (taking shared outcomes twice
    # in the third). There the third round's outcome is reset and its bit
    # written again, so two outcomes of the walk reach each record. The two
    # lighter paths take them at 1.5e-14 / 2 each, at most the pruning
    # weight, and drop them as step-by-step branching does, where their
    # sum, 1.5e-14, would not be dropped.
    b = CircuitBuilder(1, 3).rx(2 * math.asin(math.sqrt(6e-14)), 0).measure(0, 0).reset(0)
    b.h(0).measure(0, 1).reset(0).h(0).measure(0, 2).reset(0).h(0).measure(0, 2)
    c = b.build()
    d, hits = count_executions(oracle._walk, "hit", lambda: distribution(c), 10)
    assert hits == 4
    assert set(d.probs) == {"000", "010", "100", "110"}
    assert d.total_variation(reference_distribution(c)) <= 1e-12


def _share_cases():
    """Circuits whose walk shares the future of an empty state, with their
    outcomes (None: checked against the references only)."""
    def rounds(b, count):  # a fair coin into each of bits 0 .. count - 1
        for k in range(count):
            b.h(0).measure(0, k)
        return b

    # A key bit that a later op reads: bit 4 reads q0 flipped when bit 0 is
    # 1, so it is bit 3 XOR bit 0.
    b = rounds(CircuitBuilder(1, 5), 4).x(0, condition=((0, True),)).measure(0, 4)
    yield "a key bit read later", b.build(), {format((k >> 3 ^ k) % 2 << 4 | k, "05b") for k in range(16)}
    # A key bit that the shared future rewrites: bit 1 flips when bit 0 is 1.
    b = rounds(CircuitBuilder(1, 5), 4).toggle(1, ((0, True),)).h(0).measure(0, 4)
    yield "a key bit the future rewrites", b.build(), None
    # A heavier path reaches a key after a lighter one walked it: the first
    # round reads 0 with probability 1e-10, and that path reaches each later
    # round first, where it drops every outcome with two more 1s.
    b = CircuitBuilder(1, 5).rx(2 * math.acos(1e-5), 0).measure(0, 0).reset(0)
    for k in range(1, 5):
        b.rx(2 * math.asin(math.sqrt(1e-3)), 0).measure(0, k).reset(0)
    yield "a heavier path after a lighter one", b.build(), None
    # Trailing runs kept in the walk: the read-out writes bit 5 (first
    # written as 0) after a toggle writes it, or after a toggle reads it, or
    # q0 is flipped before the read-out reads it.
    b = rounds(CircuitBuilder(1, 6).measure(0, 5), 5).toggle(5, ((0, True),)).measure(0, 5)
    yield "a trailing toggle of a read-out bit", b.build(), None
    b = rounds(CircuitBuilder(1, 6).measure(0, 5), 5).toggle(1, ((5, True),)).measure(0, 5)
    yield "a trailing toggle reading a read-out bit", b.build(), None
    b = rounds(CircuitBuilder(1, 6), 5).x(0).measure(0, 5)
    yield "a trailing flip of a known value", b.build(), None
    # Trailing runs that leave the walk: negative, own-target, literal-free
    # and never-holding toggles (one affine map); and a run whose toggle with
    # two literals stays in the walk with the toggles before it.
    b = rounds(CircuitBuilder(1, 4), 4).toggle(1, ((0, False),)).toggle(2, ()).toggle(3, ((3, False),))
    b.toggle(0, ((2, True),)).toggle(2, ((1, True), (1, False)))
    yield "an affine trailing run", b.build(check=False), None
    b = rounds(CircuitBuilder(1, 6), 5).toggle(1, ((0, False),)).toggle(3, ((0, True), (1, False))).toggle(2, ())
    yield "a trailing run with two literals", b.measure(0, 5).build(), None


@pytest.mark.parametrize(
    "circuit,expected", [pytest.param(c, e, id=name) for name, c, e in _share_cases()]
)
def test_shared_walk_hand_cases(circuit, expected):
    d, hits = count_executions(oracle._walk, "hit", lambda: distribution(circuit), 10 ** 4)
    assert hits > 0
    if expected is not None:
        assert d.probs == pytest.approx({k: 1 / len(expected) for k in expected})
    branching = reference_distribution(circuit)
    density = OutcomeDistribution(circuit.n_clbits, density_distribution(circuit))
    for want in (branching, density):
        assert set(d.probs) == set(want.probs)
        assert d.total_variation(want) <= 1e-12


def test_a_trailing_run_leaves_the_walk_after_its_last_toggle_with_two_literals():
    # The lifted toggles move each outcome by one affine map: 16 outcomes,
    # one table lookup each. A toggle with two literals is no affine map, so
    # it stays in the walk, and only the literal-free toggle after it leaves.
    cases = {name: c for name, c, _ in _share_cases()}
    _, moves = count_executions(oracle._move, "affine", lambda: distribution(cases["an affine trailing run"]), 16)
    assert moves == 16
    c = cases["a trailing run with two literals"]
    plan, _, _ = oracle._plan(c.instructions[:-1], 1, 6)
    body, lifted = oracle._lift(plan, 6, 1 << 5)
    assert lifted == [(0, 0, 1 << 2)]
    assert body[-1] == (oracle._TOGGLES, [(1, 0, 1 << 1), (3, 1, 1 << 3)])


# A toggle of one bit: with no literal (bit -1) it always holds at polarity
# 0 and never at polarity 1; its target may be the bit it tests.
_one_literal_toggle = st.builds(
    lambda bit, polarity, target: (0 if bit < 0 else 1 << bit, polarity << max(bit, 0), 1 << target),
    st.integers(-1, 19), st.integers(0, 1), st.integers(0, 19),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_one_literal_toggle, max_size=12),
    st.dictionaries(st.integers(0, (1 << 20) - 1), st.floats(1e-6, 1.0), max_size=8),
)
def test_move_applies_the_toggles_one_at_a_time(run, acc):
    want: dict[int, float] = {}
    for leaf, p in acc.items():
        for mask, polarity, flip in run:
            if leaf & mask == polarity:
                leaf ^= flip
        want[leaf] = want.get(leaf, 0.0) + p
    assert oracle._move(run, acc) == want


def test_halves_filter_every_index():
    for k in range(1, 8):
        tables: dict = {}
        for t in range(k):
            for c in [None, *(c for c in range(k) if c != t)]:
                inside = [i for i in range(1 << k) if c is None or i >> c & 1]
                want = [i for i in inside if not i >> t & 1], [i for i in inside if i >> t & 1]
                assert oracle._halves(tables, list(range(1 << k)), k, t, c) == want


def _reference_battery():
    for seed in range(400):
        for c in (adversarial(seed), small_random(seed)):
            yield c
            for mode in pipeline.MODES:
                yield pipeline.optimize(c, mode)[0]
    yield bench.gen_qft(8)
    yield bench.gen_qpe(8, 2 * math.pi * 3 / 8)
    yield bench.gen_qpe(8, 1.0)
    yield bench.gen_vqe(8, "full")
    # 1-2-qubit outputs with up to 2^9 paths.
    yield pipeline.optimize(bench.gen_qft(10))[0]
    for strategy in bench.STRATEGIES:
        yield pipeline.optimize(bench.gen_vqe(10, strategy))[0]
    # 10 wires, 2^10 paths: each measured qubit leaves its path's state.
    yield transform.run(bench.gen_qft(10))[0]
    yield transform.run(bench.gen_vqe(10, "full"))[0]
    for cases in (_tail_cases, _plan_cases, _compaction_cases, _share_cases):
        for _, c, _ in cases():
            yield c


_ANGLES = (0.0, 0.3, -1.5, math.pi, 2 * math.pi, -12.5)
_KINDS = [
    *FIXED_KINDS.values(),
    *(GateKind(name, angle) for name in ("p", "rx", "rz") for angle in _ANGLES),
    opaque_kind("u_a", (0.6, 0.8j, 0.8j, 0.6)),
]


@pytest.mark.parametrize("kind", _KINDS, ids=lambda k: f"{k.name}({k.angle})" if k.angle is not None else k.name)
def test_kind_unitary_matches_the_reference_matrix(kind):
    # ``ir`` holds each kind's entries; the reference builds its own numpy matrix.
    want = kind_matrix(kind).reshape(-1)
    assert len(kind.unitary) == 4
    assert max(abs(u - w) for u, w in zip(kind.unitary, want)) <= 1e-15


def test_distribution_matches_branching_reference():
    # The tail read-out keeps exactly the outcomes that step-by-step
    # branching keeps, with the same probabilities up to rounding.
    for c in _reference_battery():
        got, want = distribution(c), reference_distribution(c)
        assert set(got.probs) == set(want.probs), c
        assert got.total_variation(want) <= 1e-12, c


def _density_battery():
    for seed in range(400):
        yield adversarial(seed)
        yield small_random(seed)
    for n in range(1, 7):
        for d in range(1, 7):
            for seed in range(3):
                yield bench.gen_random(bench.RandomSpec(n, d, seed))
    for cases in (_plan_cases, _compaction_cases, _share_cases):
        for _, c, _ in cases():
            yield c


def test_distribution_matches_density_reference():
    # An independently written oracle: mixed states merged per record.
    for c in _density_battery():
        got = distribution(c)
        want = OutcomeDistribution(c.n_clbits, density_distribution(c))
        assert {k for k, p in got.probs.items() if p > 1e-12} == {
            k for k, p in want.probs.items() if p > 1e-12
        }, c
        assert got.total_variation(want) <= 1e-12, c


def _union_tv(first: OutcomeDistribution, second: OutcomeDistribution) -> float:
    """Total variation distance over the union of both key sets, key by key,
    summed exactly."""
    keys = set(first.probs) | set(second.probs)
    return 0.5 * math.fsum(abs(first[k] - second[k]) for k in keys)


def _equivalence_pairs():
    """Pairs with one classical register: each small circuit against its
    compiled output and against the previous circuit of the same register
    size, and the seven 12-qubit families against their outputs and each
    other."""
    last: dict = {}
    for c in schedule_battery():
        if c.n_qubits <= oracle.MAX_QUBITS:
            yield c, pipeline.optimize(c)[0]
            if c.n_clbits in last:
                yield last[c.n_clbits], c
            last[c.n_clbits] = c
    families = [bench.gen_qft(12), bench.gen_qpe(12, 1.0)]
    families += [bench.gen_vqe(12, strategy) for strategy in bench.STRATEGIES]
    for c in families:
        yield c, pipeline.optimize(c)[0]
    for a, b in zip(families, families[1:]):
        if a.n_clbits == b.n_clbits:
            yield a, b


def test_equivalent_matches_the_distributions_total_variation():
    # ``equivalent`` compares int records, ``total_variation`` bitstrings.
    # They agree, and both match an exact key-by-key sum over the union of
    # the outcomes up to the rounding of a sum of 4,096 terms.
    differ = 0
    for a, b in _equivalence_pairs():
        da, db = distribution(a), distribution(b)
        tv = da.total_variation(db)
        assert abs(equivalent(a, b)[1] - tv) <= 1e-15, (a, b)
        assert abs(tv - _union_tv(da, db)) <= 1e-12, (a, b)
        differ += tv > 1e-9
    assert differ > 100  # the pairs are not all equivalent


def test_distribution_formats_the_records_in_their_order():
    for c in (*schedule_battery(), bench.gen_qft(12), bench.gen_vqe(12, "full")):
        if c.n_qubits <= oracle.MAX_QUBITS:
            spec = f"0{c.n_clbits}b"
            want = [(format(r, spec) if c.n_clbits else "", p) for r, p in oracle._outcomes(c).items()]
            assert list(distribution(c).probs.items()) == want, c


def test_equivalent_counts_an_outcome_only_the_second_reaches():
    zero = CircuitBuilder(1, 1).measure(0, 0).build()
    even = CircuitBuilder(1, 1).h(0).measure(0, 0).build()
    assert equivalent(zero, even) == (False, pytest.approx(0.5, abs=1e-15))
    assert equivalent(even, zero) == (False, pytest.approx(0.5, abs=1e-15))


_SRC = str(Path(oracle.__file__).parents[1])
_EQUIVALENT = (
    "from qreuse import bench, oracle; c = bench.gen_qpe(3, 1.0); assert oracle.equivalent(c, c)[0]"
)


@pytest.mark.parametrize("code", [
    pytest.param("import qreuse", id="qreuse"),
    pytest.param("import qreuse.cli", id="qreuse.cli"),
    pytest.param(_EQUIVALENT, id="oracle.equivalent"),
])
def test_import_leaves_numpy_unloaded(code):
    # Neither compiling nor simulating imports numpy: only the references use it.
    code = f"import sys; sys.path.insert(0, {_SRC!r}); {code}; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "False"


def test_optimize_verify_leaves_numpy_unloaded(tmp_path):
    # ``-X importtime`` lists every module the process imports.
    src = tmp_path / "qpe4.qasm"
    src.write_text(qasm.emit(bench.gen_qpe(4, 1.0)))
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qreuse.cli",
         "optimize", str(src), "--verify", "-o", str(tmp_path / "out.qasm")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert out.returncode == 0, out.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines() if "|" in line]
    assert "qreuse.oracle" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_distributions_normalize(seed):
    d = distribution(small_random(seed))
    assert sum(d.probs.values()) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_commuting_a_measurement_preserves_outcomes(seed):
    # Pushing any movable measurement one step earlier leaves the
    # distribution untouched.
    c = small_random(seed)
    instrs = list(c.instructions)
    for pos, instr in enumerate(instrs):
        found = isinstance(instr, Measure) and _rule_at(instrs, pos)
        if found:
            _apply(instrs, pos, *found)
            ok, dev = equivalent(c, c.with_instructions(instrs))
            assert ok, dev
            break


def test_qft_pipeline_equivalence():
    c = bench.gen_qft(5)
    out, _ = pipeline.optimize(c)
    ok, dev = equivalent(c, out)
    assert ok and dev <= 1e-9
