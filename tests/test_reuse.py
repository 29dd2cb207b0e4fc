import heapq
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qreuse import bench, oracle, reuse, transform
from qreuse.ir import (
    CircuitBuilder,
    ClassicalToggle,
    Dependencies,
    Gate,
    Measure,
    Reset,
    depth,
    two_qubit_gate_count,
    validate,
)
from qreuse.pipeline import MODES, optimize
from qreuse.qasm import MAX_REGISTER, emit, parse
from qreuse.reuse import run

import facts_reference
import reuse_optimum
import reuse_reference
from conftest import adversarial, count_executions, cx_pair, schedule_battery, small_random, wide_battery
from reuse_reference import reference_run, same_dependency_order


def toggled_pair():
    b = CircuitBuilder(2, 2)
    b.h(0).measure(0, 0).measure(1, 1).toggle(1, ((0, True),))
    return b.build()


def measured_bits(circuit):
    return [i.bit for i in circuit.instructions if isinstance(i, Measure)]


def reference_cycles(circuit, q, q_prime):
    """Whether moving wire ``q`` after a reset of ``q_prime`` cycles.

    Builds the whole merged dependency graph (wire chains with ``q_prime``,
    a reset, then ``q`` as one chain, plus read/write order on every bit) and
    runs Kahn's algorithm over it: the reference for the reuse pass's
    per-wire cycle mask.
    """
    instrs = circuit.instructions
    n = len(instrs)
    wires = facts_reference.wires(circuit)
    adjacency = [[] for _ in range(n + 1)]
    indegree = [0] * (n + 1)

    def add_edge(a, b):
        adjacency[a].append(b)
        indegree[b] += 1

    for w, positions in enumerate(wires):
        if w not in (q, q_prime):
            for a, b in zip(positions, positions[1:]):
                add_edge(a, b)
    merged = wires[q_prime] + [n] + wires[q]
    for a, b in zip(merged, merged[1:]):
        add_edge(a, b)
    for bit in range(circuit.n_clbits):
        last_write, reads_since = None, []
        for i in range(n):
            if facts_reference.written(instrs[i]) == bit:
                for r in reads_since + ([last_write] if last_write is not None else []):
                    add_edge(r, i)
                last_write, reads_since = i, []
            elif bit in facts_reference.reads(instrs[i]):
                if last_write is not None:
                    add_edge(last_write, i)
                reads_since.append(i)
    ready = [i for i in range(n + 1) if indegree[i] == 0]
    heapq.heapify(ready)
    emitted = 0
    while ready:
        node = heapq.heappop(ready)
        emitted += 1
        for nxt in adjacency[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    return emitted != n + 1


class TestFindCandidate:
    def test_toggled_pair_moves_second_onto_first(self):
        out, merges = run(toggled_pair())
        assert merges == 1
        # q0's computation stays first; q1's follows the reset.
        assert out.instructions[:3] == (toggled_pair().instructions[0], Measure(0, 0), Reset(0))

    def test_bell_pair_has_none(self, bell_measured):
        out, merges = run(bell_measured)
        assert merges == 0 and out == bell_measured

    def test_parallel_wires(self):
        # Lowest host first, then lowest mover: wires join in index order.
        b = CircuitBuilder(3, 3)
        for q in range(3):
            b.h(q).measure(q, q)
        out, merges = run(b.build())
        assert merges == 2 and out.n_qubits == 1
        assert measured_bits(out) == [0, 1, 2]

    def test_consumer_of_pending_bit_blocks_host(self):
        # q1's wire conditions on the bit q0's computation writes, so q0
        # cannot be appended after q1; the other direction works.
        b = CircuitBuilder(2, 2)
        b.h(0).measure(0, 0).p(0.3, 1, condition=((0, True),)).h(1).measure(1, 1)
        out, merges = run(b.build())
        assert merges == 1
        assert measured_bits(out) == [0, 1]
        assert isinstance(out.instructions[2], Reset)


class TestApplyReuse:
    def test_toggled_pair_merges_onto_one_wire(self):
        out, _ = run(toggled_pair())
        assert out.n_qubits == 1
        kinds = [type(i).__name__ for i in out.instructions]
        assert kinds == ["Gate", "Measure", "Reset", "Measure", "ClassicalToggle"]
        assert out.instructions[1] == Measure(0, 0)
        assert out.instructions[3] == Measure(0, 1)
        assert out.instructions[4] == ClassicalToggle(1, ((0, True),))
        assert validate(out) == []

    def test_two_parallel_computations(self):
        b = CircuitBuilder(2, 2)
        b.h(0).measure(0, 0).h(1).measure(1, 1)
        out, merges = run(b.build())
        assert out.n_qubits == 1 and merges == 1
        assert sum(isinstance(i, Reset) for i in out.instructions) == 1

    def test_qft4_transform_then_reuse(self):
        c, _ = transform.run(bench.gen_qft(4))
        out, merges = run(c)
        assert out.n_qubits == 1 and merges == 3
        assert sum(isinstance(i, Reset) for i in out.instructions) == 3

    def test_preserves_distribution(self):
        c = toggled_pair()
        out, _ = run(c)
        ok, dev = oracle.equivalent(c, out)
        assert ok, dev


def reference_inputs():
    for seed in range(300):
        for raw in (adversarial(seed), small_random(seed)):
            yield seed, raw
            yield seed, transform.run(raw)[0]


def test_cycle_mask_matches_reference_scheduler():
    decided = {True: 0, False: 0}
    for seed, c in reference_inputs():
        analysis = reuse_reference._Analysis(c)
        for q_prime in range(c.n_qubits):
            for q in range(c.n_qubits):
                if q != q_prime and analysis.independent(q, q_prime):
                    cycles = analysis.cycles(q, q_prime)
                    assert cycles == reference_cycles(c, q, q_prime), (seed, q, q_prime)
                    decided[cycles] += 1
    # Both outcomes occur, so the comparison covers accepts and rejects.
    assert decided[True] and decided[False]


def with_empty_wire(circuit, w):
    """The circuit on one more qubit, with wire ``w`` left unused."""
    def shift(q):
        return q + (q >= w)

    out = []
    for instr in circuit.instructions:
        if isinstance(instr, Gate):
            control = None if instr.control is None else shift(instr.control)
            instr = Gate(instr.kind, shift(instr.target), control, instr.condition)
        elif isinstance(instr, (Measure, Reset)):
            instr = replace(instr, qubit=shift(instr.qubit))
        out.append(instr)
    return replace(circuit, n_qubits=circuit.n_qubits + 1, instructions=tuple(out))


def test_run_matches_per_merge_reference():
    # Planning every merge on one analysis must make the reference's merge
    # decisions; only independent instructions may interleave differently.
    # An unused wire takes no part, so the compile with one matches the
    # reference's without it.
    merged = 0
    for seed, c in reference_inputs():
        expected, expected_merges = reference_run(c)
        for circuit in (c, with_empty_wire(c, seed % (c.n_qubits + 1))):
            out, merges = run(circuit)
            assert (out.n_qubits, merges) == (expected.n_qubits, expected_merges), seed
            assert same_dependency_order(out, expected), seed
            merged += merges
    assert merged


# Two hosts end at one cx, and a merge onto each resets it there.
TWO_RESETS_AFTER_ONE_CX = (
    "qubit[4] q;\nbit[2] c;\nc[1] = measure q[3];\nh q[0];\nh q[1];\ncx q[0], q[1];\n"
    "if (c[1]) x q[2];\nc[0] = measure q[2];\n"
)


def test_two_resets_after_one_instruction_follow_it_in_merge_order():
    c = parse(TWO_RESETS_AFTER_ONE_CX)
    assert reuse._plan(c.dependencies())[1] == [(2, 0), (3, 1)]
    out, merges = run(c)
    assert merges == 2
    assert emit(out) == (
        "qubit[2] q;\nbit[2] c;\nh q[0];\nh q[1];\ncx q[0], q[1];\nreset q[0];\nreset q[1];\n"
        "c[1] = measure q[1];\nif (c[1]) x q[0];\nc[0] = measure q[0];\n"
    )
    ok, dev = oracle.equivalent(c, out)
    assert ok, dev


def test_a_mover_instruction_before_the_anchor_waits_for_every_reset():
    # q2's measure precedes the cx in the input and waits only for its
    # reset. The sort-key scheduler wrote it before the cx's second reset;
    # each reset now follows the cx at once. Only the interleaving differs.
    c = parse("qubit[4] q;\nbit[1] c;\nc[0] = measure q[2];\ncx q[0], q[1];\nc[0] = measure q[3];\n")
    out, merges = run(c)
    assert merges == 2
    assert emit(out) == (
        "qubit[2] q;\nbit[1] c;\ncx q[0], q[1];\nreset q[0];\nreset q[1];\n"
        "c[0] = measure q[0];\nc[0] = measure q[1];\n"
    )
    expected, _ = reuse_reference.sort_key_run(c)
    assert emit(expected) != emit(out) and same_dependency_order(out, expected)
    ok, dev = oracle.equivalent(c, out)
    assert ok, dev


def sort_key_inputs():
    yield from schedule_battery()
    yield from wide_battery()
    for depth in (2, 3):
        for seed in range(2):
            yield bench.gen_random(bench.RandomSpec(512, depth, seed))
    theta = 2 * math.pi * 3 / 8
    for n in (*range(2, 13), 16, 32, 64):
        yield bench.gen_qft(n)
        yield bench.gen_qpe(n, theta)
        for strategy in bench.STRATEGIES:
            yield bench.gen_vqe(n, strategy)
    yield parse(TWO_RESETS_AFTER_ONE_CX)


def test_run_matches_the_sort_key_scheduler():
    # Writing each reset at once after its anchor schedules these inputs as
    # the sort with a node per reset did: the same text, source lines and
    # facts, in both modes.
    merged = 0
    for c in sort_key_inputs():
        for mode in MODES:
            s = searched(c, mode)
            out, merges = run(s)
            expected, expected_merges = reuse_reference.sort_key_run(s)
            assert (emit(out), merges) == (emit(expected), expected_merges), (c.name, mode)
            lines = [i.source_line for i in expected.instructions]
            assert [i.source_line for i in out.instructions] == lines, (c.name, mode)
            facts, fresh = out.dependencies(), Dependencies(expected)
            assert (facts.n_qubits, facts.n_clbits) == (fresh.n_qubits, fresh.n_clbits), (c.name, mode)
            assert (facts.qubits, facts.reads, facts.writes, facts.is_reset) == (
                fresh.qubits, fresh.reads, fresh.writes, fresh.is_reset
            ), (c.name, mode)
            merged += merges
    assert merged


def test_a_planned_cycle_is_refused(bell_measured, monkeypatch):
    # Wire 1's first instruction is the cx before wire 0's last: moving
    # wire 1 after wire 0 cycles, and the schedule cannot finish.
    live = reuse._plan(bell_measured.dependencies())[0]
    monkeypatch.setattr(reuse, "_plan", lambda deps: (live, [(1, 0)]))
    with pytest.raises(RuntimeError, match="cycle"):
        run(bell_measured)


def test_run_analyses_the_circuit_once(monkeypatch):
    # The transformed circuit arrives with its facts: only the input's are
    # ever computed, and reuse computes none.
    computed = []
    compute = Dependencies.__init__

    def counting(self, circuit):
        computed.append(circuit)
        compute(self, circuit)

    monkeypatch.setattr(Dependencies, "__init__", counting)
    c = bench.gen_qpe(8, 2 * math.pi * 3 / 8)
    rewritten, _ = transform.run(c)
    _, merges = run(rewritten)
    assert merges == 6 and computed == [c]


class TestRun:
    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_qpe_reaches_two_qubits(self, n):
        c, _ = transform.run(bench.gen_qpe(n, 2 * math.pi * 3 / 8))
        out, _ = run(c)
        assert out.n_qubits == 2

    def test_fully_entangled_circuit_has_no_reuse(self):
        # Every pair interacts, so every wire's forward cone covers them all.
        b = CircuitBuilder(3, 3)
        b.h(0).cx(0, 1).cx(0, 2).cx(1, 2)
        for q in range(3):
            b.measure(q, q)
        out, merges = run(b.build())
        assert merges == 0 and out.n_qubits == 3

    def test_chain_entangled_circuit_reuses_the_finished_wire(self):
        # A chain leaves the last wire's cone clear of the first wire, so one
        # merge is found; the outcome distribution must survive it.
        b = CircuitBuilder(3, 3)
        b.h(0).cx(0, 1).cx(1, 2)
        for q in range(3):
            b.measure(q, q)
        c = b.build()
        out, merges = run(c)
        assert merges == 1 and out.n_qubits == 2
        ok, dev = oracle.equivalent(c, out)
        assert ok, dev

    def test_vqe_full_after_transform(self):
        c, _ = transform.run(bench.gen_vqe(6, "full"))
        out, _ = run(c)
        assert out.n_qubits == 1

    def test_two_qubit_count_unchanged(self, bell_measured):
        b = CircuitBuilder(3, 3)
        b.h(0).cx(0, 1).measure(0, 0).measure(1, 1).h(2).measure(2, 2)
        c = b.build()
        out, merges = run(c)
        assert merges >= 1
        assert two_qubit_gate_count(out) == two_qubit_gate_count(c)

    def test_idempotent_in_qubit_count(self):
        c, _ = transform.run(bench.gen_qft(5))
        once, _ = run(c)
        twice, again = run(once)
        assert twice.n_qubits == once.n_qubits and again == 0

    def test_unused_wire_is_dropped(self):
        b = CircuitBuilder(2, 1)
        b.h(0).measure(0, 0)
        out, merges = run(b.build())
        assert merges == 0 and out.n_qubits == 1
        assert out.instructions == b.build().instructions
        ok, dev = oracle.equivalent(b.build(), out)
        assert ok, dev


class TestIdleWires:
    def test_nothing_to_do_returns_the_input_itself(self, bell_measured):
        # No merge and no idle wire: the input comes back as it is. One idle
        # wire makes a narrower output, so a new circuit.
        assert run(bell_measured)[0] is bell_measured
        spread = with_empty_wire(bell_measured, 1)
        out, merges = run(spread)
        assert out is not spread and merges == 0
        assert (out.n_qubits, out.instructions) == (2, bell_measured.instructions)

    def test_idle_wires_get_no_output_wire_and_no_reset(self):
        c = parse("qubit[64] q;\nbit[1] c;\nx q[63];\nc[0] = measure q[63];\n")
        out, merges = run(c)
        assert (out.n_qubits, merges, depth(out)) == (1, 0, 2)
        assert not any(isinstance(i, Reset) for i in out.instructions)

    def test_inserted_idle_wires_leave_the_compile_unchanged(self):
        # Idle wires spread among the live ones, which keep their order.
        for k, c in enumerate(schedule_battery()):
            spread = c
            for w in (k % (c.n_qubits + 1), 0, c.n_qubits + 2):
                spread = with_empty_wire(spread, w)
            for mode in MODES:
                out, r = optimize(c, mode)
                spread_out, spread_r = optimize(spread, mode)
                assert spread_out.n_qubits == out.n_qubits, (c.name, mode)
                assert spread_out.instructions == out.instructions, (c.name, mode)
                assert (spread_r.reuse_count, spread_r.rule_counts) == (r.reuse_count, r.rule_counts)

    def test_idle_wires_are_not_planned(self):
        # One gate on a 65,536-qubit register: a single live wire, so the
        # plan tests no pair. The count is of executions of the pair test.
        c = one_gate_file(MAX_REGISTER, [7])
        (out, merges), tested = count_executions(reuse._plan, "pair test", lambda: run(c), 100)
        assert tested == 0
        assert (out.n_qubits, merges) == (1, 0)

    def test_merges_visit_no_absorbed_group(self):
        # One gate on each of 256 wires: every wire merges onto wire 0 in
        # its sweep, and the one update after it visits the one group left.
        # An update after each merge visited 32,895 groups.
        c = one_gate_file(256, range(256))
        (out, merges), visits = count_executions(reuse._plan, "propagation", lambda: run(c), 1)
        assert (out.n_qubits, merges) == (1, 255)
        assert visits == 1


# Per circuit of 4,096 wires: merges, then the executions of the planner's
# pair test, of its per-host update and of the first-met split.
WORK_4096 = {
    "one gate per wire": (4095, 4095, 1, 0),
    "random d2 baseline": (4052, 103_630, 99_761, 110_397),
    "random d2 proposed": (4095, 29_295, 25_425, 0),
}


def test_plan_work_at_4096_wires():
    # The planner's work is pinned, not its time: each surviving host tests
    # every unabsorbed group once and updates them once, and each group
    # that first meets a mover's wires costs one split test per halving.
    random = bench.gen_random(bench.RandomSpec(4096, 2, 1))
    circuits = {
        "one gate per wire": one_gate_file(4096, range(4096)),
        "random d2 baseline": random,
        "random d2 proposed": transform.run(random)[0],
    }
    for name, c in circuits.items():
        deps = c.dependencies()
        merges, *work = WORK_4096[name]
        counted = []
        for function, marker, limit in zip(
            (reuse._plan, reuse._plan, reuse._first_met), ("pair test", "propagation", "split test"), work
        ):
            (_, planned), executed = count_executions(function, marker, lambda: reuse._plan(deps), limit)
            assert len(planned) == merges, name
            counted.append(executed)
        assert counted == work, name


def one_gate_file(n, live):
    """A ``qubit[n]`` file with one X gate on each wire in ``live``."""
    gates = "".join(f"x q[{w}];\n" for w in live)
    return parse(f"qubit[{n}] q;\nbit[0] c;\n{gates}")


def plan_inputs():
    yield from schedule_battery()
    yield from wide_battery()
    yield from (bench.gen_qft(16), bench.gen_qpe(16, 2 * math.pi * 3 / 8), bench.gen_vqe(16, "full"))
    # Hosts that take hundreds of movers, with groups that first meet a
    # mover's wires late in the sweep.
    yield from (bench.gen_random(bench.RandomSpec(512, depth, 1)) for depth in (2, 3))


def test_plan_matches_the_full_rescan():
    # Scanning only unabsorbed groups, and updating them once per host, must
    # make the per-merge rescan's merges, in the same order, before and after
    # the rewrites; idle wires interleaved with live ones in the one-gate files.
    def plans(c):
        deps = c.dependencies()
        return reuse._plan(deps)[1], reuse_reference.plan_scan(c)

    merged = 0
    for c in plan_inputs():
        for circuit in (c, transform.run(c)[0]):
            got, expected = plans(circuit)
            assert got == expected, circuit.name
            merged += len(got)
    for n in (64, 128, 256, 512):
        for live in (range(0, n, 2), [w for w in range(n) if w % 5 in (1, 2, 4)]):
            got, expected = plans(one_gate_file(n, live))
            assert got == expected and len(got) == len(live) - 1, n
    assert merged


def test_wire_masks_match_the_reference_analysis():
    # The one backward pass against the per-wire masks the reference builds
    # from its own scheduling edges and forward reach, before and after the
    # rewrites (which add toggles, conditions and removed gates).
    inputs = (*schedule_battery(), *wide_battery(), *(adversarial(s) for s in range(400, 600)))
    for c in inputs:
        for circuit in (c, transform.run(c)[0]):
            live, reach, accessed, blocked = reuse._wire_masks(circuit.dependencies())
            expected = reuse_reference._Analysis(circuit)
            assert live == [w for w, positions in enumerate(expected.wires) if positions], circuit.name
            assert reach == [expected.reach_bits[w] for w in live], circuit.name
            assert accessed == [expected.wire_bits[w] for w in live], circuit.name
            assert blocked == [expected.blocked[w] for w in live], circuit.name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_run_preserves_distribution(seed):
    c = small_random(seed)
    out, merges = run(c)
    assert validate(out) == []
    assert 1 <= out.n_qubits <= c.n_qubits
    assert out.n_qubits == c.n_qubits - merges
    ok, dev = oracle.equivalent(c, out)
    assert ok, dev


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_run_after_transform_preserves_distribution(seed):
    c = small_random(seed)
    rewritten, _ = transform.run(c)
    out, _ = run(rewritten)
    assert validate(out) == []
    ok, dev = oracle.equivalent(c, out)
    assert ok, dev


# -- The exact yardstick (reuse_optimum) --

def searched(c, mode: str):
    """The circuit reuse runs on in ``mode``."""
    return transform.run(c)[0] if mode == "proposed" else c


def yardstick_battery():
    """The schedule battery's circuits within the search's wire cap, and
    random circuits of 6 and 8 qubits."""
    for c in schedule_battery():
        if c.n_qubits <= reuse_optimum.MAX_WIRES:
            yield c
    for n in (6, 8):
        for d in (2, 4):
            for seed in range(10):
                yield bench.gen_random(bench.RandomSpec(n, d, seed))


# Per mode, how many yardstick battery circuits the greedy planner leaves
# 0, 1 or 2 wires above the optimum. A better planner moves weight to 0;
# the counts are then read again from the test.
GAPS = {"proposed": {0: 687, 1: 139, 2: 14}, "baseline": {0: 760, 1: 74, 2: 6}}


def test_yardstick_on_known_circuits():
    independent = CircuitBuilder(3, 2).h(0).measure(0, 0).h(2).measure(2, 1).build()
    [chain] = reuse_optimum.optimum(independent)
    assert sorted(chain) == [0, 2]
    assert reuse_optimum.optimum(cx_pair()) == [[0], [1]]
    with pytest.raises(ValueError, match="cyclic"):
        reuse_optimum.arrange(cx_pair(), [[0, 1]])
    # Wire 0 reads the bit wire 1 writes, so on one wire, wire 1 runs first.
    ordered = CircuitBuilder(2, 1).h(1).measure(1, 0).x(0, condition=((0, True),)).build()
    assert reuse_optimum.optimum(ordered) == [[1, 0]]
    out = reuse_optimum.arrange(ordered, [[1, 0]])
    assert out.n_qubits == 1 and sum(isinstance(i, Reset) for i in out.instructions) == 1


@pytest.mark.parametrize("mode", MODES)
def test_greedy_reuse_is_never_below_the_optimum(mode):
    gaps = Counter()
    for c in yardstick_battery():
        s = searched(c, mode)
        chains = reuse_optimum.optimum(s)
        gap = run(s)[0].n_qubits - len(chains)
        assert gap >= 0, (c.name, chains)
        gaps[gap] += 1
        arranged = reuse_optimum.arrange(s, chains)
        assert arranged.n_qubits == len(chains) and validate(arranged) == []
        ok, dev = oracle.equivalent(s, arranged)
        assert ok, (c.name, chains, dev)
    assert gaps == GAPS[mode]


@pytest.mark.parametrize("mode", MODES)
def test_greedy_reuse_is_optimal_on_the_paper_families(mode):
    theta = 2 * math.pi * 3 / 8
    for n in (4, 6, 8):
        families = [bench.gen_qpe(n, theta), bench.gen_qpe(n, theta, single_p=True), bench.gen_qft(n)]
        for c in families + [bench.gen_vqe(n, strategy) for strategy in bench.STRATEGIES]:
            s = searched(c, mode)
            chains = reuse_optimum.optimum(s)
            assert run(s)[0].n_qubits == len(chains), (c.name, chains)
            ok, dev = oracle.equivalent(s, reuse_optimum.arrange(s, chains))
            assert ok, (c.name, chains, dev)
