import dataclasses
import hashlib
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qreuse import bench, oracle
from qreuse.ir import Circuit, Dependencies, Gate, Measure, Reset, two_qubit_gate_count, validate
from qreuse.pipeline import MODES, optimize
from qreuse.qasm import emit, parse

import metrics_reference
from conftest import adversarial, schedule_battery, small_random, wide_battery


GOLDEN = Path(__file__).parent / "golden" / "optimize"

GOLDEN_INPUTS = {
    "qpe8": lambda: bench.gen_qpe(8, 2 * math.pi * 3 / 8),
    "qft8": lambda: bench.gen_qft(8),
    "vqe-full6": lambda: bench.gen_vqe(6, "full"),
    "random-n8-d4-s7": lambda: bench.gen_random(bench.RandomSpec(8, 4, 7)),
    # adversarial seeds whose circuits contain resets and toggles
    "adv13": lambda: adversarial(13),
    "adv30": lambda: adversarial(30),
}


# Regenerate, only for a change that means to alter outputs, with
#   PYTHONPATH=src:tests python -c "import test_pipeline as t; print(t.battery_digest())" \
#       > tests/golden/optimize/schedule_battery.sha256
#   PYTHONPATH=src:tests python -c "import test_pipeline as t; print(t.battery_digest(t.wide_battery()))" \
#       > tests/golden/optimize/wide_battery.sha256
BATTERY_DIGEST = GOLDEN / "schedule_battery.sha256"
WIDE_DIGEST = GOLDEN / "wide_battery.sha256"


def battery_digest(circuits=None) -> str:
    """One sha256 over the emitted output and every report count of each
    compile of ``circuits`` (default: the schedule battery), in both modes."""
    digest = hashlib.sha256()
    for c in schedule_battery() if circuits is None else circuits:
        for mode in MODES:
            out, r = optimize(c, mode)
            # Baseline reports its input's count without counting again.
            assert r.g2_reused == two_qubit_gate_count(out), (c.name, mode)
            counts = (
                r.n_original, r.n_reused, r.d_original, r.d_reused,
                r.g2_original, r.g2_reused, r.reuse_count, sorted(r.rule_counts.items()),
            )
            digest.update(emit(out).encode())
            digest.update(repr(counts).encode())
    return digest.hexdigest()


def test_schedule_battery_replays_its_digest():
    # Byte-for-byte on 1,608 compiles: emitted text and report counts.
    assert battery_digest() == BATTERY_DIGEST.read_text(encoding="utf-8").strip()


def test_wide_battery_replays_its_digest():
    # Byte-for-byte on 60 compiles of up to 120 qubits, where most wires merge.
    assert battery_digest(wide_battery()) == WIDE_DIGEST.read_text(encoding="utf-8").strip()


@pytest.mark.parametrize(
    "name,mode",
    [("qpe8", "proposed"), ("qft8", "proposed"), ("vqe-full6", "proposed")]
    + [(name, mode) for name in ("random-n8-d4-s7", "adv13", "adv30") for mode in MODES],
)
def test_output_matches_golden(name, mode):
    # Byte-for-byte: refactors of the passes must not change emitted text.
    out, _ = optimize(GOLDEN_INPUTS[name](), mode)
    assert emit(out) == (GOLDEN / f"{name}.{mode}.qasm").read_text(encoding="utf-8")


@pytest.mark.parametrize("mode", MODES)
def test_optimize_computes_each_fact_once(monkeypatch, mode):
    # Only the input's facts are computed; every pass hands its output's
    # facts to the next, and the report's scans read them.
    computed = []
    compute = Dependencies.__init__

    def counting(self, circuit):
        computed.append(circuit)
        compute(self, circuit)

    monkeypatch.setattr(Dependencies, "__init__", counting)
    for c in (bench.gen_qft(8), bench.gen_vqe(6, "full"), adversarial(13), small_random(7)):
        c = parse(emit(c))
        computed.clear()
        optimize(c, mode)
        assert computed == [c], (c.name, mode)


def test_report_metrics_match_standalone_scans():
    for c in schedule_battery():
        for mode in MODES:
            out, r = optimize(c, mode)
            assert (r.d_original, r.g2_original) == (
                metrics_reference.depth(c), metrics_reference.two_qubit_gate_count(c)
            ), (c.name, mode)
            assert (r.d_reused, r.g2_reused) == (
                metrics_reference.depth(out), metrics_reference.two_qubit_gate_count(out)
            ), (c.name, mode)


def test_rewrites_keep_source_lines():
    # The conditioned X takes the CX's line, the toggle the X's, and the
    # reset the line of the moved wire's first instruction.
    text = "qubit[2] q;\nbit[2] c;\nh q[0];\nc[0] = measure q[0];\ncx q[0], q[1];\nc[1] = measure q[1];\n"
    out, _ = optimize(parse(text))
    assert [i.source_line for i in out.instructions] == [3, 4, 6, 6, 5]


@pytest.mark.parametrize("mode", MODES)
def test_every_output_instruction_has_a_source_line(mode):
    for seed in range(200):
        for c in (adversarial(seed), small_random(seed)):
            out, _ = optimize(parse(emit(c)), mode)
            assert None not in [i.source_line for i in out.instructions], (c.name, mode)


def test_qpe4_proposed_and_baseline():
    c = bench.gen_qpe(4, 2 * math.pi * 3 / 8)
    _, proposed = optimize(c, "proposed")
    _, baseline = optimize(c, "baseline")
    assert proposed.n_reused == 2
    assert baseline.n_reused == 4
    assert proposed.n_original == baseline.n_original == 4


def test_qft8_proposed():
    _, report = optimize(bench.gen_qft(8), "proposed")
    assert report.n_reused == 1
    assert report.d_original == 16


def test_empty_circuit():
    out, report = optimize(Circuit(0, 0), "proposed")
    assert out.instructions == ()
    assert report.n_original == report.n_reused == 0
    assert report.reuse_count == 0
    assert sum(report.rule_counts.values()) == 0


def test_unknown_mode():
    with pytest.raises(ValueError):
        optimize(Circuit(1, 1), "best-effort")


def test_report_fields_consistent():
    c = bench.gen_vqe(4, "linear")
    out, report = optimize(c)
    assert validate(out) == []
    assert report.n_reused == out.n_qubits <= report.n_original
    assert report.g2_reused <= report.g2_original
    assert report.wall_time >= 0
    assert report.reuse_count == report.n_original - report.n_reused


def test_reports_deterministic_modulo_wall_time():
    c = bench.gen_random(bench.RandomSpec(6, 5, seed=11))
    out1, rep1 = optimize(c)
    out2, rep2 = optimize(c)
    assert out1 == out2
    rep1.wall_time = rep2.wall_time = 0.0
    assert rep1 == rep2


def test_deep_random_instance_dominance():
    # Deep circuits leave little to reuse, but proposed never loses ground.
    c = bench.gen_random(bench.RandomSpec(20, 26, seed=1))
    _, proposed = optimize(c, "proposed")
    _, baseline = optimize(c, "baseline")
    assert proposed.n_reused <= baseline.n_reused
    assert proposed.g2_reused <= baseline.g2_reused


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_proposed_dominates_baseline(seed):
    c = small_random(seed)
    _, proposed = optimize(c, "proposed")
    _, baseline = optimize(c, "baseline")
    assert proposed.n_reused <= baseline.n_reused
    assert proposed.g2_reused <= baseline.g2_reused


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_proposed_output_equivalent(seed):
    c = small_random(seed)
    out, _ = optimize(c)
    ok, dev = oracle.equivalent(c, out)
    assert ok, dev


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_adversarial_circuits_survive_both_modes(seed):
    # Re-measurement, mid-circuit resets, negated conditions, and toggles;
    # the hazard guards must keep every rewrite outcome-preserving.
    c = adversarial(seed)
    for mode in ("proposed", "baseline"):
        out, _ = optimize(c, mode)
        assert validate(out) == []
        ok, dev = oracle.equivalent(c, out)
        assert ok, (mode, dev)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(MODES))
def test_second_optimize_never_adds_qubits(seed, mode):
    for c in (adversarial(seed), small_random(seed)):
        once, _ = optimize(c, mode)
        twice, _ = optimize(once, mode)
        assert twice.n_qubits <= once.n_qubits, (c.name, mode)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(MODES))
def test_optimized_output_round_trips(seed, mode):
    for c in (adversarial(seed), small_random(seed)):
        out, _ = optimize(c, mode)
        assert parse(emit(out)) == out, (c.name, mode)


def relabelled(circuit, qubit=lambda q: q, bit=lambda b: b):
    """The circuit's instructions with every qubit and bit renamed by the
    two maps."""
    def literals(pairs):
        return tuple((bit(b), value) for b, value in pairs)

    out = []
    for instr in circuit.instructions:
        if isinstance(instr, Gate):
            control = None if instr.control is None else qubit(instr.control)
            target, condition = qubit(instr.target), literals(instr.condition)
            instr = dataclasses.replace(instr, target=target, control=control, condition=condition)
        elif isinstance(instr, Measure):
            instr = dataclasses.replace(instr, qubit=qubit(instr.qubit), bit=bit(instr.bit))
        elif isinstance(instr, Reset):
            instr = dataclasses.replace(instr, qubit=qubit(instr.qubit))
        else:
            instr = dataclasses.replace(instr, target=bit(instr.target), product=literals(instr.product))
        out.append(instr)
    return circuit.with_instructions(out)


def report_counts(report):
    return dataclasses.astuple(dataclasses.replace(report, wall_time=0.0))


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_bit_relabelling_commutes_with_optimize(mode, seed, data):
    # No pass orders anything by bit label: renaming the classical bits
    # renames the output's bits the same way and changes no count.
    for c in (adversarial(seed), small_random(seed), bench.gen_random(bench.RandomSpec(16, 4, seed))):
        perm = data.draw(st.permutations(range(c.n_clbits)))
        out, report = optimize(c, mode)
        permuted_out, permuted_report = optimize(relabelled(c, bit=perm.__getitem__), mode)
        assert report_counts(permuted_report) == report_counts(report), (c.name, mode)
        assert permuted_out.instructions == relabelled(out, bit=perm.__getitem__).instructions, (c.name, mode)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_disjoint_union_needs_no_more_qubits_than_its_parts(mode, seed):
    # Two circuits on disjoint registers, one after the other: reuse may
    # find merges across them, but must not lose any within either.
    a, b = small_random(seed), adversarial(seed + 1000)
    union = Circuit(
        a.n_qubits + b.n_qubits,
        a.n_clbits + b.n_clbits,
        a.instructions + relabelled(b, lambda q: q + a.n_qubits, lambda x: x + a.n_clbits).instructions,
    )
    n_union = optimize(union, mode)[0].n_qubits
    assert n_union <= optimize(a, mode)[0].n_qubits + optimize(b, mode)[0].n_qubits, mode
