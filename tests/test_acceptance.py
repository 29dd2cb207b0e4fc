"""End-to-end acceptance suite.

One test per shipping criterion; each prints a PASS line when its
assertions hold so `pytest -s tests/test_acceptance.py` reads as a
checklist.
"""

import math
import time
from pathlib import Path

import pytest

from qreuse import bench, commute, oracle, pipeline, qasm, reuse, transform

GOLDEN = Path(__file__).parent / "golden"

QPE_SIZES = (4, 6, 8, 10, 20)
QPE_DEPTHS = {4: 9, 6: 18, 8: 31, 10: 48, 20: 193}
THETA = 2 * math.pi * 3 / 8


def _report(criterion: str) -> None:
    print(f"[acceptance] {criterion}: PASS")


def _random_instances():
    """200 seeded circuits with n <= 6 and depth <= 10."""
    specs = []
    for seed in range(200):
        n = 2 + seed % 5          # 2..6
        d = 2 + seed % 9          # 2..10
        specs.append(bench.RandomSpec(n, d, seed))
    return specs


def test_criterion_1_qpe_reduction_and_runtime():
    for n in QPE_SIZES:
        circuit = bench.gen_qpe(n, THETA)
        _, proposed = pipeline.optimize(circuit, "proposed")
        _, baseline = pipeline.optimize(circuit, "baseline")
        assert proposed.n_reused == 2, f"qpe{n}: proposed {proposed.n_reused}"
        assert baseline.n_reused == n, f"qpe{n}: baseline {baseline.n_reused}"
    big = bench.gen_qpe(50, THETA)
    start = time.perf_counter()
    _, report = pipeline.optimize(big, "proposed")
    elapsed = time.perf_counter() - start
    assert report.n_reused == 2
    assert elapsed < 1.0, f"qpe50 took {elapsed:.3f}s"
    _report(f"criterion 1 (QPE: always 2 qubits, baseline none; qpe50 in {elapsed * 1000:.0f}ms)")


def test_criterion_2_qft_reduction_and_depths():
    for n in QPE_SIZES:
        circuit = bench.gen_qft(n)
        _, proposed = pipeline.optimize(circuit, "proposed")
        assert proposed.n_reused == 1, f"qft{n}: {proposed.n_reused}"
        assert proposed.d_original == 2 * n, f"qft{n}: depth {proposed.d_original}"
        qpe_depth = pipeline.optimize(bench.gen_qpe(n, THETA), "baseline")[1].d_original
        assert abs(qpe_depth - QPE_DEPTHS[n]) <= 2, f"qpe{n}: depth {qpe_depth}"
    _report("criterion 2 (QFT: 1 qubit, depth exactly 2n; QPE depths within +/-2)")


def test_criterion_3_single_phase_gate_special_case():
    for n in (4, 6):
        circuit = bench.gen_qpe(n, THETA, single_p=True)
        out, report = pipeline.optimize(circuit, "proposed")
        assert report.n_reused == 1, f"single-p qpe{n}: {report.n_reused}"
    ok, dev = oracle.equivalent(
        bench.gen_qpe(4, THETA, single_p=True),
        pipeline.optimize(bench.gen_qpe(4, THETA, single_p=True))[0],
    )
    assert ok, dev
    _report("criterion 3 (phase-gate estimation collapses to a single qubit)")


def test_criterion_4_vqe_strategy_column():
    expected = {"circular": 2, "pairwise": 2, "linear": 1, "reverse-linear": 2, "full": 1}
    for strategy, target in expected.items():
        for n in (4, 8, 12):
            _, report = pipeline.optimize(bench.gen_vqe(n, strategy), "proposed")
            assert report.n_reused == target, (strategy, n, report.n_reused)
    _report("criterion 4 (ansatz column 2/2/1/2/1, invariant across n in {4, 8, 12})")


def test_criterion_5_semantic_equivalence_battery():
    start = time.perf_counter()
    worst = 0.0
    for spec in _random_instances():
        circuit = bench.gen_random(spec)
        out, _ = pipeline.optimize(circuit, "proposed")
        ok, dev = oracle.equivalent(circuit, out)
        worst = max(worst, dev)
        assert ok, (spec, dev)

    qpe = bench.gen_qpe(4, THETA)
    qpe_out, _ = pipeline.optimize(qpe)
    assert oracle.distribution(qpe)["011"] == pytest.approx(1.0)
    assert oracle.distribution(qpe_out)["011"] == pytest.approx(1.0)

    for family in [bench.gen_qft(5)] + [bench.gen_vqe(4, s) for s in bench.STRATEGIES]:
        out, _ = pipeline.optimize(family)
        ok, dev = oracle.equivalent(family, out)
        worst = max(worst, dev)
        assert ok, (family.name, dev)

    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 120, f"equivalence battery took {elapsed:.1f}s"
    _report(
        f"criterion 5 (200 random + generator families equivalent; worst TV {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_6_dominance_over_baseline():
    specs = _random_instances() + [bench.RandomSpec(30, 2, seed) for seed in range(1, 6)]
    for spec in specs:
        circuit = bench.gen_random(spec)
        _, proposed = pipeline.optimize(circuit, "proposed")
        _, baseline = pipeline.optimize(circuit, "baseline")
        assert proposed.n_reused <= baseline.n_reused, (spec, proposed.n_reused, baseline.n_reused)
        assert proposed.g2_reused <= baseline.g2_reused, (spec, proposed.g2_reused, baseline.g2_reused)
    _report("criterion 6 (proposed never worse than reuse-only on any tested instance)")


# Inputs on which proposed mode keeps more qubits than reuse alone (ROADMAP
# item 3): 3 against 2, and 17 against 16.
CRITERION_6_FAILURES = {
    "five-instructions": lambda: qasm.parse(
        "qubit[3] q; bit[2] c; c[0] = measure q[0]; cx q[0], q[1]; cx q[1], q[0];"
        " c[0] = measure q[2]; c[0] = measure q[0];"
    ),
    "random-n32-d8": lambda: bench.gen_random(bench.RandomSpec(32, 8, 1271847596999488994)),
}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="criterion 6 fails here until ROADMAP item 3 lands")
@pytest.mark.parametrize("name", CRITERION_6_FAILURES)
def test_criterion_6_known_failures(name):
    circuit = CRITERION_6_FAILURES[name]()
    _, proposed = pipeline.optimize(circuit, "proposed")
    _, baseline = pipeline.optimize(circuit, "baseline")
    assert proposed.n_reused <= baseline.n_reused, (proposed.n_reused, baseline.n_reused)


def test_criterion_7_sparse_random_reduction():
    reductions = []
    for seed in range(1, 6):
        circuit = bench.gen_random(bench.RandomSpec(30, 2, seed))
        _, report = pipeline.optimize(circuit, "proposed")
        reductions.append(1.0 - report.n_reused / report.n_original)
    mean = sum(reductions) / len(reductions)
    assert mean >= 0.80, reductions
    _report(f"criterion 7 (n=30 d=2 mean qubit reduction {mean:.1%} >= 80%)")


def _golden(name: str):
    return qasm.parse((GOLDEN / name).read_text(encoding="utf-8"))


def test_criterion_8_rule_goldens():
    cases = [
        ("commute_diagonal", lambda c: commute.run(c)[0]),
        ("commute_bitflip", lambda c: commute.run(c)[0]),
        ("commute_controlled", lambda c: commute.run(c)[0]),
        ("transform_dead", lambda c: transform.eliminate_dead_gates(c)[0]),
        ("transform_intro", lambda c: transform.introduce_classical_controls(c)[0]),
        ("transform_exchange", lambda c: transform.exchange_controls(c)[0]),
    ]
    for name, apply in cases:
        produced = apply(_golden(f"{name}.in.qasm"))
        expected = _golden(f"{name}.out.qasm")
        assert produced.instructions == expected.instructions, name

    # The worked four-stage sequence: start, after control introduction,
    # after the second commute round and dead-gate elimination, after reuse.
    stage_a = _golden("cx_pair_stage_a.qasm")
    moved, _ = commute.run(stage_a)
    stage_b, _ = transform.introduce_classical_controls(moved)
    assert stage_b.instructions == _golden("cx_pair_stage_b.qasm").instructions
    flipped, _ = commute.run(stage_b)
    stage_c, _ = transform.eliminate_dead_gates(flipped)
    assert stage_c.instructions == _golden("cx_pair_stage_c.qasm").instructions
    stage_d, merges = reuse.run(stage_c)
    assert merges == 1
    assert stage_d.n_qubits == 1
    assert stage_d.instructions == _golden("cx_pair_stage_d.qasm").instructions
    ok, dev = oracle.equivalent(stage_a, stage_d)
    assert ok, dev
    _report("criterion 8 (six rule goldens and the four-stage worked example match)")


def test_criterion_9_roundtrip_on_1000_circuits():
    for seed in range(1000):
        spec = bench.RandomSpec(1 + seed % 8, 1 + seed % 6, seed)
        circuit = bench.gen_random(spec)
        text = qasm.emit(circuit)
        again = qasm.parse(text)
        assert again == circuit, spec
        assert qasm.emit(again) == text, spec
    _report("criterion 9 (1000 random circuits round-trip byte-identically)")
