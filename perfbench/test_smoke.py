"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

Covers every workload in both modes of the driver, the self-time arithmetic,
the growth fit, and the checker: a deleted gate and a count that changes
between passes must each count as a failed compile.
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qreuse import pipeline, qasm  # noqa: E402
from qreuse.ir import Gate  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import ROOT, Span, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup_repeat(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_clean(workload, trace):
    result = run.execute(workload, seed=3, seconds=0.0, trace=trace, tiny=True)["result"]
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] == 2 * len(workloads.build(workload, 3, tiny=True))
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_repeat_for_a_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 11, tiny=True)
        assert [j.circuit for j in first] == [j.circuit for j in workloads.build(workload, 11, tiny=True)]
        assert [j.circuit for j in first] != [j.circuit for j in workloads.build(workload, 12, tiny=True)]


def test_self_time_subtracts_children_and_keeps_the_remainder():
    spans = [
        Span(ROOT, 0.0, 10.0, None, "j"),
        Span("pipeline.optimize", 1.0, 7.0, 0, "j"),
        Span("reuse.run", 2.0, 5.0, 1, "j"),
        Span("pipeline.depth", 5.5, 6.0, 1, "j"),
        Span("qasm.emit", 8.0, 9.0, 0, "j"),
    ]
    selfs = self_times(spans, {"j": 1.0})
    assert selfs == pytest.approx(
        {"unattributed": 3.0, "pipeline": 2.5 + 0.5, "reuse": 3.0, "qasm": 1.0}
    )
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_growth_exponent_is_the_log_log_slope():
    small = workloads.build("families", 1, tiny=True)
    qft = [j for j in small if j.group == "qft/proposed"]
    n = [len(j.circuit.instructions) for j in qft]
    times = {qft[0].id: 1.0, qft[1].id: (n[1] / n[0]) ** 2}
    assert run.growth_exponent(small, times) == pytest.approx(2.0)


def _drop_first_gate(optimize):
    def broken(circuit, mode="proposed"):
        out, report = optimize(circuit, mode)
        instrs = list(out.instructions)
        first = next(i for i, instr in enumerate(instrs) if isinstance(instr, Gate))
        del instrs[first]
        return out.with_instructions(instrs), report

    return broken


def test_deleted_gate_counts_as_failed(monkeypatch):
    jobs = [j for j in workloads.build("verify", 5, tiny=True) if j.keeps_gates]
    texts = {j.id: qasm.emit(j.circuit) for j in jobs}
    monkeypatch.setattr(pipeline, "optimize", _drop_first_gate(pipeline.optimize))
    ledger = run.Ledger()
    run.run_pass(jobs, texts, ledger, HostSpeed())
    assert ledger.attempted == len(jobs)
    assert ledger.failed == len(jobs)
    assert any("total variation" in m for m in ledger.messages)
    assert any("gate count" in m for m in ledger.messages)


def test_family_check_catches_a_deleted_gate_without_the_oracle():
    job = next(j for j in workloads.build("families", 5, tiny=True) if j.keeps_gates)
    assert not job.verify
    out, report = _drop_first_gate(pipeline.optimize)(job.circuit)
    outcome = checks.Outcome(job.circuit, out, report, qasm.emit(out))
    assert any("gate count" in e for e in checks.check(job, outcome))


def test_count_change_between_passes_counts_as_failed(monkeypatch):
    jobs = workloads.build("families", 5, tiny=True)
    texts = {j.id: qasm.emit(j.circuit) for j in jobs}
    ledger = run.Ledger()
    run.run_pass(jobs, texts, ledger, HostSpeed())
    assert ledger.failed == 0
    optimize = pipeline.optimize

    def drifting(circuit, mode="proposed"):
        out, report = optimize(circuit, mode)
        return out, dataclasses.replace(report, reuse_count=report.reuse_count + 1)

    monkeypatch.setattr(pipeline, "optimize", drifting)
    run.run_pass(jobs, texts, ledger, HostSpeed())
    assert ledger.failed == len(jobs)
    assert all("differ between passes" in m for m in ledger.messages)


def test_dominance_flags_a_worse_proposed_compile():
    rep = pipeline.PassReport(5, 3, 9, 9, 4, 2)
    assert checks.dominance(rep, dataclasses.replace(rep, n_reused=4)) == []
    assert checks.dominance(rep, dataclasses.replace(rep, n_reused=2))
    assert checks.dominance(rep, dataclasses.replace(rep, g2_reused=1))


def test_refuses_to_run_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-dir")
    code = run.main(["--workload", "families", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
