#!/usr/bin/env python3
"""qreuse benchmark: time what ``qreuse optimize [--verify]`` costs a user.

    python3 perfbench/run.py --workload families --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is imported from ``src/``. The
driver generates the workload's circuits from ``--seed`` and renders them as
QASM text (set-up), then repeats passes over the workload until
``--seconds`` is used up, at least two. Each job in a pass is the path the
command line takes: ``qasm.parse`` -> ``pipeline.optimize`` -> ``qasm.emit``,
plus ``oracle.equivalent`` where the workload verifies. Every output is
checked (``checks.py``) and every count must repeat exactly between passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate; the traced ones record
spans around each layer (``tracer.py``) and the last line carries the
per-layer metrics. Spans are written to ``perfbench/out/`` at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_REPEATS = 5
MIN_PASSES = 2

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import qreuse\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "optimize_s": "s",
    "optimize_max_s": "s",
    "instr_per_s": "instr/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "qubits_out": "count",
    "depth_out": "count",
    "g2_out": "count",
}

COMMUTE_RULES = ("diagonal", "bit_flip", "y_decompose", "controlled_on_control")
LAYERS = ("qasm", "pipeline", "transform", "commute", "reuse", "oracle")


@dataclass(slots=True)
class Pass:
    traced: bool
    # job id -> (parse, optimize, emit, verify) seconds
    times: dict[str, tuple[float, float, float, float]] = field(default_factory=dict)
    # job id -> host-speed factor (see hostspeed.py)
    factors: dict[str, float] = field(default_factory=dict)
    reports: dict[str, object] = field(default_factory=dict)
    outputs: dict[str, int] = field(default_factory=dict)
    tracer: object = None
    seconds: float = 0.0

    def wall(self) -> float:
        return sum(sum(t) * self.factors[j] for j, t in self.times.items())


def set_up(workload: str, seed: int, tiny: bool, speed):
    """Import the package, generate the jobs and render their QASM text.

    Repeated ``SETUP_REPEATS`` times; the import is timed in a fresh
    interpreter each time. Returns the last build's jobs and texts and the
    median set-up and generation seconds as ``(adjusted, raw)`` pairs.
    """
    from qreuse import qasm
    import workloads

    setup, gen = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        begun = time.perf_counter()
        jobs = workloads.build(workload, seed, tiny)
        generated = time.perf_counter()
        by_circuit: dict[int, str] = {}
        texts = {}
        for job in jobs:
            if id(job.circuit) not in by_circuit:
                by_circuit[id(job.circuit)] = qasm.emit(job.circuit)
            texts[job.id] = by_circuit[id(job.circuit)]
        end = time.perf_counter()
        setup.append((start, end, float(probe.stdout) + end - begun))
        gen.append((start, end, generated - begun))
    speed.sample()

    def medians(samples):
        return (
            statistics.median(t * speed.factor(a, b) for a, b, t in samples),
            statistics.median(t for _, _, t in samples),
        )

    return jobs, texts, medians(setup), medians(gen)


def run_job(job, text: str):
    """The timed path of one compile; returns per-stage seconds and the outcome."""
    from qreuse import oracle, pipeline, qasm
    from checks import Outcome

    t0 = time.perf_counter()
    parsed = qasm.parse(text)
    t1 = time.perf_counter()
    out, report = pipeline.optimize(parsed, job.mode)
    t2 = time.perf_counter()
    text_out = qasm.emit(out)
    t3 = time.perf_counter()
    tv = oracle.equivalent(parsed, out)[1] if job.verify else None
    t4 = time.perf_counter()
    return (t1 - t0, t2 - t1, t3 - t2, t4 - t3), Outcome(parsed, out, report, text_out, tv)


class Ledger:
    """Failures and the first-seen counts every later pass must repeat."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.signatures: dict[str, tuple] = {}
        self.traced_counts: dict[str, tuple] = {}

    def record(self, job_id: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages += [f"{job_id}: {e}" for e in errors]

    def repeat(self, table: dict, job_id: str, value: tuple) -> list[str]:
        first = table.setdefault(job_id, value)
        return [] if first == value else [f"counts differ between passes: {first} vs {value}"]


def run_pass(jobs, texts, ledger: Ledger, speed, tracer=None) -> Pass:
    import checks

    record = Pass(traced=tracer is not None, tracer=tracer)
    errors: dict[str, list[str]] = {}
    intervals: dict[str, tuple[float, float]] = {}
    for job in jobs:
        speed.maybe_sample()
        start = time.perf_counter()
        try:
            if tracer is None:
                times, outcome = run_job(job, texts[job.id])
            else:
                with tracer.job(job.id):
                    times, outcome = run_job(job, texts[job.id])
            errors[job.id] = checks.check(job, outcome)
        except Exception:  # a crashing compile is a failed job, not a failed run
            errors[job.id] = [traceback.format_exc(limit=3)]
            continue
        intervals[job.id] = (start, start + sum(times))
        record.times[job.id] = times
        record.reports[job.id] = outcome.report
        record.outputs[job.id] = len(outcome.out.instructions)
        errors[job.id] += ledger.repeat(ledger.signatures, job.id, checks.signature(outcome))
    speed.sample()
    record.factors = {j: speed.factor(*span) for j, span in intervals.items()}
    proposed = {j.pair: j.id for j in jobs if j.pair and j.mode == "proposed"}
    for job in jobs:
        if job.pair and job.mode == "baseline":
            p, b = record.reports.get(proposed[job.pair]), record.reports.get(job.id)
            if p is not None and b is not None:
                errors[proposed[job.pair]] += checks.dominance(p, b)
    if tracer is not None:
        for job in jobs:
            errors[job.id] += ledger.repeat(ledger.traced_counts, job.id, traced_counts(tracer, job))
    for job in jobs:
        ledger.record(job.id, errors[job.id])
    return record


def traced_counts(tracer, job) -> tuple:
    from tracer import count

    spans = [s for s in tracer.spans if s.job == job.id]
    return (
        tracer.after_transform.get(job.id),
        tracer.outcomes.get(job.id),
        count(spans, "transform.introduce_classical_controls"),
        count(spans, "oracle.distribution"),
    )


def measure(jobs, texts, seconds: float, trace: bool, ledger: Ledger, speed) -> list[Pass]:
    """Repeat passes until the next one would overrun ``seconds``."""
    from tracer import Tracer

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        if trace and len(passes) % 2 == 1:
            tracer = Tracer()
            with tracer.install():
                record = run_pass(jobs, texts, ledger, speed, tracer)
        else:
            record = run_pass(jobs, texts, ledger, speed)
        record.seconds = time.perf_counter() - begun
        passes.append(record)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + record.seconds > seconds:
            return passes


def _job_medians(passes: list[Pass], jobs, value) -> dict[str, float]:
    """Each job's median across the passes it completed in."""
    medians = {}
    for job in jobs:
        samples = [value(p, job.id) for p in passes if job.id in p.times]
        if samples:
            medians[job.id] = statistics.median(samples)
    return medians


def _last_reports(passes: list[Pass], jobs) -> dict:
    reports = {}
    for p in passes:
        reports.update(p.reports)
    return {job.id: reports[job.id] for job in jobs if job.id in reports}


def end_to_end(jobs, passes: list[Pass], setup_s: float, adjusted: bool = True) -> dict[str, float]:
    """Per-pass figures: sums over jobs of each job's median across passes.

    Times are host-speed adjusted unless ``adjusted`` is false.
    """
    scale = (lambda p, j: p.factors[j]) if adjusted else (lambda p, j: 1.0)
    optimize = _job_medians(passes, jobs, lambda p, j: p.times[j][1] * scale(p, j))
    optimize_s = sum(optimize.values())
    reports = _last_reports(passes, jobs)
    instr_in = sum(len(j.circuit.instructions) for j in jobs)
    return {
        "wall_s": sum(_job_medians(passes, jobs, lambda p, j: sum(p.times[j]) * scale(p, j)).values()),
        "optimize_s": optimize_s,
        "optimize_max_s": max(optimize.values(), default=0.0),
        "instr_per_s": instr_in / optimize_s if optimize_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "qubits_out": sum(r.n_reused for r in reports.values()),
        "depth_out": sum(r.d_reused for r in reports.values()),
        "g2_out": sum(r.g2_reused for r in reports.values()),
    }


def growth_exponent(jobs, per_job: dict[str, float]) -> float:
    """Mean log-log slope of time against instruction count per job group.

    Only groups whose sizes span at least 1.5x take part; 0.0 when none does.
    """
    groups: dict[str, list[tuple[float, float]]] = {}
    for job in jobs:
        t = per_job.get(job.id, 0.0)
        if t > 0:
            groups.setdefault(job.group, []).append(
                (math.log(len(job.circuit.instructions)), math.log(t))
            )
    slopes = []
    for points in groups.values():
        xs = [x for x, _ in points]
        if max(xs) - min(xs) < math.log(1.5):
            continue
        mx = statistics.fmean(xs)
        my = statistics.fmean(y for _, y in points)
        sxx = sum((x - mx) ** 2 for x in xs)
        slopes.append(sum((x - mx) * (y - my) for x, y in points) / sxx)
    return statistics.fmean(slopes) if slopes else 0.0


def per_layer(jobs, passes: list[Pass], gen_s: float) -> tuple[dict[str, float], dict[str, str]]:
    from tracer import count, inclusive, self_times

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}

    def put(name: str, value, unit: str) -> None:
        metrics[name] = value
        units[name] = unit

    def job_medians(span_name: str) -> dict[str, float]:
        per_pass = [inclusive(p.tracer.spans, span_name, p.factors) for p in traced]
        return {j.id: statistics.median([t.get(j.id, 0.0) for t in per_pass]) for j in jobs}

    def seconds(span_name: str) -> float:
        return sum(job_medians(span_name).values())

    def traced_count(span_name: str) -> int:
        return count(traced[-1].tracer.spans, span_name)

    reports = _last_reports(traced, jobs)
    rules: dict[str, int] = {}
    for r in reports.values():
        for k, v in r.rule_counts.items():
            rules[k] = rules.get(k, 0) + v

    optimize_s = seconds("pipeline.optimize")
    transform_s = seconds("transform.run")
    put("reuse.run_s", seconds("reuse.run"), "s")
    put("reuse.merges", sum(r.reuse_count for r in reports.values()), "count")
    put("transform.run_s", transform_s, "s")
    put("transform.introduce_s", seconds("transform.introduce_classical_controls"), "s")
    put("transform.exchange_s", seconds("transform.exchange_controls"), "s")
    put("transform.dead_s", seconds("transform.eliminate_dead_gates"), "s")
    put("transform.rounds", traced_count("transform.introduce_classical_controls"), "count")
    for key in ("classical_controls", "exchanges", "dead_gates"):
        put(f"transform.{key}", rules.get(key, 0), "count")
    put("transform.optimize_share", transform_s / optimize_s if optimize_s else 0.0, "ratio")
    put("commute.run_s", seconds("commute.run"), "s")
    put("commute.rule_apps", sum(rules.get(k, 0) for k in COMMUTE_RULES), "count")
    for key in COMMUTE_RULES:
        put(f"commute.{key}", rules.get(key, 0), "count")
    put("oracle.distribution_s", seconds("oracle.distribution"), "s")
    put("oracle.calls", traced_count("oracle.distribution"), "count")
    put("oracle.outcomes", sum(traced[-1].tracer.outcomes.values()), "count")
    put("qasm.parse_s", seconds("qasm.parse"), "s")
    put("qasm.emit_s", seconds("qasm.emit"), "s")

    selfs = [self_times(p.tracer.spans, p.factors) for p in traced]
    for layer in LAYERS:
        put(f"{layer}.self_s", statistics.median([s.get(layer, 0.0) for s in selfs]), "s")
    put("unattributed_s", statistics.median([s.get("unattributed", 0.0) for s in selfs]), "s")

    put("pipeline.growth_exp", growth_exponent(jobs, job_medians("pipeline.optimize")), "slope")
    put("reuse.growth_exp", growth_exponent(jobs, job_medians("reuse.run")), "slope")
    put("transform.growth_exp", growth_exponent(jobs, job_medians("transform.run")), "slope")

    after = traced[-1].tracer.after_transform
    put("ir.instr_in", sum(len(j.circuit.instructions) for j in jobs), "count")
    put("ir.instr_after_transform",
        sum(after.get(j.id, len(j.circuit.instructions)) for j in jobs), "count")
    put("ir.instr_out", sum(traced[-1].outputs.values()), "count")
    put("bench.gen_s", gen_s, "s")
    put("trace.overhead_s",
        statistics.median([p.wall() for p in traced]) - statistics.median([p.wall() for p in plain]),
        "s")
    return metrics, units


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def provenance(workload: str, seed: int, loadavg: list[float]) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": _version("click"),
        "git_commit": git_commit(),
        "loadavg_start": loadavg,
    }


def read_loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def execute(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object and extra report fields."""
    from hostspeed import HostSpeed

    loadavg = read_loadavg()
    speed = HostSpeed()
    jobs, texts, (setup_s, setup_raw), (gen_s, _) = set_up(workload, seed, tiny, speed)
    ledger = Ledger()
    passes = measure(jobs, texts, seconds, trace, ledger, speed)
    plain = [p for p in passes if not p.traced]
    raw = end_to_end(jobs, plain, setup_raw, adjusted=False)
    if trace:
        metrics, units = per_layer(jobs, passes, gen_s)
    else:
        metrics = end_to_end(jobs, plain, setup_s)
        units = END_TO_END_UNITS
    return {
        "result": {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "provenance": provenance(workload, seed, loadavg),
        "raw": raw,
        "passes": [
            {"traced": p.traced, "seconds": p.seconds, "wall_s": p.wall(),
             "host_factor": statistics.median(p.factors.values()) if p.factors else None}
            for p in passes
        ],
        "messages": ledger.messages,
        "spans": [s for p in passes if p.traced for s in p.tracer.spans],
    }


def write_spans(workload: str, seed: int, run: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-s{seed}.json"
    doc = {
        "provenance": run["provenance"],
        "passes": run["passes"],
        "metrics": run["result"]["metrics"],
        "spans": [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "job": s.job}
            for s in run["spans"]
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("families", "random", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qreuse" / "__init__.py").is_file():
        print(f"error: the qreuse sources are missing: no {SRC / 'qreuse'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for message in run["messages"][:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"provenance": run["provenance"]}))
    print(json.dumps({"passes": run["passes"]}))
    print(json.dumps({"raw": run["raw"]}))
    if args.trace:
        print(f"spans written to {write_spans(args.workload, args.seed, run).relative_to(ROOT)}")
    for name, metric in run["result"]["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
