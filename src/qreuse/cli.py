"""Command-line front end: optimize, gen, bench, verify.

Exit codes: 0 success, 1 parse/validation error (a circuit file that is
not UTF-8 included), 2 equivalence mismatch, 3 I/O error, 4 equivalence not
checkable (a circuit exceeds the exact simulator's qubit cap). Reports are
JSON documents with a schema_version field.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import click

from . import bench, oracle, pipeline, qasm
from .pipeline import PassReport

SCHEMA_VERSION = 1

EXIT_PARSE = 1
EXIT_MISMATCH = 2
EXIT_IO = 3
EXIT_UNVERIFIABLE = 4


def report_document(
    name: str,
    mode: str,
    report: PassReport,
    equivalence: dict | None = None,
) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "input": name, "mode": mode, **dataclasses.asdict(report)}
    doc["wall_time_seconds"] = doc.pop("wall_time")
    if equivalence is not None:
        doc["equivalence"] = equivalence
    return doc


def _read_circuit(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        click.echo(f"error: cannot read {path}: {exc}", err=True)
        sys.exit(EXIT_IO)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        click.echo(f"error: {path}: not UTF-8 (byte {exc.start})", err=True)
        sys.exit(EXIT_PARSE)
    try:
        return qasm.parse(text)
    except qasm.QasmError as exc:
        click.echo(f"error: {path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _check_tol(tol: float) -> None:
    # NaN fails every comparison, so this also rejects it.
    if not tol >= 0:
        click.echo(f"error: --tol must be a non-negative number, got {tol}", err=True)
        sys.exit(EXIT_PARSE)


def _equivalent(a, b, tol: float) -> tuple[bool, float]:
    """``oracle.equivalent``; exits 4 when a circuit is beyond the simulator
    and 1 when the two circuits cannot be compared."""
    try:
        return oracle.equivalent(a, b, tol=tol)
    except oracle.SimulationLimitError as exc:
        click.echo(f"error: verification impossible: {exc}", err=True)
        sys.exit(EXIT_UNVERIFIABLE)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _write_text(path: str, text: str) -> None:
    try:
        if path == "-":
            click.echo(text, nl=False)
        else:
            Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        click.echo(f"error: cannot write {path}: {exc}", err=True)
        sys.exit(EXIT_IO)


@click.group()
def main() -> None:
    """Reduce qubit counts of dynamic circuits by rewriting and reuse."""


@main.command()
@click.argument("input_path", type=str)
@click.option("--mode", type=click.Choice(pipeline.MODES), default="proposed", show_default=True)
@click.option("--output", "-o", default="-", show_default=True, help="Optimized circuit path ('-' for stdout).")
@click.option("--report", "report_path", default=None, help="Write a JSON report here.")
@click.option("--verify", is_flag=True, help="Check outcome equivalence with the exact simulator.")
@click.option("--tol", type=float, default=1e-9, show_default=True)
def optimize(input_path, mode, output, report_path, verify, tol):
    """Optimize a circuit file and write the result."""
    _check_tol(tol)
    circuit = _read_circuit(input_path)
    result, rep = pipeline.optimize(circuit, mode=mode)
    equivalence = None
    if verify:
        ok, dev = _equivalent(circuit, result, tol)
        equivalence = {"checked": True, "equivalent": ok, "max_deviation": dev, "tol": tol}
    _write_text(output, qasm.emit(result))
    if report_path:
        doc = report_document(circuit.name or input_path, mode, rep, equivalence)
        _write_text(report_path, json.dumps(doc, indent=2) + "\n")
    if equivalence is not None and not equivalence["equivalent"]:
        click.echo(f"equivalence FAILED: TV distance {equivalence['max_deviation']:.3e}", err=True)
        sys.exit(EXIT_MISMATCH)


@main.command()
@click.argument("family", type=click.Choice(["qpe", "qft", "vqe", "random"]))
@click.option("--n", type=int, default=4, show_default=True)
@click.option("--theta", type=float, default=2 * math.pi * 3 / 8, show_default=True, help="Phase for qpe.")
@click.option("--single-p", is_flag=True, help="qpe variant with a measured eigenstate qubit.")
@click.option("--strategy", type=click.Choice(bench.STRATEGIES), default="linear", show_default=True)
@click.option("--reps", type=int, default=1, show_default=True)
@click.option("--depth", "target_depth", type=int, default=4, show_default=True, help="Target depth for random.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--two-qubit-prob", type=float, default=0.5, show_default=True)
@click.option("--out", "-o", default="-", show_default=True)
def gen(family, n, theta, single_p, strategy, reps, target_depth, seed, two_qubit_prob, out):
    """Generate a benchmark circuit."""
    try:
        _size(n, "--n")
        if family == "qpe":
            circuit = bench.gen_qpe(n, theta, single_p=single_p)
        elif family == "qft":
            circuit = bench.gen_qft(n)
        elif family == "vqe":
            circuit = bench.gen_vqe(n, strategy, reps=reps)
        else:
            circuit = bench.gen_random(
                bench.RandomSpec(n, target_depth, seed, two_qubit_prob=two_qubit_prob)
            )
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    _write_text(out, qasm.emit(circuit))


@main.command()
@click.argument("first")
@click.argument("second")
@click.option("--tol", type=float, default=1e-9, show_default=True)
def verify(first, second, tol):
    """Compare the outcome distributions of two circuit files."""
    _check_tol(tol)
    a = _read_circuit(first)
    b = _read_circuit(second)
    ok, dev = _equivalent(a, b, tol)
    click.echo(f"TV distance {dev:.3e} ({'<=' if ok else '>'} tol {tol:g})")
    if not ok:
        sys.exit(EXIT_MISMATCH)


def _size(n: int, option: str) -> int:
    """``n``, if a register of ``n`` qubits fits the text format."""
    if n > qasm.MAX_REGISTER:
        raise ValueError(f"{option} {n} exceeds the register limit of {qasm.MAX_REGISTER}")
    return n


def _int_list(text: str, option: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise ValueError(f"{option} takes comma-separated integers, got {text!r}") from None


def _shape(pair: str) -> tuple[int, int]:
    n, sep, d = pair.partition("x")
    if not (sep and n.isdigit() and d.isdigit()):
        raise ValueError(f"--shapes takes comma-separated NxD pairs, got {pair!r}")
    return _size(int(n), "--shapes"), int(d)


def _bench_circuits(family, sizes, strategies, shapes, seeds, theta):
    """The sweep's circuits, each named by its generator; ``ValueError`` on a
    malformed option."""
    sizes = [_size(n, "--sizes") for n in _int_list(sizes, "--sizes")]
    seeds = _int_list(seeds, "--seeds")
    strategies = [s for s in strategies.split(",") if s]
    if family == "qpe":
        return [bench.gen_qpe(n, theta) for n in sizes]
    if family == "qft":
        return [bench.gen_qft(n) for n in sizes]
    if family == "vqe":
        return [bench.gen_vqe(n, s) for n in sizes for s in strategies]
    pairs = [_shape(pair) for pair in shapes.split(",") if pair]
    return [bench.gen_random(bench.RandomSpec(n, d, seed)) for n, d in pairs for seed in seeds]


# The report counts ``bench`` averages per (base instance, mode).
_MEAN_KEYS = ("n_original", "n_reused", "d_original", "d_reused", "g2_original", "g2_reused", "wall_time_seconds")


@main.command("bench")
@click.option("--family", type=click.Choice(["qpe", "qft", "vqe", "random"]), required=True)
@click.option("--sizes", default="4,6,8", show_default=True, help="Comma-separated qubit counts.")
@click.option("--strategies", default=",".join(bench.STRATEGIES), show_default=True)
@click.option("--shapes", default="20x2", show_default=True, help="Random family: comma-separated NxD pairs.")
@click.option("--seeds", default="1,2,3,4,5", show_default=True)
@click.option("--theta", type=float, default=2 * math.pi * 3 / 8, show_default=True)
@click.option("--modes", default="proposed,baseline", show_default=True)
@click.option("--out-dir", default="bench-out", show_default=True)
def bench_cmd(family, sizes, strategies, shapes, seeds, theta, modes, out_dir):
    """Sweep a benchmark family and write per-instance and aggregate reports."""
    mode_list = [m for m in modes.split(",") if m]
    for mode in mode_list:
        if mode not in pipeline.MODES:
            click.echo(f"error: unknown mode {mode!r}", err=True)
            sys.exit(EXIT_PARSE)
    try:
        circuits = _bench_circuits(family, sizes, strategies, shapes, seeds, theta)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)

    docs = []
    for circuit in circuits:
        for mode in mode_list:
            _, rep = pipeline.optimize(circuit, mode=mode)
            docs.append(report_document(circuit.name, mode, rep))

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        click.echo(f"error: cannot write {out_dir}: {exc}", err=True)
        sys.exit(EXIT_IO)
    for doc in docs:
        _write_text(str(out / f"{doc['input']}-{doc['mode']}.json"), json.dumps(doc, indent=2) + "\n")

    # Aggregate means per (base instance, mode), seeds averaged out.
    groups: dict[tuple[str, str], list[dict]] = {}
    for doc in docs:
        base = doc["input"].split("-s")[0] if family == "random" else doc["input"]
        groups.setdefault((base, doc["mode"]), []).append(doc)
    rows = []
    for (base, mode), members in sorted(groups.items()):
        k = len(members)
        row = {"instance": base, "mode": mode, "runs": k}
        for key in _MEAN_KEYS:
            row[key] = sum(d[key] for d in members) / k
        rows.append(row)
    aggregate = {"schema_version": SCHEMA_VERSION, "family": family, "aggregate": rows}
    _write_text(str(out / "aggregate.json"), json.dumps(aggregate, indent=2) + "\n")
    header = f"{'instance':<24} {'mode':<9} {'n':>6} {'n_reused':>8} {'d':>7} {'d_reused':>8} {'g2':>7} {'g2_out':>7} {'t[s]':>8}"
    click.echo(header)
    for row in rows:
        click.echo(
            f"{row['instance']:<24} {row['mode']:<9} {row['n_original']:>6.1f} {row['n_reused']:>8.1f}"
            f" {row['d_original']:>7.1f} {row['d_reused']:>8.1f} {row['g2_original']:>7.1f}"
            f" {row['g2_reused']:>7.1f} {row['wall_time_seconds']:>8.4f}"
        )


if __name__ == "__main__":
    main()
