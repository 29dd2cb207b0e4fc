"""Output checks for one compiled job.

Each check compares the compiler's output with a reference that does not
come from the compiler: the IR validator, the text round-trip, the paper's
closed-form qubit counts, the exact oracle, and instruction counts the passes
must conserve (see ``conservation``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from qreuse import oracle, qasm
from qreuse.ir import Circuit, Gate, Measure, Reset, validate

TV_TOL = 1e-9


@dataclass(slots=True)
class Outcome:
    """What one timed compile produced; the input to the checks."""

    parsed: Circuit
    out: Circuit
    report: object
    text_out: str
    tv: float | None = None


def _kinds(circuit: Circuit) -> tuple[int, int, int]:
    gates = measures = resets = 0
    for instr in circuit.instructions:
        if isinstance(instr, Gate):
            gates += 1
        elif isinstance(instr, Measure):
            measures += 1
        elif isinstance(instr, Reset):
            resets += 1
    return gates, measures, resets


def conservation(job, source: Circuit, out: Circuit) -> list[str]:
    """Instruction counts the passes must keep.

    No rule adds or removes a measurement, and each merge adds exactly one
    reset. Phase estimation and the Fourier transform compile to their
    semiclassical forms, which keep every gate of the input: rotations only
    trade quantum controls for classical ones.
    """
    g0, m0, r0 = _kinds(source)
    g1, m1, r1 = _kinds(out)
    errors = []
    if job.keeps_gates and g1 != g0:
        errors.append(f"gate count {g0} -> {g1}")
    if m1 != m0:
        errors.append(f"measurement count {m0} -> {m1}")
    merges = source.n_qubits - out.n_qubits
    if r1 - r0 != merges:
        errors.append(f"{r1 - r0} resets added for {merges} merges")
    return errors


def check(job, outcome: Outcome) -> list[str]:
    """Every failed check for one job, as readable strings."""
    errors: list[str] = []
    src, out, rep = job.circuit, outcome.out, outcome.report
    if outcome.parsed != src:
        errors.append("input text does not parse back to the generated circuit")
    errors += [f"invalid output: {e}" for e in validate(out)[:3]]
    try:
        if qasm.parse(outcome.text_out) != out:
            errors.append("parse(emit(out)) != out")
    except qasm.QasmError as exc:
        errors.append(f"emitted output does not parse: {exc}")
    if rep.n_original != src.n_qubits or rep.n_reused != out.n_qubits:
        errors.append("report qubit counts disagree with the circuits")
    if job.expect_qubits is not None and out.n_qubits != job.expect_qubits:
        errors.append(f"{out.n_qubits} qubits, closed form says {job.expect_qubits}")
    errors += conservation(job, src, out)
    if job.verify:
        if outcome.tv is None or not outcome.tv <= TV_TOL:
            errors.append(f"oracle total variation {outcome.tv} exceeds {TV_TOL}")
        if job.phase is not None:
            key = format(job.phase, f"0{out.n_clbits}b")
            p = oracle.distribution(out)[key]
            if abs(p - 1.0) > TV_TOL:
                errors.append(f"phase register reads {job.phase} with probability {p}")
    return errors


def dominance(proposed, baseline) -> list[str]:
    """Paper criterion 6: proposed never uses more qubits or two-qubit gates."""
    errors = []
    if proposed.n_reused > baseline.n_reused:
        errors.append(f"proposed {proposed.n_reused} qubits > baseline {baseline.n_reused}")
    if proposed.g2_reused > baseline.g2_reused:
        errors.append(f"proposed {proposed.g2_reused} two-qubit gates > baseline {baseline.g2_reused}")
    return errors


def signature(outcome: Outcome) -> tuple:
    """Counts that must repeat exactly on every compile of the same input."""
    rep = outcome.report
    return (
        rep.n_reused,
        rep.d_reused,
        rep.g2_reused,
        rep.reuse_count,
        tuple(sorted(rep.rule_counts.items())),
        len(outcome.out.instructions),
        hashlib.sha256(outcome.text_out.encode()).hexdigest(),
    )
