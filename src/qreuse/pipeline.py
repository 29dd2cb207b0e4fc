"""Pass orchestration and before/after reporting."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import reuse, transform
from .ir import Circuit, depth, two_qubit_gate_count

__all__ = ["PassReport", "MODES", "optimize"]

MODES = ("proposed", "baseline")


@dataclass(slots=True)
class PassReport:
    n_original: int
    n_reused: int
    d_original: int
    d_reused: int
    g2_original: int
    g2_reused: int
    rule_counts: dict[str, int] = field(default_factory=dict)
    reuse_count: int = 0
    wall_time: float = 0.0


def optimize(circuit: Circuit, mode: str = "proposed") -> tuple[Circuit, PassReport]:
    """Run the full pipeline (``proposed``) or reuse alone (``baseline``)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    start = time.perf_counter()
    n0, d0, g0 = circuit.n_qubits, depth(circuit), two_qubit_gate_count(circuit)
    rule_counts: dict[str, int] = {}
    result = circuit
    if mode == "proposed":
        result, rule_counts = transform.run(result)
    result, merges = reuse.run(result)
    report = PassReport(
        n_original=n0,
        n_reused=result.n_qubits,
        d_original=d0,
        d_reused=depth(result),
        g2_original=g0,
        # Reuse only renames wires and adds one-qubit resets, so baseline
        # keeps the input's count.
        g2_reused=two_qubit_gate_count(result) if mode == "proposed" else g0,
        rule_counts=rule_counts,
        reuse_count=merges,
        wall_time=time.perf_counter() - start,
    )
    return result, report
