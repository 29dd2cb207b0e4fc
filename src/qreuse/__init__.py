"""Qubit-count reduction for dynamic quantum circuits.

The toolkit moves measurements toward the circuit start, trades quantum
controls for classical ones, and then greedily merges independent
computations onto shared wires separated by resets.
"""

from . import bench, commute, oracle, pipeline, qasm, reuse, transform
from .ir import (
    Circuit,
    CircuitBuilder,
    ClassicalToggle,
    Gate,
    GateKind,
    Measure,
    Reset,
    depth,
    is_diagonal,
    two_qubit_gate_count,
    validate,
)
from .oracle import OutcomeDistribution, distribution, equivalent
from .pipeline import PassReport, optimize
from .qasm import emit, parse

__all__ = [
    "bench",
    "commute",
    "oracle",
    "pipeline",
    "qasm",
    "reuse",
    "transform",
    "Circuit",
    "CircuitBuilder",
    "ClassicalToggle",
    "Gate",
    "GateKind",
    "Measure",
    "Reset",
    "depth",
    "is_diagonal",
    "two_qubit_gate_count",
    "validate",
    "OutcomeDistribution",
    "distribution",
    "equivalent",
    "PassReport",
    "optimize",
    "emit",
    "parse",
]

__version__ = "0.1.0"
