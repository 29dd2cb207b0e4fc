"""The public surface: ``qreuse.__all__`` and each module's ``__all__``,
listed exactly, so that a name is added to or dropped from it on purpose."""

import importlib
import pkgutil

import pytest

import qreuse

SURFACE = {
    "qreuse": [
        "bench", "commute", "oracle", "pipeline", "qasm", "reuse", "transform",
        "Circuit", "CircuitBuilder", "ClassicalToggle", "Gate", "GateKind", "Measure", "Reset",
        "depth", "is_diagonal", "two_qubit_gate_count", "validate",
        "OutcomeDistribution", "distribution", "equivalent",
        "PassReport", "optimize",
        "emit", "parse",
    ],
    "qreuse.bench": [
        "STRATEGIES", "RandomSpec", "SplitMix64", "gen_qpe", "gen_qft", "gen_vqe", "gen_random",
        "entanglement_pairs",
    ],
    "qreuse.cli": None,  # a command line, not an API
    "qreuse.commute": ["CommuteRule", "push", "run"],
    "qreuse.ir": [
        "GateKind", "Gate", "Measure", "Reset", "ClassicalToggle", "Instruction",
        "Circuit", "CircuitBuilder", "Dependencies", "Chain",
        "FIXED_KINDS", "X_KIND", "Z_KIND", "opaque_kind",
        "validate", "violations", "depth", "two_qubit_gate_count", "is_diagonal",
    ],
    "qreuse.oracle": [
        "MAX_BRANCHES", "MAX_QUBITS", "OutcomeDistribution", "SimulationLimitError", "distribution", "equivalent",
    ],
    "qreuse.pipeline": ["PassReport", "MODES", "optimize"],
    "qreuse.qasm": [
        "QasmError", "QasmSyntaxError", "QasmSemanticError", "QasmUnsupportedError", "MAX_REGISTER",
        "parse", "emit",
    ],
    "qreuse.reuse": ["run"],
    "qreuse.transform": ["eliminate_dead_gates", "introduce_classical_controls", "exchange_controls", "run"],
}


def test_every_module_is_listed():
    modules = {f"qreuse.{m.name}" for m in pkgutil.iter_modules(qreuse.__path__)}
    assert {"qreuse", *modules} == set(SURFACE)


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_all_lists_exactly_the_public_names(name):
    module = importlib.import_module(name)
    assert getattr(module, "__all__", None) == SURFACE[name]
    for public in SURFACE[name] or ():
        assert hasattr(module, public), public
