"""Exact reference semantics for dynamic circuits.

Dense statevector simulation with explicit branching on measurements and
resets. The observable object is the joint probability distribution over the
declared classical bits, which is what every rewrite pass must preserve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .ir import Circuit, ClassicalToggle, Gate, GateKind, Instruction, Measure, Reset

__all__ = [
    "MAX_BRANCHES", "MAX_QUBITS", "PRUNE",
    "OutcomeDistribution", "SimulationLimitError", "distribution", "equivalent",
]

# The simulation budget: qubits, branches (each branch of a measurement or
# reset, and each leaf of the final read-out) and the weight below which a
# branch is dropped.
MAX_QUBITS = 12
MAX_BRANCHES = 1 << 20
PRUNE = 1e-14

_SQRT2 = math.sqrt(0.5)

# Entries (u00, u01, u10, u11) of the fixed one-qubit gates, row-major.
_FIXED = {
    "h": (_SQRT2, _SQRT2, _SQRT2, -_SQRT2),
    "x": (0, 1, 1, 0),
    "y": (0, -1j, 1j, 0),
    "z": (1, 0, 0, -1),
    "s": (1, 0, 0, 1j),
    "t": (1, 0, 0, cmath.exp(1j * math.pi / 4)),
}


class SimulationLimitError(RuntimeError):
    """Raised when a circuit exceeds the qubit or branch budget."""


def kind_matrix(kind: GateKind) -> tuple[complex, complex, complex, complex]:
    """The gate's 2x2 unitary as its entries ``(u00, u01, u10, u11)``."""
    if kind.name in _FIXED:
        return _FIXED[kind.name]
    if kind.name == "p":
        return (1, 0, 0, cmath.exp(1j * kind.angle))
    if kind.name == "rz":
        return (cmath.exp(-0.5j * kind.angle), 0, 0, cmath.exp(0.5j * kind.angle))
    if kind.name == "rx":
        c, s = math.cos(kind.angle / 2), math.sin(kind.angle / 2)
        return (c, -1j * s, -1j * s, c)
    return kind.matrix


def _halves(n: int, qubit: int, control: int | None = None) -> tuple[tuple, tuple]:
    """Basic indices of the ``0`` and ``1`` halves of ``qubit``'s axis,
    inside the slice where the ``control`` qubit is 1."""
    index: list = [slice(None)] * n
    if control is not None:
        index[control] = 1
    index[qubit] = 0
    zero = tuple(index)
    index[qubit] = 1
    return zero, tuple(index)


def _record_test(literals) -> tuple[int, int]:
    """``(mask, want)`` such that ``record & mask == want`` iff every literal holds."""
    mask = want = 0
    for bit, polarity in literals:
        if mask >> bit & 1 and want >> bit & 1 != polarity:
            return 0, 1  # one bit with both polarities never holds
        mask |= 1 << bit
        want |= polarity << bit
    return mask, want


_GATE, _TOGGLE, _SPLIT = range(3)  # the opcodes of a plan


def _plan(instrs: tuple[Instruction, ...], n: int) -> list[tuple]:
    """One op per instruction: its record test, slices and matrix entries, worked out once."""
    plan: list[tuple] = []
    for instr in instrs:
        if isinstance(instr, Gate):
            test = _record_test(instr.condition)
            halves = _halves(n, instr.target, instr.control)
            plan.append((_GATE, *test, *halves, *kind_matrix(instr.kind)))
        elif isinstance(instr, ClassicalToggle):
            plan.append((_TOGGLE, *_record_test(instr.product), 1 << instr.target))
        else:
            zero, one = _halves(n, instr.qubit)
            # (outcome 1's record bit, the half it lands on, the half it clears)
            if isinstance(instr, Reset):
                plan.append((_SPLIT, zero, one, 0, zero, one))
            else:
                plan.append((_SPLIT, zero, one, 1 << instr.bit, one, zero))
    return plan


@dataclass(frozen=True, slots=True)
class OutcomeDistribution:
    """Probabilities over classical-bit assignments.

    Keys are bitstrings with bit 0 as the rightmost character.
    """

    n_bits: int
    probs: dict[str, float]

    def __getitem__(self, key: str) -> float:
        return self.probs.get(key, 0.0)

    def total_variation(self, other: "OutcomeDistribution") -> float:
        if self.n_bits != other.n_bits:
            raise ValueError("distributions declare different classical registers")
        keys = set(self.probs) | set(other.probs)
        return 0.5 * sum(abs(self[k] - other[k]) for k in keys)


def _key(record: int, n_bits: int) -> str:
    if n_bits == 0:
        return ""
    return format(record, f"0{n_bits}b")


def _check_branches(branches: int) -> None:
    if branches > MAX_BRANCHES:
        raise SimulationLimitError(f"branch count exceeded {MAX_BRANCHES}; circuit too dynamic")


def _measurement_tail(
    instrs: tuple[Instruction, ...], n: int
) -> tuple[int, tuple[int, ...], int, list[int]]:
    """Read-out plan for the longest measurement-only suffix of ``instrs``.

    Returns the suffix's start, the qubits it never measures (the axes to sum
    out of ``|state|^2``), the mask of bits it writes, and for each flat index
    of the marginal (measured qubits in ascending order, the lowest qubit most
    significant) the record bits the suffix sets to one.
    """
    start = len(instrs)
    while start and isinstance(instrs[start - 1], Measure):
        start -= 1
    source = {m.bit: m.qubit for m in instrs[start:]}  # the later write wins
    measured = sorted(set(source.values()))
    leaf_bits = [0]
    for q in measured:
        ones = sum(1 << b for b, src in source.items() if src == q)
        leaf_bits = [bits | (ones if v else 0) for bits in leaf_bits for v in (0, 1)]
    traced = tuple(a for a in range(n) if a not in source.values())
    written = sum(1 << b for b in source)
    return start, traced, written, leaf_bits


def distribution(circuit: Circuit) -> OutcomeDistribution:
    """Joint distribution of the classical register after running the circuit.

    Depth-first path enumeration: unitaries act on a dense amplitude array,
    measurements and resets split the path with Born-rule weights, conditions
    and toggles update each path's classical record. Branches with weight
    below ``PRUNE`` are dropped.

    A path's state has shape ``(2,) * n``, qubit q on axis q. The instructions
    before the read-out are compiled once into a plan of record mask tests,
    slice indices and matrix entries. A gate rewrites its target's ``0`` and
    ``1`` halves in place, inside the slice where its control holds. A
    measurement or reset reads ``p1`` from the qubit's ``1`` half and collapses
    the path's own array in place, scaled by ``1/sqrt(p)`` (a reset moves
    outcome 1 into the ``0`` half); when both outcomes are kept, outcome 0
    continues on a copy.

    The longest suffix of the circuit that holds only measurements is not
    branched: when a path reaches it, ``|state|^2`` is summed over the qubits
    the suffix never measures, and every outcome of the measured qubits with
    ``weight * marginal > PRUNE`` becomes one leaf. Its record applies the
    suffix's writes in order, so a qubit measured twice writes equal bits and
    the later write to a bit wins. A path's weight only shrinks, so these are
    the outcomes that step-by-step branching keeps. Each branch of a
    measurement or reset, and each leaf of the suffix, counts once against
    ``MAX_BRANCHES``.
    """
    import numpy as np

    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise SimulationLimitError(f"{n} qubits exceeds the cap of {MAX_QUBITS}")
    instrs = circuit.instructions
    tail, traced, written, leaf_bits = _measurement_tail(instrs, n)
    plan = _plan(instrs[:tail], n)
    initial = np.zeros((2,) * n, dtype=complex)
    initial[(0,) * n] = 1.0
    acc: dict[int, float] = {}
    branches = 0
    # Stack entries: (next plan position, state, classical record, weight).
    stack: list[tuple[int, np.ndarray, int, float]] = [(0, initial, 0, 1.0)]
    while stack:
        pos, state, record, weight = stack.pop()
        while pos < tail:
            op = plan[pos]
            pos += 1
            code = op[0]
            if code == _GATE:
                _, mask, want, zero, one, u00, u01, u10, u11 = op
                if record & mask == want:
                    a0, a1 = state[zero], state[one]
                    new0 = u00 * a0 + u01 * a1
                    state[one] = u10 * a0 + u11 * a1
                    state[zero] = new0
            elif code == _TOGGLE:
                _, mask, want, flip = op
                if record & mask == want:
                    record ^= flip
            else:
                _, zero, one, bit, land, clear = op
                a1 = state[one]
                p1 = float(np.vdot(a1, a1).real)
                p0 = 1.0 - p1
                keep0, keep1 = p0 * weight > PRUNE, p1 * weight > PRUNE
                branches += keep0 + keep1
                _check_branches(branches)
                record &= ~bit
                if keep0 and keep1:
                    fresh = np.zeros_like(state)  # copy
                    fresh[zero] = state[zero] / math.sqrt(p0)
                if keep1:
                    state[land] = a1 / math.sqrt(p1)
                    state[clear] = 0
                    stack.append((pos, state, record | bit, weight * p1))
                    if not keep0:
                        break  # the branch just pushed is popped next
                    state = fresh
                elif keep0:
                    state[zero] /= math.sqrt(p0)
                    state[one] = 0
                else:
                    break
                weight *= p0
        else:  # reached the tail; a break above pushed or dropped the path
            if not written:  # no read-out: the path ends with its whole weight
                acc[record] = acc.get(record, 0.0) + weight
                continue
            marginal = (np.abs(state) ** 2).sum(axis=traced).reshape(-1)
            kept = np.flatnonzero(weight * marginal > PRUNE)
            branches += len(kept)
            _check_branches(branches)
            base = record & ~written
            for i, p in zip(kept.tolist(), marginal[kept].tolist()):
                leaf = base | leaf_bits[i]
                acc[leaf] = acc.get(leaf, 0.0) + weight * p
    probs = {_key(rec, circuit.n_clbits): p for rec, p in acc.items()}
    return OutcomeDistribution(circuit.n_clbits, probs)


def equivalent(first: Circuit, second: Circuit, tol: float = 1e-9) -> tuple[bool, float]:
    """Compare classical-outcome distributions; qubit counts may differ."""
    if first.n_clbits != second.n_clbits:
        raise ValueError("circuits declare different classical registers")
    tv = distribution(first).total_variation(distribution(second))
    return tv <= tol, tv
