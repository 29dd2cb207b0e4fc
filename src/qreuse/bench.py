"""Deterministic benchmark circuit generators.

Families: phase estimation, Fourier transform, hardware-efficient
variational ansatz, and seeded random circuits. All generators are pure
functions of their arguments; random circuits draw from an explicit
splitmix64 stream so identical seeds give byte-identical circuits on every
platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ir import Circuit, CircuitBuilder

__all__ = [
    "STRATEGIES",
    "RandomSpec",
    "SplitMix64",
    "gen_qpe",
    "gen_qft",
    "gen_vqe",
    "gen_random",
    "entanglement_pairs",
]

STRATEGIES = ("circular", "pairwise", "linear", "reverse-linear", "full")

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: tiny, fast, and stable across platforms and versions."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return self.next_u64() / 2.0 ** 64

    def randrange(self, k: int) -> int:
        # Modulo bias is irrelevant at these ranges.
        return self.next_u64() % k

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


def gen_qpe(n: int, theta: float, single_p: bool = False) -> Circuit:
    """Phase estimation with ``n - 1`` counting qubits and one eigenstate qubit.

    The unit being estimated is a phase gate, so the controlled powers are
    plain controlled-phase gates with doubled angles. Counting qubit ``j``
    runs the most significant power first, which is the order a reused
    single counting qubit must execute them in. Counting results land in
    bits ``0..n-2``; the swap-free inverse transform delivers them
    bit-reversed, so qubit ``j`` writes bit ``n-2-j`` and the classical
    register reads as the phase numerator in standard binary.

    With ``single_p`` the eigenstate qubit is measured up front (bit
    ``n - 1``) instead of being prepared with X, and it drives the phase
    ladder as the control; the rewrite passes can then turn the whole ladder
    into classically controlled gates.
    """
    if n < 2:
        raise ValueError("phase estimation needs at least 2 qubits")
    m = n - 1
    eigen = m
    b = CircuitBuilder(n, n if single_p else m, name=f"qpe{'p' if single_p else ''}{n}")
    if single_p:
        b.h(eigen)
        b.measure(eigen, m)
        for j in range(m - 1, -1, -1):
            b.h(j)
            b.cp(theta * 2.0 ** j, eigen, j)
    else:
        b.x(eigen)
        for j in range(m - 1, -1, -1):
            b.h(j)
            b.cp(theta * 2.0 ** j, j, eigen)
    for j in range(m - 1, -1, -1):
        for k in range(j + 1, m):
            b.cp(-math.pi / 2.0 ** (k - j), k, j)
        b.h(j)
    for j in range(m):
        b.measure(j, m - 1 - j)
    return b.build()


def gen_qft(n: int) -> Circuit:
    """Fourier transform without terminal swaps, all qubits measured."""
    if n < 1:
        raise ValueError("Fourier transform needs at least 1 qubit")
    b = CircuitBuilder(n, n, name=f"qft{n}")
    for j in range(n):
        b.h(j)
        for k in range(j + 1, n):
            b.cp(math.pi / 2.0 ** (k - j), k, j)
    for j in range(n):
        b.measure(j, j)
    return b.build()


def entanglement_pairs(n: int, strategy: str) -> list[tuple[int, int]]:
    if strategy == "linear":
        return [(i, i + 1) for i in range(n - 1)]
    if strategy == "reverse-linear":
        return [(i, i + 1) for i in reversed(range(n - 1))]
    if strategy == "circular":
        return [(n - 1, 0)] + [(i, i + 1) for i in range(n - 1)]
    if strategy == "pairwise":
        return [(i, i + 1) for i in range(0, n - 1, 2)] + [
            (i, i + 1) for i in range(1, n - 1, 2)
        ]
    if strategy == "full":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise ValueError(f"unknown entanglement strategy {strategy!r}")


def gen_vqe(
    n: int,
    strategy: str,
    angles: list[float] | None = None,
    reps: int = 1,
) -> Circuit:
    """Hardware-efficient ansatz: X-rotation layer, CX entanglement, measure.

    One rotation layer per repetition, no trailing rotation layer.
    """
    if n < 2:
        raise ValueError("the ansatz needs at least 2 qubits")
    if reps < 1:
        raise ValueError(f"the ansatz needs reps >= 1, got {reps}")
    pairs = entanglement_pairs(n, strategy)
    needed = n * reps
    if angles is None:
        angles = [math.pi * (i + 1) / (needed + 1) for i in range(needed)]
    if len(angles) != needed:
        raise ValueError(f"expected {needed} rotation angles, got {len(angles)}")
    b = CircuitBuilder(n, n, name=f"vqe-{strategy}{n}")
    for r in range(reps):
        for q in range(n):
            b.rx(angles[r * n + q], q)
        for control, target in pairs:
            b.cx(control, target)
    for q in range(n):
        b.measure(q, q)
    return b.build()


# Gates a random layer draws from, uniformly.
_ONE_QUBIT_POOL = ("h", "x", "z", "p")
_TWO_QUBIT_POOL = ("cx", "cz", "cp")


@dataclass(frozen=True, slots=True)
class RandomSpec:
    n_qubits: int
    target_depth: int
    seed: int
    two_qubit_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.n_qubits < 1 or self.target_depth < 1:
            raise ValueError("random circuits need n_qubits >= 1 and target_depth >= 1")
        # Written so that NaN, which fails every comparison, is rejected too.
        if not 0.0 <= self.two_qubit_prob <= 1.0:
            raise ValueError(f"two_qubit_prob must lie in [0, 1], got {self.two_qubit_prob}")


def gen_random(spec: RandomSpec) -> Circuit:
    """Layered random circuit; the final layer measures every qubit.

    Each of the ``target_depth - 1`` gate layers assigns one gate to every
    qubit: with probability ``two_qubit_prob`` a two-qubit gate pairing the
    qubit with a uniformly drawn free partner, otherwise a one-qubit gate.
    """
    rng = SplitMix64(spec.seed)
    n = spec.n_qubits
    b = CircuitBuilder(n, n, name=f"random-n{n}-d{spec.target_depth}-s{spec.seed}")
    top = 1 << (n.bit_length() - 1)
    for _ in range(spec.target_depth - 1):
        # The free qubits, in increasing order: a Fenwick tree counts the
        # qubits not yet taken as a partner. Each first qubit ``q`` is the
        # smallest free one, so the ``firsts`` taken so far are that set's
        # smallest members and the k-th free qubit is its ``firsts + k``-th.
        # A draw costs O(log n), where ``list.pop`` moved O(n) entries.
        tree = [i & -i for i in range(n + 1)]
        partnered = bytearray(n)
        free, firsts, q = n, 0, -1
        while free:
            q += 1
            while partnered[q]:
                q += 1
            firsts += 1
            free -= 1
            if free and rng.uniform() < spec.two_qubit_prob:
                k = firsts + rng.randrange(free)
                partner, step = 0, top
                while step:
                    if partner + step <= n and tree[partner + step] <= k:
                        partner += step
                        k -= tree[partner]
                    step >>= 1
                partnered[partner] = 1
                free -= 1
                i = partner + 1
                while i <= n:
                    tree[i] -= 1
                    i += i & -i
                a, t = (q, partner) if rng.next_u64() & 1 == 0 else (partner, q)
                kind = rng.choice(_TWO_QUBIT_POOL)
                if kind == "cx":
                    b.cx(a, t)
                elif kind == "cz":
                    b.cz(a, t)
                else:
                    b.cp(rng.uniform() * 2 * math.pi, a, t)
            else:
                kind = rng.choice(_ONE_QUBIT_POOL)
                if kind == "p":
                    b.p(rng.uniform() * 2 * math.pi, q)
                else:
                    getattr(b, kind)(q)
    for q in range(spec.n_qubits):
        b.measure(q, q)
    return b.build()
