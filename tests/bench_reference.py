"""``bench.gen_random`` as it drew from a list.

Each layer keeps its free qubits in a list and pops the first one and a
uniformly drawn partner off it, each pop O(n). ``bench.gen_random`` draws
from a Fenwick tree instead, with the same random calls in the same order,
and must give equal circuits.
"""

from __future__ import annotations

import math

from qreuse.bench import RandomSpec, SplitMix64
from qreuse.ir import Circuit, CircuitBuilder

ONE_QUBIT_POOL = ("h", "x", "z", "p")
TWO_QUBIT_POOL = ("cx", "cz", "cp")


def gen_random(spec: RandomSpec) -> Circuit:
    rng = SplitMix64(spec.seed)
    b = CircuitBuilder(
        spec.n_qubits,
        spec.n_qubits,
        name=f"random-n{spec.n_qubits}-d{spec.target_depth}-s{spec.seed}",
    )
    for _ in range(spec.target_depth - 1):
        free = list(range(spec.n_qubits))
        while free:
            q = free.pop(0)
            if free and rng.uniform() < spec.two_qubit_prob:
                partner = free.pop(rng.randrange(len(free)))
                a, t = (q, partner) if rng.next_u64() & 1 == 0 else (partner, q)
                kind = rng.choice(TWO_QUBIT_POOL)
                if kind == "cx":
                    b.cx(a, t)
                elif kind == "cz":
                    b.cz(a, t)
                else:
                    b.cp(rng.uniform() * 2 * math.pi, a, t)
            else:
                kind = rng.choice(ONE_QUBIT_POOL)
                if kind == "p":
                    b.p(rng.uniform() * 2 * math.pi, q)
                else:
                    getattr(b, kind)(q)
    for q in range(spec.n_qubits):
        b.measure(q, q)
    return b.build()
