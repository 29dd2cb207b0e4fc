"""Seeded workload definitions for the qreuse benchmark.

A workload is a list of compile jobs. Every job names one generated input
circuit, the pipeline mode to compile it in, whether the ``--verify`` flow
(the exact oracle) runs on it, and the references its output is checked
against. References are closed forms from the paper or from the generator's
construction, never a previous run of the compiler.

All randomness comes from ``bench.SplitMix64`` seeded with the workload seed,
so the same seed gives the same circuits on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from qreuse import bench
from qreuse.ir import Circuit

WORKLOADS = ("families", "random", "verify")

# The paper's ansatz column: qubits left after the proposed pipeline.
VQE_QUBITS = {"circular": 2, "pairwise": 2, "linear": 1, "reverse-linear": 2, "full": 1}

# Distinct stream per workload so that one seed does not give correlated
# draws across workloads.
_SALT = {"families": 0x1F, "random": 0x2E, "verify": 0x3D}


@dataclass(frozen=True, slots=True)
class Job:
    """One compile of one circuit.

    ``group`` names the generator family and mode; jobs of one group at
    different sizes give the growth exponents. ``pair`` links the proposed
    and baseline compiles of one random circuit for the dominance check.
    ``phase`` is the exact phase numerator of a phase-estimation circuit,
    whose outcome register must then read it with probability one.
    ``keeps_gates`` marks families whose compiled form keeps every gate.
    """

    id: str
    circuit: Circuit
    mode: str
    group: str
    verify: bool = False
    expect_qubits: int | None = None
    pair: str | None = None
    phase: int | None = None
    keeps_gates: bool = False


def _qpe(rng: bench.SplitMix64, n: int, mode: str = "proposed", verify: bool = False) -> Job:
    # An exact phase k / 2^(n-1) makes the counting register read k with
    # probability one, a reference that needs no simulation.
    m = n - 1
    k = rng.randrange(1 << m)
    circuit = bench.gen_qpe(n, 2 * math.pi * k / 2 ** m)
    return Job(f"qpe{n}/{mode}", circuit, mode, f"qpe/{mode}", verify, 2, phase=k, keeps_gates=True)


def _qft(n: int, verify: bool = False) -> Job:
    return Job(
        f"qft{n}/proposed", bench.gen_qft(n), "proposed", "qft/proposed", verify, 1, keeps_gates=True
    )


def _vqe(rng: bench.SplitMix64, n: int, strategy: str, verify: bool = False) -> Job:
    # Angles drawn away from 0 and pi so that no rotation is trivially dead.
    angles = [math.pi * (0.05 + 0.9 * rng.uniform()) for _ in range(n)]
    circuit = bench.gen_vqe(n, strategy, angles=angles)
    return Job(
        f"vqe-{strategy}{n}/proposed",
        circuit,
        "proposed",
        f"vqe-{strategy}/proposed",
        verify,
        VQE_QUBITS[strategy],
    )


def families(seed: int, tiny: bool = False) -> list[Job]:
    """qpe and qft at two sizes and the full-entanglement ansatz, proposed mode."""
    rng = bench.SplitMix64(seed ^ _SALT["families"])
    small, large = (6, 12) if tiny else (32, 64)
    return [
        _qpe(rng, small),
        _qpe(rng, large),
        _qft(small),
        _qft(large),
        _vqe(rng, small, "full"),
    ]


def random_jobs(seed: int, tiny: bool = False) -> list[Job]:
    """Seeded random circuits of two shapes, each compiled in both modes."""
    rng = bench.SplitMix64(seed ^ _SALT["random"])
    shapes = ((8, 6, 4), (20, 2, 2)) if tiny else ((32, 8, 28), (120, 2, 6))
    jobs: list[Job] = []
    for n, d, count in shapes:
        for _ in range(count):
            spec = bench.RandomSpec(n, d, rng.next_u64() >> 1)
            circuit = bench.gen_random(spec)
            for mode in ("proposed", "baseline"):
                jobs.append(
                    Job(f"{circuit.name}/{mode}", circuit, mode, f"random-n{n}-d{d}/{mode}",
                        pair=circuit.name)
                )
    return jobs


def verify(seed: int, tiny: bool = False) -> list[Job]:
    """The ``optimize --verify`` flow on circuits the exact oracle can handle.

    Phase estimation, Fourier transform and every ansatz strategy at 12
    qubits, then the equivalence battery: 200 random circuits with 2..6
    qubits and depth 2..10, shapes cycling as in the acceptance suite.
    """
    rng = bench.SplitMix64(seed ^ _SALT["verify"])
    n = 4 if tiny else 12
    jobs = [_qft(n, verify=True), _qpe(rng, n, verify=True)]
    jobs += [_vqe(rng, n, s, verify=True) for s in bench.STRATEGIES]
    for i in range(10 if tiny else 200):
        spec = bench.RandomSpec(2 + i % 5, 2 + i % 9, rng.next_u64() >> 1)
        circuit = bench.gen_random(spec)
        jobs.append(
            Job(f"battery{i}/proposed", circuit, "proposed", "battery/proposed", verify=True)
        )
    return jobs


BUILDERS = {"families": families, "random": random_jobs, "verify": verify}


def build(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    return BUILDERS[workload](seed, tiny)
