import inspect
import math
import sys

import pytest

from qreuse.bench import RandomSpec, SplitMix64, gen_qft, gen_qpe, gen_random, gen_vqe
from qreuse.ir import CircuitBuilder


def cx_pair(with_second_prep: bool = False):
    """Two measurements after a CX, first qubit prepared in superposition."""
    b = CircuitBuilder(2, 2)
    b.h(0)
    if with_second_prep:
        b.h(1)
    b.cx(0, 1)
    b.measure(0, 0)
    b.measure(1, 1)
    return b.build()


def small_random(seed: int, max_qubits: int = 4, max_depth: int = 6):
    """Small deterministic random circuit for semantic property tests."""
    n = 2 + seed % (max_qubits - 1)
    d = 2 + (seed // 7) % (max_depth - 1)
    return gen_random(RandomSpec(n, d, seed))


def adversarial(seed: int):
    """Circuit with constructs the benchmark generator never emits.

    Mid-circuit and repeated measurements, resets, negated conditions, and
    toggles, to stress the passes' classical hazard guards.
    """
    rng = SplitMix64(seed)
    n = 2 + rng.randrange(3)
    m = n + rng.randrange(2)
    b = CircuitBuilder(n, m, name=f"adv{seed}")
    assigned: list[int] = []
    for _ in range(6 + rng.randrange(12)):
        roll = rng.randrange(10)
        q = rng.randrange(n)
        cond = ()
        if assigned and rng.randrange(3) == 0:
            cond = ((rng.choice(assigned), rng.randrange(2) == 0),)
        if roll < 4:
            kind = rng.choice(("h", "x", "y", "z", "s", "p"))
            if kind == "p":
                b.p(rng.uniform() * 6.28, q, condition=cond)
            else:
                getattr(b, kind)(q, condition=cond)
        elif roll < 6 and n > 1:
            partner = (q + 1 + rng.randrange(n - 1)) % n
            kind = rng.choice(("cx", "cz", "cp"))
            if kind == "cp":
                b.cp(rng.uniform() * 6.28, q, partner, condition=cond)
            else:
                getattr(b, kind)(q, partner, condition=cond)
        elif roll < 8:
            bit = rng.randrange(m)
            b.measure(q, bit)
            assigned.append(bit)
        elif roll == 8:
            b.reset(q)
        elif assigned:
            target = rng.choice(assigned)
            others = [x for x in assigned if x != target]
            product = ()
            if others and rng.randrange(2) == 0:
                product = ((rng.choice(others), rng.randrange(2) == 0),)
            b.toggle(target, product)
    for q in range(n):
        b.measure(q, q % m)
    return b.build()


def schedule_battery():
    """Inputs on which the linear-time rewrite schedules must replay the
    scan-based ones: small and hazard-heavy circuits, plus a few larger."""
    for seed in range(400):
        yield adversarial(seed)
        yield small_random(seed)
    for seed in range(4):
        yield gen_random(RandomSpec(32, 8, seed))


def wide_battery():
    """Wide inputs the schedule battery lacks: sparse n120 d2 and dense n32
    d8 random circuits, and the paper's families at 32 and 64 qubits."""
    for seed in range(12):
        yield gen_random(RandomSpec(120, 2, seed))
        yield gen_random(RandomSpec(32, 8, seed))
    for n in (32, 64):
        yield gen_qft(n)
        yield gen_qpe(n, 2 * math.pi * 3 / 8)
        yield gen_vqe(n, "full")


def marked_line(function, marker):
    """The line number of the line of ``function`` that ends with the
    comment ``# <marker>``."""
    source, first = inspect.getsourcelines(function)
    for k, line in enumerate(source):
        if line.rstrip().endswith(f"# {marker}"):
            return first + k
    pytest.fail(f"no line of {function.__qualname__} ends with the marker comment '# {marker}'")


def count_executions(function, marker, call, limit):
    """``call()``'s result and how often it ran ``function``'s line marked
    ``marker``; fails as soon as the count exceeds ``limit``."""
    code, line = function.__code__, marked_line(function, marker)
    executed = 0

    def trace(frame, event, arg):
        return count if frame.f_code is code else None

    def count(frame, event, arg):
        nonlocal executed
        if event == "line" and frame.f_lineno == line:
            executed += 1
            if executed > limit:
                raise AssertionError(f"{function.__qualname__} ran '# {marker}' over {limit} times")
        return count

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, executed


@pytest.fixture
def bell_measured():
    return cx_pair(with_second_prep=False)
