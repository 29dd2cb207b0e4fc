"""Host-speed adjustment for timings taken on a shared machine.

On a shared host the same compile can take 30% longer for tens of seconds
while neighbours are busy, and that drift swamps run-to-run comparisons.
A fixed pure-Python kernel, independent of qreuse and exercising the same
interpreter paths (small frozen objects, tuple-keyed dicts, a heap), is timed
between jobs. Each job's seconds are scaled by ``NOMINAL_S`` over the kernel
time measured around it, which gives seconds at the speed where the kernel
takes ``NOMINAL_S``. The raw seconds are reported alongside.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import statistics
import time
from dataclasses import dataclass

# The kernel's time on a quiet host of the reference machine (2-vCPU Xeon VM,
# Python 3.11); it only fixes the scale, comparisons do not depend on it.
NOMINAL_S = 0.0125
# Seconds of work between two kernel samples.
CADENCE_S = 0.5


@dataclass(frozen=True, slots=True)
class _Item:
    key: int
    pair: tuple[int, int]


def kernel() -> int:
    table: dict[tuple[int, int], _Item] = {}
    heap: list[int] = []
    popped = 0
    for i in range(12000):
        item = _Item(i, (i & 7, i >> 3))
        table[item.pair] = item
        heapq.heappush(heap, (i * 2654435761) & 0xFFFF)
        if len(heap) > 64:
            popped += heapq.heappop(heap)
    return len(table) + popped


class HostSpeed:
    """Kernel samples over a run and the scale factor for any interval."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []
        kernel()  # warm up before the first sample counts

    def sample(self) -> None:
        # With the collector on, the kernel's allocations would trigger
        # collections whose cost grows with the program's live heap.
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.times.append(end)
        self.seconds.append(end - start)

    def maybe_sample(self) -> None:
        """Sample when the last sample is more than ``CADENCE_S`` old."""
        if not self.times or time.perf_counter() - self.times[-1] >= CADENCE_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Scale for work done in ``[start, end]``: the samples on either side."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        near = [self.seconds[i] for i in (before, after) if 0 <= i < len(self.seconds)]
        return NOMINAL_S / statistics.fmean(near)
