"""In-memory spans around the public functions of each qreuse layer.

``Tracer.install`` replaces each traced function at the name its caller looks
it up by (``pipeline.depth`` is imported by name, ``transform.run`` calls
``commute.run`` through the module) and restores the originals on exit. A
span records name, start, end, parent span and the id of the job it ran
under. Spans are only recorded inside a job's root span, so checks that call
the same functions afterwards stay out of the trace.

A layer is the part of a span name before the first dot. Its self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from qreuse import commute, oracle, pipeline, qasm, reuse, transform

ROOT = "job"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# (module, attribute) pairs wrapped at the name their caller resolves.
TRACED = (
    (qasm, "parse"),
    (qasm, "emit"),
    (pipeline, "optimize"),
    (pipeline, "depth"),
    (pipeline, "two_qubit_gate_count"),
    (transform, "run"),
    (transform, "introduce_classical_controls"),
    (transform, "exchange_controls"),
    (transform, "eliminate_dead_gates"),
    (commute, "run"),
    (reuse, "run"),
    (oracle, "equivalent"),
    (oracle, "distribution"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = ""
        # Per job: outcome keys the oracle produced, instructions after the
        # transform stage.
        self.outcomes: dict[str, int] = {}
        self.after_transform: dict[str, int] = {}

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, job_id: str):
        """Root span of one compile; every traced call inside becomes its child."""
        self._job = job_id
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name == "oracle.distribution":
                self.outcomes[self._job] = self.outcomes.get(self._job, 0) + len(result.probs)
            elif name == "transform.run":
                self.after_transform[self._job] = len(result[0].instructions)
            return result

        return traced

    @contextmanager
    def install(self):
        originals = [(module, attr, getattr(module, attr)) for module, attr in TRACED]
        try:
            for module, attr, fn in originals:
                setattr(module, attr, self._wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)


def self_times(spans: list[Span], factors: dict[str, float]) -> dict[str, float]:
    """Self time per layer; the root spans' own time is ``unattributed``.

    Spans on one thread nest strictly, so the part of a span its children
    cover is the sum of the children's durations. Each span's time is
    scaled by its job's host-speed factor.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.seconds
    totals: dict[str, float] = {}
    for span, covered in zip(spans, child_time):
        layer = "unattributed" if span.name == ROOT else span.layer
        own = (span.seconds - covered) * factors[span.job]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def inclusive(spans: list[Span], name: str, factors: dict[str, float]) -> dict[str, float]:
    """Total scaled duration of the spans called ``name``, per job."""
    out: dict[str, float] = {}
    for span in spans:
        if span.name == name:
            out[span.job] = out.get(span.job, 0.0) + span.seconds * factors[span.job]
    return out


def count(spans: list[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)
