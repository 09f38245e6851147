"""Spans around calls into sbridge, recorded from the benchmark's side.

A span is one public call: its name ("<module>.<function>"), start, end and
parent span. All spans of one pipeline share a run id. Spans are kept in
memory and handed back when the pipeline ends; nothing is written while the
pipeline runs. With tracing off, calls are forwarded without a span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from sbridge import GridDrift


class Tracer:
    """Span recorder; a disabled tracer only forwards calls."""

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def grid_drift(self, times, fields) -> GridDrift:
        """A GridDrift, built inside a span; its lookups are spans too when tracing."""
        if not self.enabled:
            return GridDrift(times, fields)
        with self.span("sde.GridDrift"):
            return TimedGridDrift(times, fields, self)

    def records(self) -> list[dict]:
        return [
            {"run": self.run_id, "name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


class TimedGridDrift(GridDrift):
    """GridDrift whose lookups are recorded as "sde.drift_lookup" spans.

    Subclassing keeps isinstance(drift, GridDrift) true, so the samplers still
    enforce the clamp budget and the DriftBlowup width check on it.
    """

    def __init__(self, times, fields, tracer: Tracer):
        super().__init__(times, fields)
        self._tracer = tracer

    def __call__(self, x, t):
        with self._tracer.span("sde.drift_lookup"):
            return super().__call__(x, t)
