"""Benchmark-side spans, self time and summary statistics.

Spans are recorded only by the benchmark's own code, around calls into the
program's public functions; the program itself is not instrumented.  A
span has a name, a start and end (``time.perf_counter`` seconds), the id
of the span that caused it and a request id shared by every span of one
request.  Spans stay in memory and are written out once, when the run
ends.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator


@dataclass
class Span:
    """One timed interval around a call into one layer."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder; disabled tracers record nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        request: int | None = None,
    ) -> int | None:
        """Store a finished span; returns its id (``None`` when disabled)."""
        if not self.enabled:
            return None
        sid = len(self.spans)
        self.spans.append(Span(sid, name, start, end, parent, request))
        return sid

    @contextmanager
    def span(
        self, name: str, *, parent: int | None = None, request: int | None = None
    ) -> Iterator[int | None]:
        """Time the ``with`` body; yields the span id for its children."""
        if not self.enabled:
            yield None
            return
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, request)
        self.spans.append(span)
        try:
            yield span.sid
        finally:
            span.end = time.perf_counter()

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result: dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.sid] = span.duration - covered
        return result

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """Write every span with its self time as one JSON document."""
        own = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": meta,
            "spans": [
                {
                    "id": span.sid,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "request": span.request,
                    "self": own[span.sid],
                }
                for span in self.spans
            ],
        }
        path.write_text(json.dumps(payload))


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile by linear interpolation (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0
