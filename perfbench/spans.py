"""In-memory span recorder for the benchmark's traced runs.

A span covers one call from the benchmark into a public function of an
oseq module: name, start, end, parent span and run id, plus a few
attributes such as byte or node counts.  Spans stay in memory and are
written out as JSON lines when the run ends.  With memory=True every span
also records its tracemalloc peak above the traced memory at its start;
the caller starts and stops tracemalloc around such a tracer.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    peak_bytes: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    def span(self, name: str, **attrs):
        return nullcontext({})


class Tracer:
    def __init__(self, run_id: str, memory: bool = False):
        self.run_id = run_id
        self.memory = memory
        self.spans: list[Span] = []
        # Open spans, innermost last, as [span, traced bytes at start,
        # highest traced bytes seen while open].
        self._open: list[list] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent[2] = max(parent[2], peak)
            tracemalloc.reset_peak()
        else:
            current = 0
        span = Span(len(self.spans), name,
                    parent[0].span_id if parent is not None else None,
                    self.run_id, time.perf_counter(), attrs=dict(attrs))
        self.spans.append(span)
        entry = [span, current, current]
        self._open.append(entry)
        try:
            yield span.attrs
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if self.memory:
                entry[2] = max(entry[2], tracemalloc.get_traced_memory()[1])
                span.peak_bytes = entry[2] - entry[1]
                if parent is not None:
                    parent[2] = max(parent[2], entry[2])
                tracemalloc.reset_peak()

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.span_id] = s.seconds - covered
        return out

    def named(self, name: str, **where) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in where.items())]

    def total_seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def total_self_seconds(self, name: str, **where) -> float:
        own = self.self_seconds()
        return sum(own[s.span_id] for s in self.named(name, **where))

    def total_attr(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.named(name))

    def peak_mb(self, name: str) -> float:
        peaks = [s.peak_bytes for s in self.named(name) if s.peak_bytes is not None]
        return max(peaks, default=0) / 1e6

    def write_jsonl(self, fh) -> None:
        own = self.self_seconds()
        for s in self.spans:
            record = asdict(s)
            record["self_s"] = own[s.span_id]
            fh.write(json.dumps(record, default=str) + "\n")
