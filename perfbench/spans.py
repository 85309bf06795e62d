"""In-memory span recorder for the traced run.

A span has a name, a start, an end, the span that caused it (its
parent) and an operation id shared by every span of one request or
operation.  Spans stay in memory and are written as one trace file at
exit, in the Chrome/Perfetto ``traceEvents`` shape plus a flat
``spans`` list that keeps the parent links explicit.

The untraced runs use :class:`NullTracer`, whose calls do nothing, so
end-to-end numbers never pay for recording.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Records spans; nesting via :meth:`span` follows a per-tracer stack.

    Overlapping asynchronous work (one open-loop request among many)
    cannot nest on a stack, so it is recorded after the fact with
    :meth:`record` and an explicit parent.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if op is None:
            op = parent.op if parent is not None else name
        s = Span(
            id=len(self.spans),
            name=name,
            op=op,
            parent=None if parent is None else parent.id,
            start=self.clock(),
        )
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._stack.pop()

    def record(
        self,
        name: str,
        op: str,
        start: float,
        end: float,
        parent: int | None = None,
    ) -> int:
        s = Span(len(self.spans), name, op, parent, start, end)
        self.spans.append(s)
        return s.id

    def durations_ms(self, name: str) -> list[float]:
        return [s.ms for s in self.spans if s.name == name]

    def write(self, path: Path, stamp: dict) -> None:
        """Write every span as one trace file."""
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - self.origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": s.id, "parent": s.parent, "op": s.op},
            }
            for s in self.spans
        ]
        doc = {
            "stamp": stamp,
            "spans": [
                dict(asdict(s), self_ms=ms)
                for s, ms in zip(self.spans, self_times(self.spans))
            ],
            "traceEvents": events,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


class NullTracer:
    """Tracer stand-in for untraced runs: records nothing."""

    @contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[None]:
        yield None

    def record(self, name, op, start, end, parent=None) -> None:
        return None


def self_times(spans: list[Span]) -> list[float]:
    """Self time (ms) of each span: its duration minus the part of its
    interval that its children cover (overlapping children count once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start - covered) * 1e3)
    return out


def check_links(doc: dict) -> list[str]:
    """Problems with the parent links of a written trace document.

    Every parent must name a span of the same operation whose
    interval contains the child's.
    """
    spans = {s["id"]: s for s in doc["spans"]}
    problems = []
    for s in doc["spans"]:
        p = s["parent"]
        if p is None:
            continue
        parent = spans.get(p)
        if parent is None:
            problems.append(f"span {s['id']} names missing parent {p}")
        elif parent["op"] != s["op"]:
            problems.append(f"span {s['id']} op {s['op']!r} != parent op")
        elif not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            problems.append(f"span {s['id']} lies outside its parent {p}")
    return problems
