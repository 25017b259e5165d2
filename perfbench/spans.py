"""In-memory spans recorded around calls into the program's layers.

A span is (name, start, end, parent, op id) plus counts taken at the
same boundary.  Spans stay in memory while the traced run measures and
are written out once, when it ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int
    op: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    """A thread-safe span recorder; each thread keeps its own stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op: int | None = None, **counts):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op is None:
            op = parent.op if parent is not None else -1
        with self._lock:
            sid = next(self._ids)
        rec = Span(sid, name, parent.id if parent else 0, op, counts=counts)
        stack.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.parent:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
        return sum(max(s.duration - covered.get(s.id, 0.0), 0.0)
                   for s in self.named(name))

    def count(self, name: str, key: str) -> float:
        """Sum of one count over every span called ``name``."""
        return sum(s.counts.get(key, 0) for s in self.named(name))

    def write(self, fh, probe: str) -> int:
        """Write every span as one JSON line; returns how many."""
        for s in sorted(self.spans, key=lambda s: s.start):
            fh.write(json.dumps({"probe": probe, **asdict(s)}) + "\n")
        return len(self.spans)
