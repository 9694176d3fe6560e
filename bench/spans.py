"""In-memory spans recorded around calls into the program's modules.

The program itself is not instrumented. A traced pass replaces public
functions with timing wrappers at the names their callers look up (a module
attribute for `ingest.parse_sessions`, the importing module's global for
`from .features import build_feature_table`, the class attribute for a
method) and restores them afterwards. Spans nest on one thread; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None          # index into Tracer.spans
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, counts and noted values for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.notes: defaultdict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(record)
        self._stack.append(index)
        record.start = self.clock()
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(tracer, args, result) runs after the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def rounds(self, loop: str, marker: str) -> list[float]:
        """Durations of the intervals between successive `marker` calls made
        directly inside each `loop` span; the last interval ends with the loop.
        """
        out = []
        for i, s in enumerate(self.spans):
            if s.name != loop:
                continue
            starts = [c.start for c in self.spans if c.parent == i and c.name == marker]
            starts.append(s.end)
            out.extend(b - a for a, b in zip(starts, starts[1:]))
        return out


def _resolve(dotted: str):
    """'pkg.mod:Attr.sub' -> (owner object, attribute name)."""
    module_name, _, attr_path = dotted.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Wrap each (dotted target, span name, count) for the duration of the block."""
    saved = []
    try:
        for dotted, name, count in targets:
            owner, attr = _resolve(dotted)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
