"""In-memory span recorder for the traced pass.

Spans are recorded from the benchmark's own files, around its calls into
each layer's public functions: name, start, end, the span that caused it
(parent) and the request it belongs to. They stay in memory and are
written out once, when the run ends. A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
import time
from collections.abc import Iterator


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None = None
    request: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``span()`` nests by thread, ``add()`` is explicit."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request: str | None = None) -> int:
        """Record a finished span; returns its index (usable as a parent)."""
        with self._lock:
            self.spans.append(Span(name, start, end, parent, request))
            return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[int]:
        """Time the body; the enclosing ``span()`` of this thread is parent."""
        stack = self._stack.__dict__.setdefault("items", [])
        index = self.add(name, self.clock(), float("nan"),
                         parent=stack[-1] if stack else None, request=request)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = self.clock()

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children inside it."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(index, ()),
                                key=lambda item: item.start):
                low = max(child.start, reach)
                high = min(child.end, span.end)
                if high > low:
                    covered += high - low
                    reach = high
            result.append(span.duration - covered)
        return result

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]

    def dump(self, path: str, **header: object) -> None:
        """Write every span (and its self time) as one JSON document."""
        rows = [
            {**dataclasses.asdict(span), "self": own}
            for span, own in zip(self.spans, self.self_times())
        ]
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({**header, "unit": "s", "spans": rows}, stream)
