"""In-memory span recorder for the benchmark, with Chrome trace export.

A span is (name, start, end, parent).  Spans are recorded around the
benchmark's calls into the program's public functions, kept in memory
and written out once, at the end, as Chrome trace-event JSON that
Perfetto (ui.perfetto.dev) or chrome://tracing open offline.

A disabled tracer records nothing: its ``span`` is a bare context
manager, so untraced runs measure the program, not the tracer.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "index")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 index: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.index = index

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans on ``time.perf_counter``, relative to ``origin``."""

    def __init__(self, enabled: bool, origin: float):
        self.enabled = enabled
        self.origin = origin
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent, len(self.spans))
        self.spans.append(record)
        self._stack.append(record.index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    # -- analysis ---------------------------------------------------------

    def top_level(self) -> List[Span]:
        return [span for span in self.spans if span.parent is None]

    def self_seconds(self) -> Dict[int, float]:
        """Each span's duration minus the time its children cover.

        Children of one span never overlap (one thread, strict
        nesting), so the covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return {
            span.index: span.duration - covered[span.index]
            for span in self.spans
        }

    def totals(self) -> Dict[str, Tuple[float, float]]:
        """``name -> (total seconds, total self seconds)``."""
        own = self.self_seconds()
        out: Dict[str, Tuple[float, float]] = {}
        for span in self.spans:
            total, self_total = out.get(span.name, (0.0, 0.0))
            out[span.name] = (
                total + span.duration, self_total + own[span.index]
            )
        return out

    # -- export -----------------------------------------------------------

    def chrome_trace(self, counters: Dict[str, float],
                     metadata: Dict[str, object]) -> Dict:
        """Chrome trace-event JSON: one complete ("X") event per span,
        microseconds from ``origin``, self time and parent in args;
        the run's counters as one counter ("C") event at the end."""
        own = self.self_seconds()
        events = []
        for span in self.spans:
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - self.origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "self_us": own[span.index] * 1e6,
                    "parent": (
                        self.spans[span.parent].name
                        if span.parent is not None else None
                    ),
                },
            })
        end = max((span.end for span in self.spans), default=self.origin)
        events.append({
            "name": "counters",
            "ph": "C",
            "ts": (end - self.origin) * 1e6,
            "pid": 1,
            "args": counters,
        })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }

    def write(self, path, counters: Dict[str, float],
              metadata: Dict[str, object]) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(counters, metadata), handle)
