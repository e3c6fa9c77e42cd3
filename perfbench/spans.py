"""In-memory spans for the benchmark's traced runs.

A span is one timed call: name, start, end, the span that was open when it
began (its parent), and the operation it belongs to. Spans stay in memory
and are written out once, when the run ends. Self-contained on purpose, so
the package's own run record can adopt it unchanged.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = 0
        self._open: list[int] = []

    def next_op(self) -> int:
        """Start a new operation; later spans carry its id."""
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def find(self, name: str, **attrs) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())
        ]

    def total(self, name: str, **attrs) -> float:
        """Summed duration of every finished span matching `name` and `attrs`."""
        return sum(s["end"] - s["start"] for s in self.find(name, **attrs))

    def self_time(self, span: dict) -> float:
        """Duration of `span` minus the part of it its child spans cover."""
        covered = 0.0
        reach = span["start"]
        children = sorted(
            (s["start"], s["end"]) for s in self.spans if s["parent"] == span["id"]
        )
        for start, end in children:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return (span["end"] - span["start"]) - covered

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")
