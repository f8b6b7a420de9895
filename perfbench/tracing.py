"""Spans around the benchmark's calls into each mhray layer.

A span has a name, start, end, parent span and the run id shared by all
spans of one traced run. Spans stay in memory until ``write``. Spans
nest on one thread, so children never overlap and a span's self time is
its duration minus its children's durations."""

from __future__ import annotations

import json
import time
import uuid
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str | None = None):
        self.run_id = run_id or uuid.uuid4().hex
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": idx, "name": name, "parent": parent,
               "run_id": self.run_id, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_time(self, idx: int) -> float:
        rec = self.spans[idx]
        kids = sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] == idx)
        return (rec["end"] - rec["start"]) - kids

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name, over the closed spans."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            out[s["name"]] = out.get(s["name"], 0.0) + self.self_time(s["id"])
        return out

    def write(self, path: str) -> None:
        spans = [dict(s, self_s=self.self_time(s["id"])) for s in self.spans]
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": spans}, f, indent=1)
