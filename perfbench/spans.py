"""In-memory span recorder of the traced run.

A span wraps one call the benchmark makes into a public function of the
engine: name, start, end, parent span and run id. Spans stay in memory
and are written out as JSON lines when the benchmark ends. Spans inside
the engine are not recorded; the benchmark only sees its own calls.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans; ``enabled=False`` records nothing, so untraced
    runs pay only the ``with`` statement."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({**s, "self": selfs.get(s["id"])}) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: the span's duration minus the part of its
    interval that its direct children cover (overlapping children count
    once, and a child's part outside the parent does not count)."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        if s["end"] is None:
            continue
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            if c["end"] is None:
                continue
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
