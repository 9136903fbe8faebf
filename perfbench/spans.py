"""In-memory span recorder and its Chrome trace-event output.

Spans are recorded by the benchmark's own code around each call into a
simulator layer, kept in memory, and written once when the run ends.  A
span is ``{"id", "parent", "name", "start_ns", "end_ns"}``; timestamps are
wall-clock nanoseconds (monotonic within one process, epoch-aligned so
spans of several processes line up on one timeline).
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List


class Tracer:
    """Records nested spans when ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._epoch = time.time_ns() - time.perf_counter_ns()

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start_ns": self._epoch + time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end_ns"] = self._epoch + time.perf_counter_ns()


def total_seconds(spans: List[Dict], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name) / 1e9


def chrome_trace(processes: List[Dict], run_id: str) -> Dict:
    """Chrome trace-event JSON (opens in Perfetto) for several processes.

    ``processes`` is a list of ``{"name": ..., "spans": [...]}``; each
    becomes one track.  Every event carries the run id, its span id and its
    parent's span id (span ids are unique within a process).
    """
    events = []
    for pid, proc in enumerate(processes, start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
             "args": {"name": proc["name"]}}
        )
        for s in proc["spans"]:
            events.append(
                {
                    "name": s["name"],
                    "ph": "X",
                    "pid": pid,
                    "tid": 1,
                    "ts": s["start_ns"] / 1e3,
                    "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
                    "args": {"run_id": run_id, "span_id": s["id"], "parent": s["parent"]},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"run_id": run_id}}
