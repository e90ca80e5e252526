"""In-memory spans for the traced run.

A span holds a name, a start, an end, the span that caused it (parent)
and the root span of its round (trace).  Spans are only kept in memory
while the benchmark runs and are written out once, at the end, together
with each span's self time (its duration minus the time its child spans
cover) and the Ray Dataset statistics recorded for every dataset the
benchmark materialized.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.dataset_stats: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "trace": self.spans[parent]["trace"] if parent is not None
               else len(self.spans),
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def record_stats(self, label: str, ds) -> None:
        """Keep ``Dataset.stats()`` of a materialized dataset, plus one
        record per operator when Ray exposes the structured summary."""
        entry = {"label": label, "num_blocks": ds.num_blocks(),
                 "stats": ds.stats(), "operators": []}
        try:
            summaries = [ds._get_stats_summary()]
            while summaries:
                s = summaries.pop()
                summaries.extend(s.parents)
                for op in s.operators_stats:
                    entry["operators"].append({
                        "operator": op.operator_name,
                        "wall_s": (op.wall_time or {}).get("sum"),
                        "cpu_s": (op.cpu_time or {}).get("sum"),
                        "rows_out": (op.output_num_rows or {}).get("sum"),
                        "bytes_out": (op.output_size_bytes or {}).get("sum"),
                    })
        except Exception:  # the structured summary is not a stable API
            pass
        self.dataset_stats.append(entry)

    def totals(self, trace_ids=None) -> dict[str, float]:
        """Summed duration per span name (optionally within some traces)."""
        out: dict[str, float] = {}
        for s in self.spans:
            if trace_ids is None or s["trace"] in trace_ids:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def roots(self, name: str) -> list[int]:
        return [s["id"] for s in self.spans
                if s["parent"] is None and s["name"] == name]

    def self_times(self) -> list[float]:
        """Duration minus the union of the child spans' intervals (the
        children of one span run one after another, so their durations
        add up to the covered part)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def write(self, path: str, extra: dict) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [{"id": s["id"], "name": s["name"], "parent": s["parent"],
                  "trace": s["trace"], "start_s": s["start"] - t0,
                  "end_s": s["end"] - t0, "self_s": st}
                 for s, st in zip(self.spans, self.self_times())]
        with open(path, "w") as f:
            json.dump({**extra, "spans": spans,
                       "dataset_stats": self.dataset_stats}, f, indent=1,
                      default=str)


def span(tracer: Tracer | None, name: str):
    """A span when tracing, otherwise nothing."""
    return tracer.span(name) if tracer is not None else nullcontext()
