"""In-memory span recorder for the benchmark, stdlib only.

The benchmark wraps each call it makes into an entbounds layer in a span;
each item gets one parent span.  A disabled recorder hands out a shared
no-op context manager, so untraced runs execute the same code with
negligible cost.  Spans stay in memory and are written out once, at the
end of a traced run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.index = len(rec.spans)
        parent = rec._stack[-1] if rec._stack else -1
        rec.spans.append([rec.item, self.name, parent, time.perf_counter_ns(), 0])
        rec._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.spans[self.index][4] = time.perf_counter_ns()
        rec._stack.pop()
        return False


class Recorder:
    """Spans as [item, name, parent_index, start_ns, end_ns] rows.

    Spans of one item share its item id; parent_index is the enclosing
    span's row (-1 for the item's own span).
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.item = -1
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self seconds, span count).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_ns = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0])
        for (_, name, _, start, end), inner in zip(self.spans, child_ns):
            acc = totals[name]
            acc[0] += end - start - inner
            acc[1] += 1
        return {name: (ns * 1e-9, n) for name, (ns, n) in totals.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["item", "name", "parent", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")
