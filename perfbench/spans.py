"""Spans, self time and the summary statistics the benchmark reports.

A span is one timed call made by the benchmark: its name (a layer function,
``<module>.<function>``), start and end in perf_counter nanoseconds, the
index of its parent span (or -1) and the id of the item it belongs to.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    item: str


class Tracer:
    """Collects spans; ``open``/``close`` bracket a span with children."""

    def __init__(self):
        self.spans: list[Span] = []

    def open(self, name: str, item: str, parent: int = -1) -> int:
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, item))
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()

    def add(self, name: str, start: int, end: int, parent: int, item: str) -> None:
        self.spans.append(Span(name, start, end, parent, item))

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent, sp.item]) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the part of it its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
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
        out.append(sp.end - sp.start - covered)
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it.

    With N sorted samples that is the (N-10)-th smallest, the
    100*(N-10)/N percentile. Fewer than 11 samples have no such
    percentile; the maximum is returned with percentile 100.
    """
    n = len(samples)
    ordered = sorted(samples)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def layer_stats(spans: list[Span], selfs: list[int]) -> dict[str, dict]:
    """calls, busy_s (sum of self time) and p50_us (median self time) per name."""
    by_name: dict[str, list[int]] = {}
    for sp, st in zip(spans, selfs):
        by_name.setdefault(sp.name, []).append(st)
    return {
        name: {
            "calls": len(v),
            "busy_s": sum(v) / 1e9,
            "p50_us": statistics.median(v) / 1e3,
        }
        for name, v in by_name.items()
    }
