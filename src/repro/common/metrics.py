"""Lightweight metrics: counters, gauges and percentile histograms.

Every component exposes a :class:`MetricsRegistry`; the benchmark harness
reads p50/p95/p99 latencies and throughput counters from it.  The paper's
operational story (Section 9.3: per-use-case dashboards, chargeback) hangs
off the same registry.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass, field


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty, ascending sequence."""
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(1, min(len(ordered), rank)) - 1]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down; remembers its high-water mark."""

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class Histogram:
    """Records observations and answers percentile queries exactly.

    Keeps a sorted list; fine for the volumes our experiments record
    (≤ a few hundred thousand observations per histogram).
    """

    __slots__ = ("_sorted", "count", "total")

    def __init__(self) -> None:
        self._sorted: list[float] = []
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        insort(self._sorted, value)
        self.count += 1
        self.total += value

    def percentile(self, pct: float) -> float:
        """Exact percentile, nearest-rank method. pct in [0, 100]."""
        if not self._sorted:
            return math.nan
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        return nearest_rank(self._sorted, pct)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def max(self) -> float:
        return self._sorted[-1] if self._sorted else math.nan

    @property
    def min(self) -> float:
        return self._sorted[0] if self._sorted else math.nan

    def count_at_or_below(self, value: float) -> int:
        """How many observations are <= value (for SLA attainment)."""
        return bisect_right(self._sorted, value)


@dataclass
class MetricsRegistry:
    """Named metrics for one component instance."""

    name: str = "default"
    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, key: str) -> Counter:
        if key not in self.counters:
            self.counters[key] = Counter()
        return self.counters[key]

    def gauge(self, key: str) -> Gauge:
        if key not in self.gauges:
            self.gauges[key] = Gauge()
        return self.gauges[key]

    def histogram(self, key: str) -> Histogram:
        if key not in self.histograms:
            self.histograms[key] = Histogram()
        return self.histograms[key]

    def snapshot(self) -> dict[str, float]:
        """Flat view used by dashboards, the watchdog and tests."""
        out: dict[str, float] = {}
        for key, counter in self.counters.items():
            out[f"{key}.count"] = counter.value
        for key, gauge in self.gauges.items():
            out[f"{key}.value"] = gauge.value
            out[f"{key}.max"] = gauge.max_value
        for key, hist in self.histograms.items():
            if hist.count:
                out[f"{key}.p50"] = hist.percentile(50)
                out[f"{key}.p99"] = hist.percentile(99)
                out[f"{key}.mean"] = hist.mean
                out[f"{key}.n"] = hist.count
        return out
