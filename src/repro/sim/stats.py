"""Lightweight statistics primitives used across the stack.

``LatencyRecorder`` keeps raw samples (the experiments are small enough
that exact percentiles are affordable and reproducible), ``Counter`` is a
named monotonic counter, and ``RatioStat`` tracks hit/miss style ratios.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Optional


class Counter:
    """Named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative, got {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class RatioStat:
    """Tracks successes over trials (e.g. cache hits over lookups)."""

    __slots__ = ("name", "hits", "total")

    def __init__(self, name: str = "ratio") -> None:
        self.name = name
        self.hits = 0
        self.total = 0

    def record(self, hit: bool) -> None:
        self.total += 1
        if hit:
            self.hits += 1

    @property
    def misses(self) -> int:
        return self.total - self.hits

    @property
    def ratio(self) -> float:
        """Hit ratio in [0, 1]; 0.0 when no events were recorded."""
        if self.total == 0:
            return 0.0
        return self.hits / self.total

    def reset(self) -> None:
        self.hits = 0
        self.total = 0

    def __repr__(self) -> str:
        return f"RatioStat({self.name!r}, {self.hits}/{self.total})"


class LatencyRecorder:
    """Collects latency samples (ns) and reports exact percentiles.

    The fast paths append to ``_samples`` directly (and clear
    ``_sorted``) instead of calling :meth:`record`; keep any new
    bookkeeping inside those two fields so the inlined sites stay
    faithful.  ``_samples`` is an ``array('q')``: 8 bytes a sample
    instead of a list slot plus a boxed int, so a run that does more
    operations in the same wall time does not grow the heap by 40 bytes
    for each of them.
    """

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self._samples = array("q")
        self._sorted: Optional[List[int]] = None

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"latency must be non-negative, got {latency_ns}")
        self._samples.append(latency_ns)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total_ns(self) -> int:
        return sum(self._samples)

    def mean(self) -> float:
        """Mean latency in nanoseconds (0.0 with no samples)."""
        if not self._samples:
            return 0.0
        return self.total_ns / len(self._samples)

    def percentile(self, pct: float) -> int:
        """Exact percentile via the nearest-rank method.

        ``pct`` is in (0, 100].  Returns 0 when no samples were recorded
        so idle components report cleanly.
        """
        if not 0 < pct <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {pct}")
        if not self._samples:
            return 0
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        rank = max(1, math.ceil(pct / 100.0 * len(self._sorted)))
        return self._sorted[rank - 1]

    def p50(self) -> int:
        return self.percentile(50)

    def p90(self) -> int:
        return self.percentile(90)

    def p99(self) -> int:
        return self.percentile(99)

    def max(self) -> int:
        return max(self._samples) if self._samples else 0

    def min(self) -> int:
        return min(self._samples) if self._samples else 0

    def snapshot(self) -> Dict[str, float]:
        """Summary dict for reports: count, mean, p50/p90/p99/max in ns."""
        return {
            "count": self.count,
            "mean_ns": self.mean(),
            "p50_ns": self.p50(),
            "p90_ns": self.p90(),
            "p99_ns": self.p99(),
            "max_ns": self.max(),
        }

    def reset(self) -> None:
        del self._samples[:]  # array.clear() is Python 3.13+
        self._sorted = None

    def __repr__(self) -> str:
        return f"LatencyRecorder({self.name!r}, n={self.count})"
