"""Process-local metrics: counters, gauges, histograms (DESIGN.md §10).

A single :class:`MetricsRegistry` accumulates engine-level telemetry —
queries, simulated rounds/work, certification cost, batch fusion,
kernel-tier selection (``kernel.tier.*`` counters, DESIGN.md §13) —
with near-zero overhead (one dict lookup and an integer add per
update).  The registry is
*always on*: unlike tracing it never allocates per query, so there is
nothing to enable.

``repro.obs.snapshot()`` returns a plain-dict view (counters, gauges,
histogram summaries, plus derived rates like the batch fusion rate);
the bench harnesses embed it in their JSON payloads so a perf baseline
records *what* ran, not just how fast.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "snapshot",
    "reset_metrics",
]


class Counter:
    """A monotonically increasing integer-or-float accumulator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


class Gauge:
    """A last-value-wins instantaneous measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """A streaming summary: count / sum / min / max plus power-of-two
    bucket counts (bucket ``k`` holds observations in ``[2^k, 2^{k+1})``,
    with a dedicated bucket for zero)."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[str, int] = {}

    def observe(self, value) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value <= 0:
            key = "0"
        else:
            key = f"2^{int(math.floor(math.log2(value)))}"
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile from the power-of-two buckets.

        Within the bucket holding the target rank the estimate
        interpolates linearly between the bucket bounds, clamped to the
        observed ``[min, max]`` — coarse (buckets are octaves) but
        monotone and cheap, which is what the serving latency gauges
        (``serve.latency_s`` p50/p99, DESIGN.md §15) need.  Exact
        quantiles belong to the bench harnesses, which keep raw samples.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * (self.count - 1)

        def bounds(key: str):
            if key == "0":
                return 0.0, 0.0
            k = int(key[2:])
            return float(2.0 ** k), float(2.0 ** (k + 1))

        seen = 0
        for key, n in sorted(self.buckets.items(), key=lambda kv: bounds(kv[0])[0]):
            if seen + n > rank:
                lo, hi = bounds(key)
                frac = (rank - seen) / n
                estimate = lo + frac * (hi - lo)
                return min(max(estimate, self.min), self.max)
            seen += n
        return self.max

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": dict(sorted(self.buckets.items())),
        }


class MetricsRegistry:
    """Named metric instruments, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram(name))
        return h

    # ------------------------------------------------------------------ #
    @staticmethod
    def _derived(c: Dict[str, float]) -> dict:
        """Rates computed from raw counter values (absent denominators →
        omitted)."""
        out = {}
        bq = c.get("engine.batch.queries", 0)
        if bq:
            out["batch_fusion_rate"] = c.get("engine.batch.fused_queries", 0) / bq
        q = c.get("engine.queries", 0)
        if q:
            out["rounds_per_query"] = c.get("engine.rounds", 0) / q
        sr = c.get("serve.requests", 0)
        if sr:
            out["serve_shed_rate"] = c.get("serve.shed", 0) / (
                sr + c.get("serve.shed", 0)
            )
            out["serve_expired_rate"] = c.get("serve.expired", 0) / sr
            out["serve_fusion_rate"] = c.get("serve.fused_requests", 0) / sr
        return out

    def snapshot(self) -> dict:
        """A plain-dict view of every instrument plus derived rates.

        The instrument dicts are copied under the lock that guards their
        insertions, so another thread creating a first-time instrument
        cannot change them mid-iteration.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        values = {k: v.value for k, v in counters}
        return {
            "counters": values,
            "gauges": {k: v.value for k, v in gauges},
            "histograms": {k: v.summary() for k, v in histograms},
            "derived": self._derived(values),
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry.
_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _REGISTRY


def snapshot() -> dict:
    """Snapshot of the process-wide registry (``repro.obs.snapshot()``)."""
    return _REGISTRY.snapshot()


def reset_metrics() -> None:
    """Clear the process-wide registry (tests and bench harness use)."""
    _REGISTRY.reset()
