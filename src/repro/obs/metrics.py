"""The metrics registry: the one recorder of timers, counters, gauges
and histograms.

* **timers**: per-phase *self* (exclusive) seconds and call counts.
  Spans nest (``anneal`` encloses ``packing``; ``congestion`` encloses
  ``congestion.mass_eval``), and each span's elapsed time is
  subtracted from its parent's, so the rows add up to the root span's
  inclusive time and a layer's total is the sum of its rows by name
  prefix;
* **counters**: event counts (``eval_full``, ``ledger_hits``, ...);
* **gauges**: last-written values (current temperature, best cost,
  per-cache hit rates);
* **fixed-bucket histograms**: distributions of per-step signals --
  move acceptance rate by temperature step, per-arm slot allocations.

Everything snapshots to plain JSON (:meth:`MetricsRegistry.snapshot`)
and merges additively (:meth:`MetricsRegistry.merge_snapshot`), so
worker processes ship their registry home as a dict on the result
object and the coordinator folds every worker into one run-wide view.
The shared :data:`NULL_METRICS` is the do-nothing default: hot-path
code can always write ``with self.perf.timeit("phase"):`` and pay
essentially nothing when nobody is listening.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import nullcontext
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "PhaseStat",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_RATE_BUCKETS",
]

# Acceptance-style ratios live in [0, 1]; twenty 5%-wide buckets.
DEFAULT_RATE_BUCKETS: Tuple[float, ...] = tuple(
    round(i / 20.0, 2) for i in range(1, 21)
)


class PhaseStat:
    """Accumulated self seconds and call count of one timer."""

    __slots__ = ("seconds", "calls")

    def __init__(self, seconds: float = 0.0, calls: int = 0):
        self.seconds = seconds
        self.calls = calls

    @property
    def ms_per_call(self) -> float:
        return 1000.0 * self.seconds / self.calls if self.calls else 0.0

    def __repr__(self) -> str:
        return f"PhaseStat(seconds={self.seconds:.6f}, calls={self.calls})"


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``bounds`` are inclusive upper bucket edges; one overflow bucket
    catches values above the last edge.  Tracks count, sum, min and
    max alongside the bucket counts.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float]):
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one value."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of every observed value (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe image: bounds, bucket counts, count/sum/min/max."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge_snapshot(self, data: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` image into this histogram.

        The bounds must match -- merging histograms of different
        shapes is a caller bug, reported loudly.
        """
        bounds = tuple(float(b) for b in data["bounds"])
        if bounds != self.bounds:
            raise ValueError(
                f"histogram bounds mismatch: {bounds} vs {self.bounds}"
            )
        for i, n in enumerate(data["counts"]):
            self.counts[i] += int(n)
        self.count += int(data["count"])
        self.total += float(data["sum"])
        for field, pick in (("min", min), ("max", max)):
            theirs = data.get(field)
            if theirs is None:
                continue
            mine = getattr(self, field)
            setattr(
                self,
                field,
                float(theirs) if mine is None else pick(mine, float(theirs)),
            )


class _Span:
    """One ``with``-block measurement feeding a registry.

    On exit the span records its elapsed time minus the time its child
    spans took, and adds its whole elapsed time to the enclosing span's
    child total.
    """

    __slots__ = ("_registry", "_name", "_t0", "child_s")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Span":
        self.child_s = 0.0
        self._registry._open.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        open_spans = self._registry._open
        open_spans.pop()
        if open_spans:
            open_spans[-1].child_s += elapsed
        self._registry.add_time(self._name, elapsed - self.child_s)


class MetricsRegistry:
    """Timers, counters, gauges and histograms of one run or service.

    ``timers`` maps a phase name to its :class:`PhaseStat` of self
    seconds; ``counters`` maps an event name to its count.  Timers are
    not thread-safe by design: one registry's spans must all open and
    close on one thread (each annealing run owns its registry; the
    service times only on its event-loop thread), because the stack of
    open spans that turns elapsed time into self time is per registry.
    Fold registries from other threads or processes with
    :meth:`merge_snapshot`.
    """

    def __init__(self) -> None:
        self.timers: Dict[str, PhaseStat] = {}
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._open: List[_Span] = []

    # -- timers and counters ------------------------------------------

    def timeit(self, name: str):
        """Context manager timing one occurrence of phase ``name``;
        records its self time (nested spans' time excluded)."""
        return _Span(self, name)

    def add_time(self, name: str, seconds: float) -> None:
        """Add one occurrence of ``seconds`` self time to ``name``."""
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = PhaseStat()
        stat.seconds += seconds
        stat.calls += 1

    def count(self, name: str, n: int = 1) -> None:
        """Bump counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    # -- gauges and histograms ---------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self.gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        bounds: Sequence[float] = DEFAULT_RATE_BUCKETS,
    ) -> None:
        """Record ``value`` into histogram ``name`` (created on first
        use with ``bounds``)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds)
        hist.observe(value)

    def set_cache_gauges(self, cache_stats: Mapping[str, Any]) -> None:
        """Publish per-cache hit-rate gauges from a ``name ->
        CacheStats`` snapshot (caches with zero lookups are skipped)."""
        for name, stats in cache_stats.items():
            if getattr(stats, "lookups", 0):
                self.gauge(f"cache_hit_rate.{name}", stats.hit_rate)

    # -- aggregation --------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe image of every timer, counter, gauge, histogram."""
        return {
            "timers": {
                name: {"seconds": s.seconds, "calls": s.calls}
                for name, s in sorted(self.timers.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self.histograms.items())
            },
        }

    def merge_snapshot(self, data: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Timers, counters and histograms add; gauges last-write-wins --
        the shapes' natural merge semantics for stitching worker
        registries into the coordinator's.
        """
        for name, stat in data.get("timers", {}).items():
            mine = self.timers.get(name)
            if mine is None:
                mine = self.timers[name] = PhaseStat()
            mine.seconds += float(stat["seconds"])
            mine.calls += int(stat["calls"])
        for name, n in data.get("counters", {}).items():
            self.count(name, int(n))
        for name, value in data.get("gauges", {}).items():
            self.gauge(name, value)
        for name, hist_data in data.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram(hist_data["bounds"])
            hist.merge_snapshot(hist_data)


    def report(self, title: Optional[str] = None) -> str:
        """Human-readable table: self seconds, calls and ms/call per
        timer (largest first), a total row, then the counters."""
        lines = []
        if title:
            lines.append(title)
        if self.timers:
            width = max(len(n) for n in ("total", *self.timers))
            lines.append(
                f"{'phase'.ljust(width)}  {'self s':>10}  {'calls':>8}  "
                f"{'ms/call':>9}"
            )
            for name, s in sorted(
                self.timers.items(), key=lambda kv: -kv[1].seconds
            ):
                lines.append(
                    f"{name.ljust(width)}  {s.seconds:>10.4f}  {s.calls:>8d}  "
                    f"{s.ms_per_call:>9.3f}"
                )
            total = sum(s.seconds for s in self.timers.values())
            lines.append(f"{'total'.ljust(width)}  {total:>10.4f}")
        if self.counters:
            lines.append(
                "counters: "
                + "  ".join(
                    f"{name}={n}" for name, n in sorted(self.counters.items())
                )
            )
        return "\n".join(lines) if lines else "(no measurements)"


_NULL_SPAN = nullcontext()


class _NullMetricsRegistry(MetricsRegistry):
    """Registry that records nothing; safe to share globally."""

    def timeit(self, name: str):
        """A no-op span."""
        return _NULL_SPAN

    def add_time(self, name: str, seconds: float) -> None:
        """Discard the time."""

    def count(self, name: str, n: int = 1) -> None:
        """Discard the count."""

    def gauge(self, name: str, value: float) -> None:
        """Discard the gauge write."""

    def observe(
        self,
        name: str,
        value: float,
        bounds: Sequence[float] = DEFAULT_RATE_BUCKETS,
    ) -> None:
        """Discard the observation."""

    def merge_snapshot(self, data: Mapping[str, Any]) -> None:
        """Discard the merge."""


NULL_METRICS = _NullMetricsRegistry()
