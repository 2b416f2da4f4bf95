"""Bounded caches for the annealing hot path.

:class:`BoundedCache` is the thread-safe LRU map behind every memo,
and :class:`CacheContext` owns one instance of each hot-path cache per
engine, reporting their hit/miss/eviction statistics.  Timers and
counters live in :class:`repro.obs.MetricsRegistry`.
"""

from repro.perf.cache import BoundedCache, CacheStats
from repro.perf.context import (
    CacheContext,
    format_cache_stats,
    merge_cache_stats,
)

__all__ = [
    "BoundedCache",
    "CacheStats",
    "CacheContext",
    "format_cache_stats",
    "merge_cache_stats",
]
