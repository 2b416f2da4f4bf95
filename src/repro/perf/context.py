"""Engine-scoped cache ownership: the :class:`CacheContext`.

Annealing memoization used to live in module-global stores (a per-net
congestion memo, a probability-matrix memo, an exact-probability memo,
a subtree shape-list memo).  Globals make concurrent or multi-tenant
use unsafe: two annealing engines running in one process would share
hit/miss accounting, evict each other's working sets, and make cache
memory unaccountable.  A :class:`CacheContext` instead *owns* one
instance of every hot-path cache; each engine (or standalone objective
/ congestion model) creates its own context and injects it down the
stack, so two engines never share mutable cache state.

The class lives in :mod:`repro.perf` -- the instrumentation layer,
which imports nothing above it -- so the congestion kernels, the
floorplan packing memo and the annealing objective can all receive a
context without import cycles.  Its public home is
:mod:`repro.engine`, which re-exports it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.perf.cache import BoundedCache, CacheStats

__all__ = ["CacheContext", "format_cache_stats", "merge_cache_stats"]


def merge_cache_stats(
    earlier: Mapping[str, CacheStats], later: Mapping[str, CacheStats]
) -> Dict[str, CacheStats]:
    """Stitch two cache-stats snapshots from different epochs into one.

    A resumed run starts with fresh (empty) caches, so its context's
    stats cover only the post-resume segment; the checkpoint carries the
    pre-crash segment's stats.  Merging the two keeps the reported
    hit/miss accounting covering the whole *logical* run: cumulative
    counters add, point-in-time size/maxsize come from the later epoch.
    Caches present in only one snapshot pass through unchanged.
    """
    merged: Dict[str, CacheStats] = dict(earlier)
    for name, stats in later.items():
        prior = merged.get(name)
        merged[name] = stats if prior is None else prior.merged(stats)
    return merged


def format_cache_stats(
    stats: Mapping[str, CacheStats], title: Optional[str] = None
) -> str:
    """One table over named cache stats: hits, misses, size, evictions.

    Works on a live context's :meth:`CacheContext.stats` or on the
    picklable snapshot an engine result carries.
    """
    lines = []
    if title:
        lines.append(title)
    width = max([len(n) for n in stats] + [len("cache")])
    lines.append(
        f"{'cache'.ljust(width)}  {'hits':>10}  {'misses':>10}  "
        f"{'hit%':>6}  {'size':>9}  {'max':>9}  {'evicted':>8}"
    )
    for name in sorted(stats):
        s = stats[name]
        lines.append(
            f"{name.ljust(width)}  {s.hits:>10d}  {s.misses:>10d}  "
            f"{100.0 * s.hit_rate:>5.1f}%  {s.size:>9d}  "
            f"{s.maxsize:>9d}  {s.evictions:>8d}"
        )
    return "\n".join(lines)

# Default bounds, tuned in PR 1: a floorplan has O(100) regular nets
# and a full annealing run's working set of per-net signatures measures
# in the low hundreds of thousands (a 65k store thrashed with ~120k
# evictions on an ami33-scale run).  Worst-case memory is a few hundred
# MB of short float vectors per context; real runs stay far below it.
#
# On sizing vs hit rate: every capacity is a constructor kwarg, but a
# bigger store only helps when the bounded cache actually evicts.  The
# exact_prob rate drop from 60% (ami33-scale) to 40% (ami49-scale)
# recorded in BENCH_incremental.json comes with ZERO evictions at
# either scale (see the bench's ``cache_evictions`` field and the
# ``evicted`` column of ``--perf``): the working set fits, and the
# lower rate is compulsory misses -- the larger netlist simply
# produces more distinct exact-fallback signatures per eviction-free
# lookup stream.  Resizing cannot recover it; within a workload the
# rate is stable across runs.
DEFAULT_NET_MASS_SIZE = 262_144
DEFAULT_NET_MATRIX_SIZE = 65_536
DEFAULT_EXACT_PROB_SIZE = 262_144
DEFAULT_SUBTREE_SHAPE_SIZE = 131_072


class CacheContext:
    """One engine's fleet of bounded hot-path caches.

    Attributes
    ----------
    net_mass:
        Per-net flat probability vectors keyed by local signature
        (:mod:`repro.congestion.batched`).
    net_matrix:
        Per-net probability matrices of the scalar model path
        (:mod:`repro.congestion.model`).
    exact_prob:
        Scalar Formula-3 results for the approximation's exact
        fallback cells.
    subtree_shapes:
        Interned slicing-subtree shape lists
        (:mod:`repro.floorplan.slicing`).

    Every cache shows up in :meth:`stats` and :meth:`report`, so cache
    memory stays accountable per engine.
    """

    def __init__(
        self,
        net_mass_size: int = DEFAULT_NET_MASS_SIZE,
        net_matrix_size: int = DEFAULT_NET_MATRIX_SIZE,
        exact_prob_size: int = DEFAULT_EXACT_PROB_SIZE,
        subtree_shapes_size: int = DEFAULT_SUBTREE_SHAPE_SIZE,
    ):
        self.net_mass = BoundedCache(net_mass_size, name="net_mass")
        self.net_matrix = BoundedCache(net_matrix_size, name="net_matrix")
        self.exact_prob = BoundedCache(exact_prob_size, name="exact_prob")
        self.subtree_shapes = BoundedCache(
            subtree_shapes_size, name="subtree_shapes"
        )
        self._caches: Dict[str, BoundedCache] = {
            "net_mass": self.net_mass,
            "net_matrix": self.net_matrix,
            "exact_prob": self.exact_prob,
            "subtree_shapes": self.subtree_shapes,
        }

    # -- accounting ----------------------------------------------------

    def stats(self) -> Dict[str, CacheStats]:
        """Point-in-time stats of every cache, keyed by name."""
        return {name: c.stats() for name, c in sorted(self._caches.items())}

    def report(self, title: Optional[str] = None) -> str:
        """One table over all caches: hits, misses, size, evictions."""
        return format_cache_stats(self.stats(), title=title)

    def __repr__(self) -> str:
        used = sum(len(c) for c in self._caches.values())
        return f"CacheContext({len(self._caches)} caches, {used} entries)"
