"""The run observer: one handle bundling tracer, metrics and progress.

Instrumented code (the annealing loop, the engines, the search
drivers) takes an optional :class:`RunObserver` and calls its hooks;
the observer fans each hook out to its tracer (JSONL events), its
:class:`~repro.obs.metrics.MetricsRegistry` (gauges / histograms /
perf counters) and its in-memory progress list.  ``observer=None``
everywhere means *fully off* -- the hot loop's only cost is one ``is
None`` test per temperature step, and none of the hooks ever touches a
random number generator, so instrumented and uninstrumented walks are
bit-identical (the determinism suite asserts exactly this).

Coordinators that want the event/span surface without conditionals can
use :data:`NULL_OBSERVER` (null tracer, null metrics, no progress);
never hand it to an engine run, though -- its null registry would
silently replace the run's real one.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.progress import ProgressSnapshot, top_congestion_densities
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["RunObserver", "NULL_OBSERVER"]


class RunObserver:
    """Bundles a tracer, a metrics registry and progress collection.

    Parameters
    ----------
    tracer:
        Where spans/events/progress lines go; defaults to the no-op
        :data:`~repro.obs.trace.NULL_TRACER`.
    metrics:
        The run's registry; created on demand.  Engine runs wire it
        into the objective, so phase timers and counters accumulate
        here.
    progress_every:
        Temperature steps between :class:`ProgressSnapshot` samples
        (0 disables sampling; per-step metrics still flow).
    progress_top_k:
        Top congestion densities attached to each sample.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress_every: int = 0,
        progress_top_k: int = 3,
    ):
        if progress_every < 0:
            raise ValueError(
                f"progress_every must be >= 0, got {progress_every}"
            )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.progress_every = int(progress_every)
        self.progress_top_k = int(progress_top_k)
        self.progress: List[ProgressSnapshot] = []

    # -- span/event surface (delegates to the tracer) -----------------

    def span(self, name: str, **attrs: Any):
        """Open a nested trace span for the ``with`` block."""
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point trace event."""
        self.tracer.event(name, attrs)

    # -- annealing-loop hook ------------------------------------------

    def step_complete(
        self,
        step: int,
        temperature: float,
        current_cost: float,
        best_cost: float,
        moves: int,
        accepted: int,
        total_moves: int,
        total_accepted: int,
        elapsed: float,
        objective: Any = None,
        floorplan: Optional[Callable[[], Any]] = None,
    ) -> None:
        """One temperature step finished; record its signals.

        ``floorplan`` is a zero-argument callable producing the current
        floorplan, invoked only when a progress snapshot is due, top-
        density sampling is on *and* the objective has no committed
        columnar state to read instead -- the common step pays nothing
        for the capability.  Never touches any RNG.
        """
        rate = accepted / moves if moves else 0.0
        m = self.metrics
        m.observe("move_acceptance_rate", rate)
        m.gauge("temperature", temperature)
        m.gauge("current_cost", current_cost)
        m.gauge("best_cost", best_cost)
        self.tracer.event(
            "temperature_step",
            {
                "step": step,
                "temperature": temperature,
                "current_cost": current_cost,
                "best_cost": best_cost,
                "moves": moves,
                "accepted": accepted,
                "acceptance_rate": round(rate, 6),
            },
        )
        if self.progress_every and (step + 1) % self.progress_every == 0:
            densities = ()
            if (
                self.progress_top_k > 0
                and objective is not None
                and floorplan is not None
            ):
                densities = top_congestion_densities(
                    objective, floorplan, self.progress_top_k
                )
            snapshot = ProgressSnapshot(
                step=step,
                temperature=temperature,
                current_cost=current_cost,
                best_cost=best_cost,
                n_moves=total_moves,
                n_accepted=total_accepted,
                elapsed_seconds=elapsed,
                top_densities=densities,
            )
            self.progress.append(snapshot)
            self.tracer.progress("anneal", snapshot.to_json())

    # -- coordinator-side merging -------------------------------------

    def merge_result(self, result: Any, **label: Any) -> None:
        """Fold one delivered worker result into this observer.

        Collects the worker's progress snapshots (re-emitting each as a
        trace line labelled with ``**label``, e.g. ``seed=...``),
        merges its metrics-registry snapshot, and publishes its cache
        hit-rate gauges.
        """
        for snapshot in getattr(result, "progress", ()) or ():
            self.progress.append(snapshot)
            self.tracer.progress("worker", {**snapshot.to_json(), **label})
        worker_metrics = getattr(result, "metrics", None)
        if worker_metrics:
            self.metrics.merge_snapshot(worker_metrics)
        cache_stats = getattr(result, "cache_stats", None)
        if cache_stats:
            self.metrics.set_cache_gauges(cache_stats)

    def finalize(self) -> None:
        """Emit the aggregated metrics snapshot as one ``metric`` trace
        line and flush the tracer; call once, at end of run."""
        if self.tracer.enabled:
            self.tracer.metric("run_metrics", self.metrics.snapshot())
        self.tracer.flush()

    # -- timing helper -------------------------------------------------

    @staticmethod
    def now() -> float:
        """Monotonic seconds; the clock every hook timestamp uses."""
        return time.monotonic()


NULL_OBSERVER = RunObserver(tracer=NULL_TRACER, metrics=NULL_METRICS)
