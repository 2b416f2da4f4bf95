"""Progress snapshots: the worker -> coordinator streaming payload.

Pool workers cannot stream live (a queue does not survive the pickle
boundary, and polling one would perturb timing-sensitive supervision),
so progress flows over the *existing* supervision seam: a worker
collects periodic :class:`ProgressSnapshot` records during its run,
they come home on the result object with everything else, and the
coordinator merges them into the trace and the per-job
:class:`~repro.engine.multistart.RunReport`.  Sequential runs stream
the same snapshots live into the tracer as they happen.

:class:`ObsPlan` is the picklable *recipe* shipped to workers -- how
often to snapshot (in temperature steps) and how many top
congestion densities to attach; the worker builds a fresh
:class:`~repro.obs.observe.RunObserver` from it.  Snapshot-time
congestion (:func:`top_congestion_densities`) only ever *reads* the
incremental pipeline's committed state (or evaluates the model on a
fresh pin assignment when there is none), so observing a walk can
never change it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["ProgressSnapshot", "ObsPlan", "top_congestion_densities"]


@dataclass(frozen=True)
class ProgressSnapshot:
    """One periodic convergence sample of one annealing run.

    ``top_densities`` holds the run's hottest congestion-cell densities
    at snapshot time (empty when the objective has no congestion model
    or the plan disabled them) -- the predicted-congestion trajectory
    the Early Routability Assessment framing calls for.
    """

    step: int
    temperature: float
    current_cost: float
    best_cost: float
    n_moves: int
    n_accepted: int
    elapsed_seconds: float
    top_densities: Tuple[float, ...] = field(default=())

    def to_json(self) -> Dict[str, Any]:
        """A lossless JSON-serializable image of this snapshot."""
        return {
            "step": self.step,
            "temperature": self.temperature,
            "current_cost": self.current_cost,
            "best_cost": self.best_cost,
            "n_moves": self.n_moves,
            "n_accepted": self.n_accepted,
            "elapsed_seconds": self.elapsed_seconds,
            "top_densities": list(self.top_densities),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ProgressSnapshot":
        """Rebuild a snapshot from :meth:`to_json` output."""
        return cls(
            step=int(data["step"]),
            temperature=float(data["temperature"]),
            current_cost=float(data["current_cost"]),
            best_cost=float(data["best_cost"]),
            n_moves=int(data["n_moves"]),
            n_accepted=int(data["n_accepted"]),
            elapsed_seconds=float(data["elapsed_seconds"]),
            top_densities=tuple(
                float(d) for d in data.get("top_densities", ())
            ),
        )


@dataclass(frozen=True)
class ObsPlan:
    """Picklable worker-side observability recipe.

    ``progress_every`` is the snapshot cadence in temperature steps;
    0 disables collection entirely.  ``top_k`` is how many top
    congestion-cell densities each snapshot carries (0 skips the extra
    congestion evaluation).
    """

    progress_every: int = 0
    top_k: int = 3

    def __post_init__(self) -> None:
        if self.progress_every < 0:
            raise ValueError(
                f"progress_every must be >= 0, got {self.progress_every}"
            )
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")

    @property
    def enabled(self) -> bool:
        """Whether this plan collects anything at all."""
        return self.progress_every > 0

    def build_observer(self) -> Optional["RunObserver"]:
        """A fresh in-worker observer (None when the plan is off).

        The observer carries no tracer -- trace files belong to the
        coordinator process; the worker only collects snapshots and a
        metrics registry that ship home on the result.
        """
        if not self.enabled:
            return None
        from repro.obs.observe import RunObserver

        return RunObserver(
            progress_every=self.progress_every, progress_top_k=self.top_k
        )


def top_congestion_densities(objective, floorplan, k: int) -> Tuple[float, ...]:
    """The ``k`` hottest congestion-cell densities of one floorplan.

    ``floorplan`` may be the floorplan itself or a zero-argument
    callable producing it; the callable is only invoked on the slow
    path.  When the objective's incremental pipeline holds a committed
    columnar state -- which at snapshot time *is* the current floorplan
    (an accepted move promotes the candidate, a rejected one rolls
    back) -- the densities come straight from its placed-edge arrays
    through the model's cache-warm batched kernel; otherwise the model
    is evaluated on a fresh pin assignment.  Either way the pipeline's
    transaction state is never mutated, so calling this mid-anneal
    cannot perturb the walk.  Returns ``()`` when the objective has no
    congestion model, ``k`` is 0, or the evaluation fails (progress
    reporting must never kill the run it reports on).
    """
    model = getattr(objective, "congestion_model", None)
    if model is None or k <= 0:
        return ()
    try:
        committed = getattr(
            getattr(objective, "pipeline", None), "committed", None
        )
        dens_fn = getattr(model, "densities_arrays", None)
        if committed is not None and dens_fn is not None:
            densities = dens_fn(committed.chip, committed.edges)
            return tuple(
                float(d) for d in sorted(densities, reverse=True)[:k]
            )
        if callable(floorplan):
            floorplan = floorplan()
        from repro.pins import assign_pins

        assignment = assign_pins(
            floorplan, objective.netlist, objective.pin_grid_size
        )
        congestion_map = model.evaluate(
            floorplan.chip, assignment.two_pin_nets
        )
        densities = sorted(congestion_map.densities(), reverse=True)
        return tuple(densities[:k])
    except Exception:
        return ()
