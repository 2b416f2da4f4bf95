"""The run job and its ledger: one annealing run, however it is launched.

Annealing is stochastic; the paper's results are tables of repeated
runs, one per circuit and seed.  This module holds what every launcher
builds on: the picklable :class:`ObjectiveSpec` every run's objective
is built from, the frozen :class:`RunJob` and its one runner
:func:`run_job` -- called by both search drivers, the service worker
and the CLI's single runs -- and the per-job :class:`RunReport` /
:class:`RestartFailure` supervision ledger.

Determinism: every job builds a *fresh* objective and a *fresh*
:class:`~repro.perf.context.CacheContext` from a picklable
:class:`ObjectiveSpec`, and caches are value-transparent (memo hits
return exactly what recomputation would), so job ``i`` computes
bit-identical results whether it runs in-process, on a pool, or alone.
Parallel best-of-N therefore equals sequential best-of-N for the same
seeds, and the winner is the lowest cost with ties broken by lowest
seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.anneal.cost import FloorplanObjective
from repro.anneal.schedule import GeometricSchedule
from repro.congestion.model import IrregularGridModel
from repro.engine.engine import AnnealEngine, EngineResult
from repro.netlist import Netlist
from repro.perf.context import CacheContext

__all__ = [
    "ObjectiveSpec",
    "RestartFailure",
    "RunJob",
    "RunReport",
    "run_job",
]


@dataclass(frozen=True)
class ObjectiveSpec:
    """Picklable recipe for one restart's objective.

    Process-pool restarts cannot ship a live objective (its cache
    context holds locks) or a closure; they ship this value object and
    :meth:`build` it inside the worker against the restart's own
    context.  ``gamma > 0`` builds an
    :class:`~repro.congestion.model.IrregularGridModel` at
    ``congestion_grid_size``.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.0
    congestion_grid_size: float = 30.0
    pin_grid_size: Optional[float] = None
    allow_rotation: bool = True
    incremental: bool = True
    strict_incremental: bool = False

    def build(
        self, netlist: Netlist, cache_context: CacheContext
    ) -> FloorplanObjective:
        """Construct the objective (and congestion model, if any)
        against ``cache_context``."""
        model = None
        if self.gamma > 0:
            model = IrregularGridModel(
                self.congestion_grid_size,
                use_cache=self.incremental,
                cache_context=cache_context if self.incremental else None,
            )
        return FloorplanObjective(
            netlist,
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
            congestion_model=model,
            pin_grid_size=self.pin_grid_size,
            allow_rotation=self.allow_rotation,
            incremental=self.incremental,
            strict_incremental=self.strict_incremental,
            cache_context=cache_context,
        )


@dataclass(frozen=True)
class RunJob:
    """One annealing run, frozen as a picklable value.

    Everything :func:`run_job` needs to build (or resume) one
    :class:`~repro.engine.engine.AnnealEngine`: the circuit and search
    recipe (``initial_state`` / ``t0_scale`` continue an elite
    solution, as the portfolio does), plus the run's plumbing -- the
    supervision ``key`` a ``fault`` (a
    :class:`~repro.testing.faults.FaultSpec`, test-only) targets, an
    optional :class:`repro.obs.ObsPlan`, and ``checkpoint``, an engine
    checkpoint to resume when that file exists.
    """

    netlist: Netlist
    representation: str = "polish"
    objective_spec: ObjectiveSpec = ObjectiveSpec()
    seed: int = 0
    moves_per_temperature: Optional[int] = None
    schedule: Optional[GeometricSchedule] = None
    calibrate: bool = True
    initial_state: Any = None
    t0_scale: float = 1.0
    key: int = 0
    obs_plan: Any = None
    fault: Any = None
    checkpoint: Optional[str] = None


def run_job(
    job: RunJob,
    attempt: int = 0,
    mode: str = "sequential",
    control=None,
    observer=None,
) -> EngineResult:
    """Run (or resume) one :class:`RunJob` and return its result.

    Module-level so :class:`ProcessPoolExecutor` can pickle it; also
    the sequential path, so both execution modes run literally the same
    code.  The engine is built fresh from the job's objective spec, so
    a job's result does not depend on where it runs.  ``(attempt,
    mode)`` arrive from the supervisor and only address the job's
    fault.  A ``control`` holds a lock and cannot cross a process
    boundary, so the supervisor passes one only in sequential mode; it
    never touches the RNG stream.  Without an ``observer``, the job's ``obs_plan`` builds
    an in-worker one whose progress snapshots and metrics come home on
    the result; observation never touches the RNG stream either.
    """
    on_snapshot = None
    if job.fault is not None:
        on_snapshot = job.fault.arm(seed=job.key, attempt=attempt, mode=mode)
    if job.checkpoint is not None and os.path.exists(job.checkpoint):
        engine = AnnealEngine.resume(job.checkpoint)
    else:
        engine = AnnealEngine(
            job.netlist,
            representation=job.representation,
            objective_spec=job.objective_spec,
            seed=job.seed,
            moves_per_temperature=job.moves_per_temperature,
            schedule=job.schedule,
            calibrate=job.calibrate,
            initial_state=job.initial_state,
            t0_scale=job.t0_scale,
        )
    if observer is None and job.obs_plan is not None:
        observer = job.obs_plan.build_observer()
    return engine.run(
        on_snapshot=on_snapshot, control=control, observer=observer
    )


@dataclass
class RestartFailure:
    """One failed attempt of one restart."""

    attempt: int
    kind: str  # "crash" / "timeout" / "error"
    message: str

    def to_json(self) -> Dict[str, Any]:
        """A lossless JSON-serializable image of this failure.

        Every field is already a JSON scalar; exception messages pass
        through verbatim (they are strings by construction -- the
        supervisor formats ``type(exc).__name__: exc`` at record time).
        """
        return {
            "attempt": self.attempt,
            "kind": self.kind,
            "message": self.message,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "RestartFailure":
        """Rebuild a failure from :meth:`to_json` output."""
        return cls(
            attempt=int(data["attempt"]),
            kind=str(data["kind"]),
            message=str(data["message"]),
        )


@dataclass
class RunReport:
    """Supervision ledger of one supervised :func:`run_job` call
    (a restart, a portfolio leg or a service job).

    ``status`` ends as ``"ok"`` (result delivered -- possibly stopped
    early by a cooperative stop, see the result's own ``completed``),
    ``"failed"`` (retries exhausted), or ``"skipped"`` (a stop request
    arrived before the restart ran).  ``attempts`` counts every try,
    including the successful one; ``failures`` names each failed try.
    ``label`` is free-form context a search driver attaches to a job
    (e.g. ``"round 2 / btree / slot 1"``); plain multistart restarts
    leave it ``None``.

    ``cache_stats`` is the delivered result's worker-side accounting
    (per-cache hit/miss snapshots as plain dicts), attached by
    :meth:`attach_result`.
    """

    seed: int
    status: str = "pending"
    attempts: int = 0
    mode: Optional[str] = None
    failures: List[RestartFailure] = field(default_factory=list)
    label: Optional[str] = None
    cache_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def retried(self) -> bool:
        return self.attempts > 1

    def attach_result(self, result: Any) -> None:
        """Record a delivered result's worker-side accounting.

        Pulls the per-cache statistics (as JSON-ready dicts) off an
        :class:`EngineResult`; safe on any result-shaped object -- a
        missing piece leaves the default.
        """
        stats = getattr(result, "cache_stats", None) or {}
        self.cache_stats = {
            name: s.to_json() if hasattr(s, "to_json") else dict(s)
            for name, s in stats.items()
        }

    def record_failure(self, kind: str, message: str) -> None:
        """Log one failed attempt and advance the attempt counter."""
        self.failures.append(
            RestartFailure(attempt=self.attempts, kind=kind, message=message)
        )
        self.attempts += 1

    def summary(self) -> str:
        """One-line human-readable account of this restart's attempts."""
        parts = [f"seed {self.seed}: {self.status}"]
        if self.label:
            parts.append(f"({self.label})")
        if self.mode:
            parts.append(self.mode)
        parts.append(f"{self.attempts} attempt(s)")
        for f in self.failures:
            parts.append(f"[attempt {f.attempt}: {f.kind}: {f.message}]")
        return " ".join(parts)

    def to_json(self) -> Dict[str, Any]:
        """A lossless JSON-serializable image of this report.

        ``RunReport.from_json(report.to_json()) == report`` for every
        reachable report, and the payload survives
        :func:`~repro.ioutil.atomic_write_json` unchanged -- no field
        is stringified lossily (failures stay structured records, never
        the flattened :meth:`summary` line).
        """
        return {
            "seed": self.seed,
            "status": self.status,
            "attempts": self.attempts,
            "mode": self.mode,
            "label": self.label,
            "failures": [f.to_json() for f in self.failures],
            "cache_stats": {
                name: dict(s) for name, s in self.cache_stats.items()
            },
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_json` output."""
        mode = data.get("mode")
        label = data.get("label")
        return cls(
            seed=int(data["seed"]),
            status=str(data["status"]),
            attempts=int(data["attempts"]),
            mode=None if mode is None else str(mode),
            failures=[
                RestartFailure.from_json(f) for f in data.get("failures", ())
            ],
            label=None if label is None else str(label),
            cache_stats={
                name: dict(s)
                for name, s in data.get("cache_stats", {}).items()
            },
        )
