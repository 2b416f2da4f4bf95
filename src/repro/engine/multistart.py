"""Multi-start annealing: N supervised restarts, sequential or parallel.

Annealing is stochastic; the standard variance-reduction move is
best-of-N over distinct seeds.  :class:`MultiStartEngine` runs N
:class:`~repro.engine.engine.AnnealEngine` restarts -- sequentially or
on a process pool -- and returns the best result plus every restart's
:class:`~repro.engine.engine.EngineResult`.

Determinism: every restart builds a *fresh* objective and a *fresh*
:class:`~repro.perf.context.CacheContext` from a picklable
:class:`ObjectiveSpec`, and caches are value-transparent (memo hits
return exactly what recomputation would), so restart ``i`` computes
bit-identical results whether it runs in-process, on a pool, or alone.
Parallel best-of-N therefore equals sequential best-of-N for the same
seeds, and the winner is the lowest cost with ties broken by lowest
seed.

Supervision: pool workers are not trusted to come home.  Each restart
gets a wall-clock budget (``restart_timeout``) and a bounded retry
allowance (``max_retries``) with exponential backoff; a crashed worker
(:class:`~concurrent.futures.process.BrokenProcessPool`) or a hung one
(timeout) costs the pool, which is torn down -- hung processes are
terminated, not waited on -- and rebuilt at most ``max_pool_rebuilds``
times before the engine *degrades to sequential execution* for the
remaining seeds.  The machinery itself lives in
:class:`~repro.engine.supervise.SupervisedRunner` (every search driver
reuses it); this module supplies the restart job function and the
per-seed :class:`RunReport` ledger.
:class:`~repro.errors.WorkerFailure` is raised only when not a single
restart succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.anneal.cost import FloorplanObjective
from repro.anneal.schedule import GeometricSchedule
from repro.congestion.model import IrregularGridModel
from repro.engine.engine import AnnealEngine, EngineResult
from repro.engine.supervise import SupervisedRunner
from repro.errors import WorkerFailure
from repro.netlist import Netlist
from repro.perf.context import CacheContext

__all__ = [
    "ObjectiveSpec",
    "RestartFailure",
    "RunReport",
    "MultiStartResult",
    "MultiStartEngine",
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


def _run_restart(
    netlist: Netlist,
    representation: str,
    spec: ObjectiveSpec,
    seed: int,
    moves_per_temperature: Optional[int],
    schedule: Optional[GeometricSchedule],
    calibrate: bool,
    obs_plan=None,
    attempt: int = 0,
    mode: str = "sequential",
    fault=None,
    control=None,
) -> EngineResult:
    """One restart, self-contained: fresh context, fresh objective.

    Module-level so :class:`ProcessPoolExecutor` can pickle it; also
    the sequential path, so both execution modes run literally the same
    code.  ``fault`` is the test-only injection hook
    (:class:`~repro.testing.faults.FaultSpec`); it fires only when its
    (seed, attempt, mode) target matches, so a supervised retry of an
    injected failure deterministically succeeds.  ``control`` rides
    along only in sequential mode (it holds a lock and cannot cross a
    process boundary) and never touches the RNG stream.

    ``obs_plan`` (a picklable :class:`repro.obs.ObsPlan`) makes the
    restart collect progress snapshots and a metrics registry that come
    home on the result; the in-worker observer carries no tracer and
    never touches the RNG stream, so the walk is bit-identical either
    way.
    """
    if fault is not None:
        fault.maybe_fire(seed=seed, attempt=attempt, mode=mode)
    context = CacheContext()
    engine = AnnealEngine(
        netlist,
        representation=representation,
        objective=spec.build(netlist, context),
        objective_spec=spec,
        seed=seed,
        moves_per_temperature=moves_per_temperature,
        schedule=schedule,
        calibrate=calibrate,
    )
    observer = obs_plan.build_observer() if obs_plan is not None else None
    return engine.run(control=control, observer=observer)


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
    """Supervision ledger of one seeded restart (or driver job).

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


@dataclass
class MultiStartResult:
    """Every restart's result plus the chosen winner."""

    best: EngineResult
    results: List[EngineResult] = field(default_factory=list)
    workers: int = 1
    reports: List[RunReport] = field(default_factory=list)
    degraded: bool = False
    pool_rebuilds: int = 0

    @property
    def best_cost(self) -> float:
        """The winning restart's combined objective cost."""
        return self.best.cost

    @property
    def costs(self) -> List[float]:
        """Every completed restart's best cost, in seed order."""
        return [r.cost for r in self.results]

    @property
    def n_failed(self) -> int:
        """Restarts that exhausted their retries without a result."""
        return sum(1 for r in self.reports if r.status == "failed")

    def merged_perf(self):
        """One :class:`~repro.perf.PerfRecorder` folding every
        restart's timers and counters -- including those measured
        inside pool workers, which used to be dropped at the pickle
        boundary."""
        from repro.perf import PerfRecorder

        merged = PerfRecorder()
        for r in self.results:
            if r.perf is not None:
                merged.merge(r.perf)
        return merged

    def merged_cache_stats(self) -> Dict[str, Any]:
        """Every restart's cache statistics folded per cache name (see
        :func:`~repro.perf.context.merge_cache_stats`)."""
        from repro.perf.context import merge_cache_stats

        merged: Dict[str, Any] = {}
        for r in self.results:
            merged = merge_cache_stats(merged, r.cache_stats)
        return merged


class MultiStartEngine:
    """Best-of-N annealing over seeds ``seed .. seed + restarts - 1``.

    Parameters
    ----------
    netlist:
        The circuit.
    representation:
        Registered representation name (process-pool restarts rebuild
        the representation in the worker, so a prebuilt
        :class:`Representation` is not accepted here).
    restarts:
        Number of independent seeded runs.
    seed:
        First seed; restart ``i`` uses ``seed + i``.
    objective_spec:
        The :class:`ObjectiveSpec` every restart builds its objective
        from; defaults to area+wirelength.
    moves_per_temperature, schedule, calibrate:
        Forwarded to every restart's engine.
    workers:
        1 runs restarts sequentially in-process; ``> 1`` uses a
        :class:`~concurrent.futures.ProcessPoolExecutor` with that many
        workers.  Results are bit-identical either way.
    restart_timeout:
        Wall-clock seconds a pool restart may take before it is deemed
        hung; the pool is killed (hung workers terminated) and the
        restart retried.  ``None`` disables the watchdog.  Sequential
        restarts cannot be preempted and ignore it.
    max_retries:
        Extra attempts a failed restart gets (crash, timeout, or
        exception) before its report goes ``"failed"``.
    retry_backoff:
        Base of the exponential backoff slept before retry ``k``
        (``retry_backoff * 2**(k-1)`` seconds); 0 disables sleeping.
    max_pool_rebuilds:
        Pool teardowns tolerated before degrading to sequential
        execution for the remaining seeds.
    inject_fault:
        Test-only :class:`~repro.testing.faults.FaultSpec` shipped to
        every restart; fires only on its (seed, attempt, mode) target.
    obs_plan:
        Picklable :class:`repro.obs.ObsPlan` shipped to every restart;
        workers collect progress snapshots and metrics that ride home
        on their results (``None`` / a disabled plan collects nothing).
    """

    def __init__(
        self,
        netlist: Netlist,
        representation: str = "polish",
        restarts: int = 4,
        seed: int = 0,
        objective_spec: Optional[ObjectiveSpec] = None,
        moves_per_temperature: Optional[int] = None,
        schedule: Optional[GeometricSchedule] = None,
        calibrate: bool = True,
        workers: int = 1,
        restart_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        max_pool_rebuilds: int = 2,
        inject_fault=None,
        obs_plan=None,
    ):
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if restart_timeout is not None and restart_timeout <= 0:
            raise ValueError(
                f"restart_timeout must be positive, got {restart_timeout}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        if max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}"
            )
        self.netlist = netlist
        self.representation = representation
        self.restarts = int(restarts)
        self.seed = int(seed)
        self.objective_spec = objective_spec or ObjectiveSpec()
        self.moves_per_temperature = moves_per_temperature
        self.schedule = schedule
        self.calibrate = bool(calibrate)
        self.workers = int(workers)
        self.restart_timeout = restart_timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        self.inject_fault = inject_fault
        self.obs_plan = obs_plan

    @property
    def seeds(self) -> List[int]:
        """The restart seeds, in run order."""
        return [self.seed + i for i in range(self.restarts)]

    def _job(self, seed: int, attempt: int, mode: str) -> tuple:
        return (
            self.netlist,
            self.representation,
            self.objective_spec,
            seed,
            self.moves_per_temperature,
            self.schedule,
            self.calibrate,
            self.obs_plan,
            attempt,
            mode,
            self.inject_fault,
        )

    def _runner(self, observer=None) -> SupervisedRunner:
        """The supervision machinery, parameterized for restarts."""
        return SupervisedRunner(
            _run_restart,
            self._job,
            timeout=self.restart_timeout,
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
            max_pool_rebuilds=self.max_pool_rebuilds,
            observer=observer,
        )

    def run(self, control=None, observer=None) -> MultiStartResult:
        """Run every restart under supervision and return best-of-N.

        ``control`` (a :class:`~repro.engine.control.RunControl`)
        enables cooperative stop: pending restarts are skipped, the
        in-flight sequential restart winds down with best-so-far, and
        whatever finished is still ranked and returned.

        ``observer`` (a coordinator-side :class:`repro.obs.RunObserver`)
        receives supervision incidents as they happen and, per delivered
        restart, a ``restart_complete`` event plus the worker's progress
        snapshots and metrics (folded via ``merge_result``).

        Raises :class:`~repro.errors.WorkerFailure` only when *no*
        restart delivers a result.
        """
        reports = {s: RunReport(seed=s) for s in self.seeds}
        results: Dict[int, EngineResult] = {}
        workers = min(self.workers, self.restarts)
        rebuilds, degraded = self._runner(observer).run(
            self.seeds, workers, reports, results, control
        )
        for s in self.seeds:
            if s not in results and reports[s].status == "pending":
                stopped = control is not None and control.stop_requested
                reports[s].status = "skipped" if stopped else "failed"
        for s in self.seeds:
            if s in results:
                reports[s].attach_result(results[s])
                if observer is not None:
                    observer.merge_result(results[s], seed=s)
                    observer.event(
                        "restart_complete",
                        seed=s,
                        cost=results[s].cost,
                        n_moves=results[s].n_moves,
                        representation=results[s].representation,
                    )
        if not results:
            raise WorkerFailure(
                "every restart failed: "
                + "; ".join(reports[s].summary() for s in self.seeds)
            )
        ordered = [results[s] for s in self.seeds if s in results]
        best = min(ordered, key=lambda r: (r.cost, r.seed))
        return MultiStartResult(
            best=best,
            results=ordered,
            workers=workers,
            reports=[reports[s] for s in self.seeds],
            degraded=degraded,
            pool_rebuilds=rebuilds,
        )
