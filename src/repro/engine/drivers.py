"""Search drivers: strategies that schedule many annealing runs.

This module is the **search-driver layer**: a driver is a strategy for
scheduling supervised annealing jobs -- which jobs to run, with what
state, and what to do between rounds -- behind one protocol and one
fixed name table, :data:`DRIVERS`.

The drivers:

``multistart``
    Independent best-of-N restarts over consecutive seeds.  The
    default; see :class:`MultiStartDriver`.
``portfolio``
    A representation portfolio: Polish / sequence-pair / B*-tree
    annealers race in rounds; worker slots are reallocated to the
    winning representations and elite solutions migrate across
    representations through their ``from_floorplan`` conversion hooks.
    See :mod:`repro.engine.portfolio`.

Every driver runs its jobs -- one
:class:`~repro.engine.multistart.RunJob` each, executed by
:func:`~repro.engine.multistart.run_job` -- through the same
:class:`~repro.engine.supervise.SupervisedRunner` (watchdog, retries,
pool rebuild, degrade-to-sequential), keeps a per-job
:class:`~repro.engine.multistart.RunReport` ledger, and produces
identical results sequentially and on a process pool.  The portfolio
also freezes its scheduling state (round index, accumulated results,
allocation decisions) into a
:class:`~repro.engine.checkpoint.DriverCheckpoint` at round boundaries
so an interrupted run resumes bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.anneal.schedule import GeometricSchedule
from repro.engine.checkpoint import (
    DriverCheckpoint,
    load_driver_checkpoint,
    save_driver_checkpoint,
)
from repro.engine.engine import EngineResult
from repro.engine.multistart import ObjectiveSpec, RunJob, RunReport, run_job
from repro.engine.supervise import SupervisedRunner
from repro.errors import WorkerFailure
from repro.netlist import Netlist

__all__ = [
    "DriverConfig",
    "SearchResult",
    "SearchDriver",
    "MultiStartDriver",
    "DRIVERS",
    "available_drivers",
    "driver_descriptions",
    "make_driver",
    "resume_driver",
]


@dataclass(frozen=True)
class DriverConfig:
    """Picklable configuration shared by every search driver.

    Not every driver reads every field -- ``representations``,
    ``rounds`` and ``t0_decay`` only matter to the portfolio -- but one
    value object keeps the CLI, the checkpoint envelope, and the
    drivers speaking the same language.  The whole
    config is embedded in every :class:`DriverCheckpoint`, so a resumed
    run needs nothing but the file.

    ``restarts`` is the per-round job budget: restart count for
    multistart, legs per round for the portfolio.  ``rounds`` is how
    many scheduling rounds the portfolio runs (multistart has exactly
    one).
    """

    netlist: Netlist
    representation: str = "polish"
    representations: Tuple[str, ...] = ("polish", "sp", "btree")
    restarts: int = 4
    rounds: int = 3
    seed: int = 0
    objective_spec: Optional[ObjectiveSpec] = None
    moves_per_temperature: Optional[int] = None
    schedule: Optional[GeometricSchedule] = None
    calibrate: bool = True
    workers: int = 1
    # Portfolio: per-round decay of the continuation t0_scale -- round
    # r's elite-continuation legs re-anneal at decay**r of T0.
    t0_decay: float = 0.5
    # Supervision knobs, forwarded to SupervisedRunner.
    restart_timeout: Optional[float] = None
    max_retries: int = 2
    retry_backoff: float = 0.5
    max_pool_rebuilds: int = 2
    # Driver-level checkpoint policy: path to (atomically) rewrite and
    # how many *rounds* between writes.
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    # Test-only fault injection (repro.testing.faults.FaultSpec).
    inject_fault: Any = None
    # Observability: snapshot cadence in temperature steps (0 = off)
    # and how many top congestion densities each snapshot carries.
    progress_every: int = 0
    progress_top_k: int = 3

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.representations:
            raise ValueError("representations must be non-empty")
        if not 0.0 < self.t0_decay <= 1.0:
            raise ValueError(
                f"t0_decay must be in (0, 1], got {self.t0_decay}"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.progress_every < 0:
            raise ValueError(
                f"progress_every must be >= 0, got {self.progress_every}"
            )
        if self.progress_top_k < 0:
            raise ValueError(
                f"progress_top_k must be >= 0, got {self.progress_top_k}"
            )

    def spec(self) -> ObjectiveSpec:
        """The objective spec, defaulting to area+wirelength."""
        return self.objective_spec or ObjectiveSpec()

    def obs_plan(self):
        """The picklable :class:`repro.obs.ObsPlan` shipped to workers
        (``None`` when progress collection is off)."""
        if self.progress_every <= 0:
            return None
        from repro.obs import ObsPlan

        return ObsPlan(
            progress_every=self.progress_every, top_k=self.progress_top_k
        )

    def job(
        self, representation: str, seed: int, key: int, **kwargs
    ) -> RunJob:
        """The :class:`~repro.engine.multistart.RunJob` for one of this
        search's runs; ``kwargs`` set the remaining job fields (the
        portfolio's ``initial_state`` / ``t0_scale``)."""
        return RunJob(
            self.netlist,
            representation=representation,
            objective_spec=self.spec(),
            seed=seed,
            moves_per_temperature=self.moves_per_temperature,
            schedule=self.schedule,
            calibrate=self.calibrate,
            key=key,
            obs_plan=self.obs_plan(),
            fault=self.inject_fault,
            **kwargs,
        )


@dataclass
class SearchResult:
    """What any search driver returns: winner, field, and ledgers.

    ``driver`` names the driver that produced it.  ``ledger`` carries the
    driver's scheduling decisions in JSON-friendly form -- per-round
    slot allocations and migrations for the portfolio, empty for
    multistart -- so runs are auditable after the fact.
    """

    driver: str
    best: EngineResult
    results: List[EngineResult] = field(default_factory=list)
    workers: int = 1
    reports: List[RunReport] = field(default_factory=list)
    degraded: bool = False
    pool_rebuilds: int = 0
    completed: bool = True
    stop_reason: Optional[str] = None
    checkpoints_written: int = 0
    ledger: Dict[str, Any] = field(default_factory=dict)

    @property
    def best_cost(self) -> float:
        """The winning run's combined objective cost."""
        return self.best.cost

    @property
    def costs(self) -> List[float]:
        """Every delivered result's best cost, in result order."""
        return [r.cost for r in self.results]

    @property
    def n_failed(self) -> int:
        """Jobs that exhausted their retries without a result."""
        return sum(1 for r in self.reports if r.status == "failed")

    def merged_perf(self):
        """One :class:`~repro.obs.MetricsRegistry` folding every
        delivered job's timers and counters, worker-side measurements
        included."""
        from repro.obs.metrics import MetricsRegistry

        merged = MetricsRegistry()
        for r in self.results:
            if r.perf is not None:
                merged.merge_snapshot(r.perf.snapshot())
        return merged

    def merged_cache_stats(self) -> Dict[str, Any]:
        """Every delivered job's cache statistics folded per cache name
        (see :func:`~repro.perf.context.merge_cache_stats`)."""
        from repro.perf.context import merge_cache_stats

        merged: Dict[str, Any] = {}
        for r in self.results:
            merged = merge_cache_stats(merged, r.cache_stats)
        return merged


class SearchDriver:
    """Protocol every driver in :data:`DRIVERS` implements.

    A driver is constructed from a :class:`DriverConfig` and run once:

    * ``run(control=None, resume_state=None) -> SearchResult`` -- with
      a :class:`~repro.engine.control.RunControl` the driver polls for
      cooperative stops between jobs/rounds and writes
      :class:`~repro.engine.checkpoint.DriverCheckpoint` files per the
      config's policy; ``resume_state`` is the ``state`` payload of a
      loaded checkpoint and makes the run continue bit-identically.

    Listed in :data:`DRIVERS` and built as ``cls(config)``.
    """

    name: str = ""

    def __init__(self, config: DriverConfig):
        self.config = config

    def run(self, control=None, resume_state=None, observer=None) -> SearchResult:
        """Execute the driver's whole schedule; see the class docs.

        ``observer`` (a coordinator-side :class:`repro.obs.RunObserver`)
        receives the driver's scheduling decisions -- allocations,
        migrations, supervision incidents -- as trace events, plus
        every delivered job's progress and metrics.
        """
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------

    def _write_checkpoint(self, state: Any, control=None, observer=None) -> int:
        """Write one driver checkpoint (no-op without a configured
        path).  Returns how many files this call wrote (0 or 1)."""
        if self.config.checkpoint_path is None:
            return 0
        save_driver_checkpoint(
            self.config.checkpoint_path,
            DriverCheckpoint(
                driver=self.name, config=self.config, state=state
            ),
        )
        if observer is not None:
            observer.event(
                "checkpoint_written", path=str(self.config.checkpoint_path)
            )
            observer.metrics.count("driver_checkpoints")
        return 1


class MultiStartDriver(SearchDriver):
    """Independent best-of-N restarts over seeds ``seed .. seed +
    restarts - 1`` -- the default driver.

    Every restart is one :func:`~repro.engine.multistart.run_job`
    call under :class:`~repro.engine.supervise.SupervisedRunner`: a
    crashed or hung pool worker is retried (``max_retries``, with
    exponential backoff), the pool is rebuilt at most
    ``max_pool_rebuilds`` times, and then the remaining seeds run
    sequentially.  :class:`~repro.errors.WorkerFailure` is raised only
    when not a single restart succeeds.  The winner is the lowest cost,
    ties broken by lowest seed, so pooled and sequential runs agree.

    Multistart has no cross-job scheduling state, so it takes no driver
    checkpoints (engine-level checkpointing of single runs is
    unaffected) and refuses ``resume_state``.
    """

    name = "multistart"

    def run(self, control=None, resume_state=None, observer=None) -> SearchResult:
        """Run every restart under supervision and return best-of-N.

        ``control`` (a :class:`~repro.engine.control.RunControl`)
        enables cooperative stop: pending restarts are skipped, the
        in-flight sequential restart winds down with best-so-far, and
        whatever finished is still ranked and returned.

        ``observer`` receives supervision incidents as they happen and,
        per delivered restart, a ``restart_complete`` event plus the
        worker's progress snapshots and metrics (folded via
        ``merge_result``).
        """
        if resume_state is not None:
            raise ValueError(
                "multistart has no driver-level schedule to resume; "
                "use engine checkpoints for single runs"
            )
        cfg = self.config
        seeds = [cfg.seed + i for i in range(cfg.restarts)]
        jobs = {s: cfg.job(cfg.representation, s, key=s) for s in seeds}
        reports = {s: RunReport(seed=s) for s in seeds}
        results: Dict[int, EngineResult] = {}
        workers = min(cfg.workers, cfg.restarts)
        with SupervisedRunner(
            run_job,
            lambda k, a, m: (jobs[k], a, m),
            timeout=cfg.restart_timeout,
            max_retries=cfg.max_retries,
            retry_backoff=cfg.retry_backoff,
            max_pool_rebuilds=cfg.max_pool_rebuilds,
            observer=observer,
        ) as runner:
            rebuilds, degraded = runner.run(
                seeds, workers, reports, results, control
            )
        stopped = control is not None and control.stop_requested
        for s in seeds:
            if s not in results and reports[s].status == "pending":
                reports[s].status = "skipped" if stopped else "failed"
        for s in seeds:
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
                + "; ".join(reports[s].summary() for s in seeds)
            )
        ordered = [results[s] for s in seeds if s in results]
        return SearchResult(
            driver=self.name,
            best=min(ordered, key=lambda r: (r.cost, r.seed)),
            results=ordered,
            workers=workers,
            reports=[reports[s] for s in seeds],
            degraded=degraded,
            pool_rebuilds=rebuilds,
            completed=not stopped,
            stop_reason=control.should_stop() if stopped else None,
        )


# ``portfolio`` subclasses the base classes above, so it is imported
# once they exist.
from repro.engine.portfolio import PortfolioDriver  # noqa: E402

DRIVERS: Dict[str, Tuple[type, str]] = {
    "multistart": (
        MultiStartDriver,
        "independent best-of-N restarts over consecutive seeds (default)",
    ),
    "portfolio": (
        PortfolioDriver,
        "representation race with slot reallocation and elite migration",
    ),
}


def available_drivers() -> Tuple[str, ...]:
    """The driver names, sorted."""
    return tuple(sorted(DRIVERS))


def driver_descriptions() -> Dict[str, str]:
    """``name -> one-line description`` for every driver, in sorted
    name order."""
    return {name: DRIVERS[name][1] for name in available_drivers()}


def make_driver(name: str, config: DriverConfig) -> SearchDriver:
    """Build the named driver for ``config``."""
    try:
        cls = DRIVERS[name][0]
    except KeyError:
        known = ", ".join(available_drivers())
        raise ValueError(
            f"unknown driver {name!r}; available: {known}"
        ) from None
    return cls(config)


def resume_driver(
    path: Union[str, "Any"],
    workers: Optional[int] = None,
    rounds: Optional[int] = None,
) -> Tuple[SearchDriver, Any]:
    """Rebuild a driver from a :class:`DriverCheckpoint` file.

    Returns ``(driver, resume_state)``; pass the state to
    ``driver.run(control, resume_state=state)`` to continue the
    interrupted run bit-identically.  ``workers`` optionally overrides
    the checkpointed worker count (parallelism is an execution detail,
    not part of the schedule -- results are identical either way);
    ``rounds`` optionally extends or shortens the remaining schedule
    (the rounds already behind the checkpoint are never replayed).
    """
    checkpoint = load_driver_checkpoint(path)
    config = checkpoint.config
    if workers is not None and workers != config.workers:
        config = replace(config, workers=workers)
    if rounds is not None and rounds != config.rounds:
        config = replace(config, rounds=rounds)
    return make_driver(checkpoint.driver, config), checkpoint.state
