"""Search drivers: strategies that schedule many annealing runs.

PR 3 gave the repo *one* way to spend N annealing runs: independent
best-of-N restarts (:class:`~repro.engine.multistart.MultiStartEngine`).
This module generalizes that into a **search-driver layer**: a driver
is a strategy for scheduling supervised annealing jobs -- which jobs to
run, with what state, and what to do between rounds -- behind one
protocol and one string-keyed registry, mirroring the representation
registry.

Built-in drivers:

``multistart``
    Independent best-of-N restarts over consecutive seeds.  The
    default; byte-for-byte the PR 3 behavior (it delegates to
    :class:`MultiStartEngine`).
``tempering``
    Replica-exchange (parallel tempering): K replicas anneal at fixed
    rungs of a geometric temperature ladder and deterministically
    propose configuration swaps between adjacent rungs each round.
    See :mod:`repro.engine.tempering`.
``portfolio``
    A representation portfolio: Polish / sequence-pair / B*-tree
    annealers race in rounds; worker slots are reallocated to the
    winning representations and elite solutions migrate across
    representations through their ``from_floorplan`` conversion hooks.
    See :mod:`repro.engine.portfolio`.

Every driver runs its jobs through the same
:class:`~repro.engine.supervise.SupervisedRunner` (watchdog, retries,
pool rebuild, degrade-to-sequential), keeps a per-job
:class:`~repro.engine.multistart.RunReport` ledger, produces identical
results sequentially and on a process pool, and -- for the round-based
drivers -- freezes its scheduling state (round index, ladders, swap
RNG, allocation decisions) into a
:class:`~repro.engine.checkpoint.DriverCheckpoint` at round boundaries
so an interrupted run resumes bit-identically.

The registry is lazily populated: ``tempering`` and ``portfolio`` live
in their own modules (which import the engine machinery), so
:func:`make_driver` imports them on first use rather than at import
time -- the registry module stays import-light and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.anneal.schedule import GeometricSchedule
from repro.engine.checkpoint import (
    DriverCheckpoint,
    load_driver_checkpoint,
    save_driver_checkpoint,
)
from repro.engine.engine import EngineResult
from repro.engine.multistart import (
    MultiStartEngine,
    ObjectiveSpec,
    RunReport,
)
from repro.netlist import Netlist

__all__ = [
    "DriverConfig",
    "SearchResult",
    "SearchDriver",
    "MultiStartDriver",
    "register_driver",
    "available_drivers",
    "driver_descriptions",
    "make_driver",
    "resume_driver",
]


@dataclass(frozen=True)
class DriverConfig:
    """Picklable configuration shared by every search driver.

    Not every driver reads every field -- ``representations`` and
    ``rounds`` only matter to the portfolio, ``ladder_ratio`` only to
    tempering -- but one value object keeps the CLI, the checkpoint
    envelope, and the drivers speaking the same language.  The whole
    config is embedded in every :class:`DriverCheckpoint`, so a resumed
    run needs nothing but the file.

    ``restarts`` is the per-round job budget: restart count for
    multistart, replica count for tempering, legs per round for the
    portfolio.  ``rounds`` is how many scheduling rounds the round
    based drivers run (multistart has exactly one).
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
    # Tempering: the coldest rung's temperature as a fraction of the
    # hottest (the sampled T0).
    ladder_ratio: float = 0.05
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
        if not 0.0 < self.ladder_ratio < 1.0:
            raise ValueError(
                f"ladder_ratio must be in (0, 1), got {self.ladder_ratio}"
            )
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


@dataclass
class SearchResult:
    """What any search driver returns: winner, field, and ledgers.

    A superset of :class:`~repro.engine.multistart.MultiStartResult`
    labelled with the driver that produced it.  ``ledger`` carries the
    driver's scheduling decisions in JSON-friendly form -- swap
    proposals and outcomes for tempering, per-round slot allocations
    and migrations for the portfolio, empty for multistart -- so runs
    are auditable after the fact.
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
        """One :class:`~repro.perf.PerfRecorder` folding every
        delivered job's timers and counters, worker-side measurements
        included."""
        from repro.perf import PerfRecorder

        merged = PerfRecorder()
        for r in self.results:
            if r.perf is not None:
                merged.merge(r.perf)
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
    """Protocol every registered driver implements.

    A driver is constructed from a :class:`DriverConfig` and run once:

    * ``run(control=None, resume_state=None) -> SearchResult`` -- with
      a :class:`~repro.engine.control.RunControl` the driver polls for
      cooperative stops between jobs/rounds and writes
      :class:`~repro.engine.checkpoint.DriverCheckpoint` files per the
      config's policy; ``resume_state`` is the ``state`` payload of a
      loaded checkpoint and makes the run continue bit-identically.

    Registered through :func:`register_driver` as
    ``factory(config) -> driver``; this base class exists for
    documentation and ``isinstance`` convenience, not mechanism --
    drivers only need the ``run`` signature.
    """

    name: str = ""

    def __init__(self, config: DriverConfig):
        self.config = config

    def run(self, control=None, resume_state=None, observer=None) -> SearchResult:
        """Execute the driver's whole schedule; see the class docs.

        ``observer`` (a coordinator-side :class:`repro.obs.RunObserver`)
        receives the driver's scheduling decisions -- swaps,
        allocations, migrations, supervision incidents -- as trace
        events, plus every delivered job's progress and metrics.
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


_FACTORIES: Dict[str, Callable[[DriverConfig], SearchDriver]] = {}
_DESCRIPTIONS: Dict[str, str] = {}
_BUILTINS_LOADED = False


def register_driver(
    name: str,
    factory: Callable[[DriverConfig], SearchDriver],
    description: str = "",
) -> None:
    """Register a driver factory under ``name``.

    ``description`` is the one-line summary ``--list-drivers`` prints.
    Raises :class:`ValueError` on a duplicate name.
    """
    if name in _FACTORIES:
        raise ValueError(f"driver {name!r} is already registered")
    _FACTORIES[name] = factory
    _DESCRIPTIONS[name] = description


def _ensure_builtin_drivers() -> None:
    """Import the built-in driver modules exactly once.

    ``tempering`` and ``portfolio`` register themselves on import;
    deferring that import to first registry use keeps this module free
    of cycles (those modules import the engine stack, which imports
    nothing from here).
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    import repro.engine.portfolio  # noqa: F401  (self-registers)
    import repro.engine.tempering  # noqa: F401  (self-registers)

    _BUILTINS_LOADED = True


def available_drivers() -> Tuple[str, ...]:
    """The registered driver names, sorted."""
    _ensure_builtin_drivers()
    return tuple(sorted(_FACTORIES))


def driver_descriptions() -> Dict[str, str]:
    """``name -> one-line description`` for every registered driver,
    in sorted name order."""
    _ensure_builtin_drivers()
    return {name: _DESCRIPTIONS.get(name, "") for name in sorted(_FACTORIES)}


def make_driver(name: str, config: DriverConfig) -> SearchDriver:
    """Build the named driver for ``config``."""
    _ensure_builtin_drivers()
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(available_drivers())
        raise ValueError(
            f"unknown driver {name!r}; available: {known}"
        ) from None
    return factory(config)


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


class MultiStartDriver(SearchDriver):
    """Independent best-of-N restarts -- the PR 3 default, unchanged.

    Delegates wholesale to :class:`MultiStartEngine`; results are
    bit-identical to calling the engine directly, so existing callers
    and the CLI default keep their exact behavior.  Multistart has no
    cross-job scheduling state, so it takes no driver checkpoints
    (engine-level checkpointing of single runs is unaffected) and
    refuses ``resume_state``.
    """

    name = "multistart"

    def run(self, control=None, resume_state=None, observer=None) -> SearchResult:
        """Run best-of-N restarts and wrap the result as a
        :class:`SearchResult`; bit-identical to the engine."""
        if resume_state is not None:
            raise ValueError(
                "multistart has no driver-level schedule to resume; "
                "use engine checkpoints for single runs"
            )
        cfg = self.config
        engine = MultiStartEngine(
            cfg.netlist,
            representation=cfg.representation,
            restarts=cfg.restarts,
            seed=cfg.seed,
            objective_spec=cfg.objective_spec,
            moves_per_temperature=cfg.moves_per_temperature,
            schedule=cfg.schedule,
            calibrate=cfg.calibrate,
            workers=cfg.workers,
            restart_timeout=cfg.restart_timeout,
            max_retries=cfg.max_retries,
            retry_backoff=cfg.retry_backoff,
            max_pool_rebuilds=cfg.max_pool_rebuilds,
            inject_fault=cfg.inject_fault,
            obs_plan=cfg.obs_plan(),
        )
        result = engine.run(control=control, observer=observer)
        stopped = control is not None and control.stop_requested
        return SearchResult(
            driver=self.name,
            best=result.best,
            results=result.results,
            workers=result.workers,
            reports=result.reports,
            degraded=result.degraded,
            pool_rebuilds=result.pool_rebuilds,
            completed=not stopped,
            stop_reason=control.should_stop() if stopped else None,
            ledger={},
        )


register_driver(
    "multistart",
    MultiStartDriver,
    "independent best-of-N restarts over consecutive seeds (default)",
)
