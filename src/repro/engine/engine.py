"""The unified annealing engine: one loop, any representation.

:class:`AnnealEngine` replaces the three per-representation annealer
wrappers with a single engine parameterized by a representation name
(or a ready :class:`~repro.engine.representation.Representation`).  It
owns the run's :class:`~repro.perf.context.CacheContext`, builds (or
adopts) the objective against it, and returns an
:class:`EngineResult` carrying -- besides the usual annealing outputs
-- the representation name, the seed, and a picklable snapshot of
per-cache hit/miss/eviction statistics.

Fault tolerance: :meth:`AnnealEngine.run` accepts a
:class:`~repro.engine.control.RunControl`; the engine binds the
control's checkpoint writer to its own
:class:`~repro.engine.checkpoint.Checkpoint` envelope (netlist,
representation, seed, schedule, objective recipe, cache statistics),
so the annealing loop can persist its position without knowing the
format.  :meth:`AnnealEngine.resume` rebuilds the whole engine from a
checkpoint file alone and continues the run bit-identically (see
:mod:`repro.engine.checkpoint` for why).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.anneal.cost import CostBreakdown, FloorplanObjective
from repro.anneal.generic import Snapshot, anneal
from repro.anneal.schedule import GeometricSchedule
from repro.engine.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from repro.engine.control import RunControl
from repro.errors import CheckpointError
from repro.engine.representation import Representation, make_representation
from repro.floorplan import Floorplan
from repro.netlist import Netlist
from repro.obs.metrics import MetricsRegistry
from repro.perf import CacheStats
from repro.perf.context import CacheContext, merge_cache_stats

__all__ = ["EngineResult", "ObjectiveFactory", "AnnealEngine"]


ObjectiveFactory = Callable[[Netlist, CacheContext], FloorplanObjective]
"""Builds one run's objective against the engine's cache context."""


@dataclass
class EngineResult:
    """A finished engine run.

    Mirrors the generic annealing result, labelled with the
    representation and seed that produced it, plus ``cache_stats``: a
    plain ``name -> CacheStats`` snapshot of the run's cache context
    (picklable, unlike the live context with its locks, so process-pool
    restarts can ship results home intact).  For a resumed run the
    snapshot covers the whole logical run (pre-crash segment's stats
    merged in).

    ``completed`` is False when the run stopped early on a cooperative
    stop (signal, deadline, supervisor); ``stop_reason`` then names the
    cause, and the result still carries the best solution found so far.

    ``progress`` and ``metrics`` carry the run's observability payload
    when the engine ran with an observer: periodic
    :class:`~repro.obs.ProgressSnapshot` samples and the worker-side
    metrics-registry snapshot.  Both are plain picklable data, so they
    ride the supervision seam home from pool workers like everything
    else here.
    """

    representation: str
    seed: int
    floorplan: Floorplan
    state: object
    breakdown: CostBreakdown
    snapshots: List[Snapshot] = field(default_factory=list)
    n_moves: int = 0
    n_accepted: int = 0
    runtime_seconds: float = 0.0
    perf: Optional[MetricsRegistry] = None
    cache_stats: Dict[str, CacheStats] = field(default_factory=dict)
    completed: bool = True
    stop_reason: Optional[str] = None
    checkpoints_written: int = 0
    rng_state: Optional[object] = None
    progress: List[Any] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def cost(self) -> float:
        """The best floorplan's combined objective cost."""
        return self.breakdown.cost

    @property
    def acceptance_ratio(self) -> float:
        """Accepted moves over attempted moves."""
        return self.n_accepted / self.n_moves if self.n_moves else 0.0

    @property
    def moves_per_second(self) -> float:
        """Attempted moves per wall-clock second."""
        return self.n_moves / self.runtime_seconds if self.runtime_seconds else 0.0


class AnnealEngine:
    """Anneal a circuit under any representation.

    Parameters
    ----------
    netlist:
        The circuit.
    representation:
        A representation name (``"polish"`` / ``"sp"`` / ``"btree"``) or a
        prebuilt :class:`~repro.engine.representation.Representation`.
    objective:
        A ready :class:`FloorplanObjective`; the engine adopts its
        cache context so representation-level and congestion caches
        report in one place.  Mutually exclusive with
        ``objective_factory`` and ``cache_context``.
    objective_factory:
        ``(netlist, cache_context) -> FloorplanObjective``; called with
        the engine's context.  Defaults to an area+wirelength
        objective.
    objective_spec:
        A picklable objective recipe with a
        ``build(netlist, cache_context)`` method (duck-typed; normally
        an :class:`~repro.engine.multistart.ObjectiveSpec`).  When
        neither ``objective`` nor ``objective_factory`` is given, the
        engine builds its objective from the spec -- and, crucially,
        embeds the spec in every checkpoint, making checkpoint files
        self-contained (:meth:`resume` needs no other arguments).
    seed:
        Seed for every stochastic choice; identical seeds give
        identical runs.
    moves_per_temperature:
        Move attempts per temperature step; defaults to ``10 * m``
        (Wong-Liu's recommendation).
    schedule:
        Cooling schedule.
    calibrate:
        Run objective normalization before annealing (skip when the
        caller already calibrated a shared objective).
    cache_context:
        The cache fleet for this engine; a private one is created when
        omitted.  Every engine owns exactly one context -- two engines
        never share cache state unless explicitly given one context.
    initial_state:
        Start annealing from this representation state instead of a
        seeded random initial.  Search drivers use it to continue from
        (or migrate) an elite solution; the state must belong to this
        engine's representation.
    t0_scale:
        Multiplier on the sampled initial temperature (see
        :func:`repro.anneal.generic.anneal`); values below 1 make a
        run starting from ``initial_state`` polish rather than
        re-scramble.
    """

    def __init__(
        self,
        netlist: Netlist,
        representation: Union[str, Representation] = "polish",
        objective: Optional[FloorplanObjective] = None,
        objective_factory: Optional[ObjectiveFactory] = None,
        objective_spec: Optional[object] = None,
        seed: int = 0,
        moves_per_temperature: Optional[int] = None,
        schedule: Optional[GeometricSchedule] = None,
        calibrate: bool = True,
        cache_context: Optional[CacheContext] = None,
        initial_state: Optional[object] = None,
        t0_scale: float = 1.0,
    ):
        if objective is not None and objective_factory is not None:
            raise ValueError(
                "pass either objective or objective_factory, not both"
            )
        self.netlist = netlist
        self.objective_spec = objective_spec
        if objective is not None:
            if cache_context is not None:
                raise ValueError(
                    "a ready objective brings its own cache context; "
                    "pass cache_context to the objective instead"
                )
            self.cache_context = objective.cache_context
        else:
            self.cache_context = (
                cache_context if cache_context is not None else CacheContext()
            )
            if objective_factory is not None:
                objective = objective_factory(netlist, self.cache_context)
            elif objective_spec is not None:
                objective = objective_spec.build(netlist, self.cache_context)
            else:
                objective = FloorplanObjective(
                    netlist, cache_context=self.cache_context
                )
        self.objective = objective
        if isinstance(representation, Representation):
            self.representation = representation
        else:
            self.representation = make_representation(
                representation,
                netlist,
                allow_rotation=objective.allow_rotation,
                cache_context=self.cache_context,
            )
        self.seed = int(seed)
        m = netlist.n_modules
        self.moves_per_temperature = (
            moves_per_temperature if moves_per_temperature is not None else 10 * m
        )
        if self.moves_per_temperature < 1:
            raise ValueError("moves_per_temperature must be >= 1")
        self.schedule = schedule or GeometricSchedule()
        self._calibrate = bool(calibrate)
        self.initial_state = initial_state
        self.t0_scale = float(t0_scale)
        if self.t0_scale <= 0:
            raise ValueError(f"t0_scale must be positive, got {t0_scale}")
        self._resume_state = None
        self._resume_version: Optional[int] = None
        self._prior_cache_stats: Dict[str, CacheStats] = {}

    @classmethod
    def resume(
        cls,
        path: Union[str, Path],
        objective_factory: Optional[ObjectiveFactory] = None,
        cache_context: Optional[CacheContext] = None,
    ) -> "AnnealEngine":
        """Rebuild an engine from a checkpoint file and arm it to
        continue where the file left off.

        A checkpoint written by an engine built from an objective
        *spec* is self-contained: ``AnnealEngine.resume(path).run()``
        continues the interrupted run bit-identically.  When the
        original engine used a non-picklable objective (a live
        ``objective`` or ``objective_factory``), pass an equivalent
        ``objective_factory`` here -- the resumed run sanity-checks the
        checkpointed cost against a re-evaluation and raises
        :class:`~repro.errors.CheckpointError` on mismatch, so a wrong
        objective cannot silently continue with different physics.
        """
        checkpoint = load_checkpoint(path)
        engine = cls(
            checkpoint.netlist,
            representation=checkpoint.representation,
            objective_factory=objective_factory,
            objective_spec=checkpoint.objective_spec,
            seed=checkpoint.seed,
            moves_per_temperature=checkpoint.moves_per_temperature,
            schedule=checkpoint.schedule,
            calibrate=False,  # checkpointed norms are restored instead
            cache_context=cache_context,
        )
        engine._resume_state = checkpoint.loop
        engine._prior_cache_stats = dict(checkpoint.cache_stats)
        engine._resume_version = checkpoint.version
        return engine

    @property
    def resuming(self) -> bool:
        """Whether the next :meth:`run` continues a checkpoint."""
        return self._resume_state is not None

    def run(
        self,
        on_snapshot: Optional[Callable[[Snapshot], None]] = None,
        control: Optional[RunControl] = None,
        observer=None,
    ) -> EngineResult:
        """Run one full annealing schedule and return the best solution.

        With a ``control``, the run polls for cooperative stops
        (signals, deadline, supervisor) and writes atomic checkpoints
        per the control's policy; an early stop still returns the
        best-so-far result, with ``completed=False`` and
        ``stop_reason`` set.

        With an ``observer`` (a :class:`repro.obs.RunObserver`), the
        run records per-step telemetry under a ``restart`` span, uses
        the observer's perf recorder (so timers and counters land in
        one registry), and ships the observer's progress snapshots and
        metrics back on the result.  Observation never touches the RNG
        stream -- observed and unobserved runs are bit-identical.
        """
        rep = self.representation
        if control is not None:
            if control.checkpoint_path is not None:
                control.bind_writer(self._make_checkpoint_writer(control))
            control.begin()
        if self.initial_state is not None:
            fixed = self.initial_state
            initial = lambda rng: fixed  # noqa: E731 -- closure over state
        else:
            initial = rep.initial
        if observer is not None:
            span = observer.span(
                "restart", representation=rep.name, seed=self.seed
            )
        else:
            from contextlib import nullcontext

            span = nullcontext()
        resuming = self._resume_state is not None
        with span:
            try:
                result = anneal(
                    objective=self.objective,
                    initial=initial,
                    neighbor=rep.neighbor,
                    realize=rep.realize,
                    seed=self.seed,
                    moves_per_temperature=self.moves_per_temperature,
                    schedule=self.schedule,
                    calibrate=self._calibrate,
                    on_snapshot=on_snapshot,
                    perf=observer.metrics if observer is not None else None,
                    control=control,
                    resume=self._resume_state,
                    t0_scale=self.t0_scale,
                    observer=observer,
                )
            except CheckpointError as exc:
                if resuming:
                    # The loop's sanity check knows only the two costs;
                    # add what the operator needs to find the wrong
                    # file/engine pairing.
                    raise CheckpointError(
                        f"{exc} [checkpoint format "
                        f"v{self._resume_version}, engine "
                        f"{type(self).__name__}, representation "
                        f"{rep.name}, seed {self.seed}]"
                    ) from exc
                raise
        self._resume_state = None  # a second run() starts fresh
        cache_stats = merge_cache_stats(
            self._prior_cache_stats, self.cache_context.stats()
        )
        progress: List[Any] = []
        metrics: Dict[str, Any] = {}
        if observer is not None:
            observer.metrics.set_cache_gauges(cache_stats)
            progress = list(observer.progress)
            metrics = observer.metrics.snapshot()
        return EngineResult(
            representation=rep.name,
            seed=self.seed,
            floorplan=result.floorplan,
            state=result.state,
            breakdown=result.breakdown,
            snapshots=list(result.snapshots),
            n_moves=result.n_moves,
            n_accepted=result.n_accepted,
            runtime_seconds=result.runtime_seconds,
            perf=result.perf,
            cache_stats=cache_stats,
            completed=result.completed,
            stop_reason=result.stop_reason,
            checkpoints_written=(
                control.checkpoints_written if control is not None else 0
            ),
            rng_state=result.rng_state,
            progress=progress,
            metrics=metrics,
        )

    def _make_checkpoint_writer(self, control: RunControl):
        """The closure the annealing loop calls with a bare loop state;
        wraps it in the engine's full checkpoint envelope.

        It captures the path, not ``control``: the control stores the
        closure, so capturing the control would make a reference cycle
        that keeps this whole engine alive until a full collection.
        """
        path = control.checkpoint_path

        def write(loop_state) -> None:
            save_checkpoint(
                path,
                Checkpoint(
                    representation=self.representation.name,
                    seed=self.seed,
                    netlist=self.netlist,
                    moves_per_temperature=self.moves_per_temperature,
                    schedule=self.schedule,
                    loop=loop_state,
                    objective_spec=self.objective_spec,
                    cache_stats=merge_cache_stats(
                        self._prior_cache_stats, self.cache_context.stats()
                    ),
                ),
            )

        return write
