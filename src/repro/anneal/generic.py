"""The representation-agnostic annealing loop.

All three floorplan representations (Polish expressions, sequence
pairs, B*-trees) anneal identically: Metropolis acceptance, geometric
cooling with sampled initial temperature, per-temperature snapshots.
This module hosts that loop once; each representation supplies three
functions:

* ``initial(rng) -> state``
* ``neighbor(state, rng) -> state``
* ``realize(state) -> Floorplan``

and gets back the same result/snapshot protocol the experiments
consume.

Fault tolerance: the loop optionally runs under a
:class:`~repro.engine.control.RunControl`, which it polls once per
move.  A requested stop (signal, deadline, supervisor) exits at the
next move boundary with the best-so-far result and ``stop_reason``
set; configured checkpoints are written at temperature-step boundaries
and on stop.  Passing a
:class:`~repro.engine.checkpoint.LoopState` as ``resume`` continues a
checkpointed run bit-identically: the RNG stream is restored verbatim,
the objective's calibration constants are reinstated, and the current
state is re-evaluated once (full evaluation reproduces the delta
path's numbers exactly -- see :mod:`repro.engine.checkpoint`) to warm
the incremental pipeline before the loop picks up where it left off.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Generic, List, Optional, TypeVar

from repro.anneal.cost import CostBreakdown, FloorplanObjective
from repro.anneal.schedule import GeometricSchedule, initial_temperature
from repro.errors import CheckpointError
from repro.floorplan import Floorplan
from repro.obs.metrics import MetricsRegistry

__all__ = ["Snapshot", "Result", "anneal"]

State = TypeVar("State")


@dataclass(frozen=True)
class Snapshot(Generic[State]):
    """The state at the end of one temperature step."""

    step: int
    temperature: float
    current_cost: float
    best_cost: float
    breakdown: CostBreakdown
    state: State


@dataclass
class Result(Generic[State]):
    """A finished annealing run over any representation.

    ``completed`` is False when the run wound down early on a
    cooperative stop; ``stop_reason`` then names the cause
    (``"signal"`` / ``"deadline"`` / ``"stop"``).  ``rng_state`` is the
    RNG's final state -- two runs that consumed identical random
    streams (e.g. an uninterrupted run and its crash+resume twin)
    finish with equal states.
    """

    floorplan: Floorplan
    state: State
    breakdown: CostBreakdown
    snapshots: List[Snapshot] = field(default_factory=list)
    n_moves: int = 0
    n_accepted: int = 0
    runtime_seconds: float = 0.0
    perf: Optional[MetricsRegistry] = None
    completed: bool = True
    stop_reason: Optional[str] = None
    rng_state: Optional[object] = None

    @property
    def cost(self) -> float:
        return self.breakdown.cost

    @property
    def acceptance_ratio(self) -> float:
        return self.n_accepted / self.n_moves if self.n_moves else 0.0


def anneal(
    objective: FloorplanObjective,
    initial: Callable[[random.Random], State],
    neighbor: Callable[[State, random.Random], State],
    realize: Callable[[State], Floorplan],
    seed: int = 0,
    moves_per_temperature: int = 100,
    schedule: Optional[GeometricSchedule] = None,
    calibrate: bool = True,
    temperature_samples: int = 30,
    on_snapshot: Optional[Callable[[Snapshot], None]] = None,
    perf: Optional[MetricsRegistry] = None,
    control=None,
    resume=None,
    t0_scale: float = 1.0,
    observer=None,
) -> Result:
    """Run one full annealing schedule over an arbitrary representation.

    ``perf`` (a :class:`~repro.obs.MetricsRegistry`, created on demand)
    is wired into the objective and its congestion model, collects the
    per-phase self times of the whole run (packing / pin assignment /
    MST / IR-grid build / mass evaluation / scoring, under one
    ``anneal`` root whose own self time is move generation, Metropolis
    bookkeeping and candidate copying), and comes back on
    :attr:`Result.perf`.

    ``control`` (a :class:`~repro.engine.control.RunControl`) enables
    cooperative stop, deadlines, and checkpointing; ``resume`` (a
    :class:`~repro.engine.checkpoint.LoopState`) continues a
    checkpointed run instead of starting fresh (``seed`` and
    ``calibrate`` are then ignored -- the restored RNG state and norms
    take over).

    ``t0_scale`` multiplies the sampled initial temperature; search
    drivers use values below 1 to *continue* annealing from an already
    good state (an elite migrated from another restart) without the
    full high-temperature scramble destroying it.  A resumed run
    ignores it (``t0`` is restored from the checkpoint).

    ``observer`` (a :class:`repro.obs.RunObserver`) receives one
    ``step_complete`` call per temperature step plus warmup/anneal
    spans.  Every observer hook sits strictly between moves and never
    touches ``rng``, so an observed walk is bit-identical to an
    unobserved one.
    """
    if moves_per_temperature < 1:
        raise ValueError("moves_per_temperature must be >= 1")
    if t0_scale <= 0:
        raise ValueError(f"t0_scale must be positive, got {t0_scale}")
    schedule = schedule or GeometricSchedule()
    start_time = time.perf_counter()
    perf = perf if perf is not None else MetricsRegistry()
    objective.perf = perf
    model = getattr(objective, "congestion_model", None)
    if model is not None and hasattr(model, "perf"):
        model.perf = perf

    def evaluate(state: State) -> CostBreakdown:
        with perf.timeit("packing"):
            floorplan = realize(state)
        perf.count("evaluations")
        return objective.evaluate_floorplan(floorplan)

    with perf.timeit("anneal"):
        if resume is not None:
            rng = random.Random()
            rng.setstate(resume.rng_state)
            objective.set_norms(*resume.norms)
            t0 = resume.t0
            current = resume.current
            # One full evaluation rebuilds the incremental pipeline's
            # committed state; it reproduces the checkpointed numbers
            # exactly (full and delta paths agree -- see module docstring),
            # so the continuation is bit-identical.
            check = evaluate(current)
            objective.commit()
            if not math.isclose(
                check.cost, resume.current_eval.cost,
                rel_tol=1e-9, abs_tol=1e-9,
            ):
                raise CheckpointError(
                    f"checkpoint does not match this objective/netlist: "
                    f"re-evaluated cost {check.cost!r} vs checkpointed "
                    f"{resume.current_eval.cost!r}"
                )
            current_eval = resume.current_eval
            best, best_eval = resume.best, resume.best_eval
            snapshots: List[Snapshot] = list(resume.snapshots)
            n_moves, n_accepted = resume.n_moves, resume.n_accepted
            start_step, start_move = resume.step, resume.move
            prior_elapsed = resume.elapsed_seconds
        else:
            rng = random.Random(seed)
            with (
                observer.span("warmup")
                if observer is not None
                else nullcontext()
            ):
                if calibrate:
                    objective.calibrate(seed=seed)
                current = initial(rng)
                current_eval = evaluate(current)
                objective.commit()
                best, best_eval = current, current_eval

                # Sample uphill deltas along a random walk to size T0.
                deltas = []
                walk, walk_cost = current, current_eval.cost
                for _ in range(temperature_samples):
                    step_state = neighbor(walk, rng)
                    step_eval = evaluate(step_state)
                    objective.commit()
                    deltas.append(step_eval.cost - walk_cost)
                    walk, walk_cost = step_state, step_eval.cost
            t0 = initial_temperature(deltas) * t0_scale

            snapshots = []
            n_moves = n_accepted = 0
            start_step = start_move = 0
            prior_elapsed = 0.0

        def capture(next_step: int, next_move: int):
            """Freeze the loop for a checkpoint (lazy import: the engine
            layer sits above this module)."""
            from repro.engine.checkpoint import LoopState

            return LoopState(
                step=next_step,
                move=next_move,
                t0=t0,
                rng_state=rng.getstate(),
                current=current,
                current_eval=current_eval,
                best=best,
                best_eval=best_eval,
                n_moves=n_moves,
                n_accepted=n_accepted,
                snapshots=list(snapshots),
                elapsed_seconds=prior_elapsed
                + (time.perf_counter() - start_time),
                norms=objective.norms,
            )

        stop_reason: Optional[str] = None
        with (
            observer.span("anneal", t0=t0)
            if observer is not None
            else nullcontext()
        ):
            for step, temperature in enumerate(schedule.temperatures(t0)):
                if step < start_step:
                    continue
                move_start = start_move if step == start_step else 0
                step_moves_base, step_accepted_base = n_moves, n_accepted
                for move_i in range(move_start, moves_per_temperature):
                    if control is not None:
                        stop_reason = control.should_stop()
                        if stop_reason is not None:
                            break
                    candidate = neighbor(current, rng)
                    if candidate == current:
                        continue
                    candidate_eval = evaluate(candidate)
                    delta = candidate_eval.cost - current_eval.cost
                    n_moves += 1
                    if delta <= 0 or rng.random() < math.exp(
                        -delta / temperature
                    ):
                        current, current_eval = candidate, candidate_eval
                        objective.commit()
                        n_accepted += 1
                        if current_eval.cost < best_eval.cost:
                            best, best_eval = current, current_eval
                    else:
                        # Roll the incremental evaluator back to the accepted
                        # state so the next delta carries one move's dirt.
                        objective.reject()
                if stop_reason is not None:
                    # Graceful wind-down: persist the exact mid-step position
                    # (move_i never ran) so resume continues seamlessly.
                    if control is not None:
                        control.write_checkpoint(capture(step, move_i))
                    break
                snapshot = Snapshot(
                    step=step,
                    temperature=temperature,
                    current_cost=current_eval.cost,
                    best_cost=best_eval.cost,
                    breakdown=current_eval,
                    state=current,
                )
                snapshots.append(snapshot)
                if on_snapshot is not None:
                    on_snapshot(snapshot)
                if observer is not None:
                    # Between-move hook: reads the loop, never the RNG.
                    observer.step_complete(
                        step=step,
                        temperature=temperature,
                        current_cost=current_eval.cost,
                        best_cost=best_eval.cost,
                        moves=n_moves - step_moves_base,
                        accepted=n_accepted - step_accepted_base,
                        total_moves=n_moves,
                        total_accepted=n_accepted,
                        elapsed=prior_elapsed
                        + (time.perf_counter() - start_time),
                        objective=objective,
                        floorplan=lambda: realize(current),
                    )
                if control is not None and control.checkpoint_due(step + 1):
                    control.write_checkpoint(capture(step + 1, 0))

        if stop_reason is None and control is not None:
            # Completion checkpoint: a post-run death loses nothing, and
            # resuming a finished run returns its result immediately.
            control.write_checkpoint(capture(schedule.max_steps + 1, 0))
        floorplan = realize(best)

    return Result(
        floorplan=floorplan,
        state=best,
        breakdown=best_eval,
        snapshots=snapshots,
        n_moves=n_moves,
        n_accepted=n_accepted,
        runtime_seconds=prior_elapsed + (time.perf_counter() - start_time),
        perf=perf,
        completed=stop_reason is None,
        stop_reason=stop_reason,
        rng_state=rng.getstate(),
    )
