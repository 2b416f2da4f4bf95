"""The service's worker job: one floorplanning run, crash-resumable.

:func:`run_service_job` is the module-level picklable function the
fleet hands to :class:`~repro.engine.supervise.SupervisedRunner` -- it
runs in pool workers and in the degraded sequential path, so both
execution modes share literally the same code.

Crash recovery is checkpoint-first: every job owns a directory with a
``checkpoint.ckpt`` the engine rewrites atomically every
``checkpoint_every`` temperature steps.  A fresh attempt finding a
checkpoint **resumes** it (:meth:`~repro.engine.engine.AnnealEngine.resume`)
instead of starting over, and because checkpoints capture the complete
loop state -- RNG stream, move counters, incumbent and best solutions
-- a run that is killed and resumed finishes *bit-identical* to one
that was never interrupted.  That identity is what lets the service
promise exactly-once results over at-least-once execution.

Liveness is heartbeat-based: the worker's
:class:`ServiceRunControl` touches a per-job ``heartbeat`` file from
the annealing loop's own stop poll (once per move, throttled to a few
writes per second), so the supervisor can tell a *hung* worker (stale
mtime) from a merely *slow* one without wall-clock guessing.  The same
control polls a shared ``stop`` file: the drain path creates it, every
worker checkpoints and comes home with ``stop_reason="drain"``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.engine.control import RunControl
from repro.engine.engine import EngineResult
from repro.engine.multistart import RunJob, run_job
from repro.service.jobs import JobSpec

__all__ = [
    "RESULT_SCHEMA",
    "HEARTBEAT_INTERVAL",
    "STOP_POLL_INTERVAL",
    "ServiceRunControl",
    "JobPayload",
    "JobOutcome",
    "result_payload",
    "run_service_job",
]

RESULT_SCHEMA = "repro.service.result/v1"

# Seconds between heartbeat touches / stop-file polls.  Both piggyback
# on the per-move should_stop() call, so the steady-state cost is one
# monotonic clock read per move; the file I/O happens a few times a
# second regardless of move rate.
HEARTBEAT_INTERVAL = 0.2
STOP_POLL_INTERVAL = 0.1


class ServiceRunControl(RunControl):
    """A :class:`~repro.engine.control.RunControl` that also proves the
    worker is alive and notices fleet-wide drains.

    Extends the per-move stop poll with (throttled):

    * touching ``heartbeat_path`` -- the supervisor's hang detector
      reads its mtime; a worker stuck inside one evaluation stops
      touching it and gets killed, while a slow-but-moving worker keeps
      its lease forever;
    * checking ``stop_path`` -- the drain file.  Workers are separate
      processes, so the drain signal travels through the filesystem
      rather than a shared Event; when the file appears the run stops
      with reason ``"drain"``, writes its final checkpoint, and returns
      best-so-far;
    * chaining ``parent`` -- in sequential (in-process) mode the
      fleet's own control rides along, so a SIGTERM reaches even
      degraded-mode jobs without touching disk.
    """

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        checkpoint_path=None,
        checkpoint_every: int = 1,
        heartbeat_path=None,
        stop_path=None,
        parent: Optional[RunControl] = None,
    ):
        super().__init__(
            deadline_seconds=deadline_seconds,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )
        self.heartbeat_path = (
            Path(heartbeat_path) if heartbeat_path is not None else None
        )
        self.stop_path = Path(stop_path) if stop_path is not None else None
        self.parent = parent
        self._last_beat = float("-inf")
        self._last_poll = float("-inf")

    def beat(self) -> None:
        """Touch the heartbeat file now (best-effort; a beat lost to a
        transient I/O error just narrows the hang margin by one tick)."""
        if self.heartbeat_path is None:
            return
        try:
            self.heartbeat_path.write_text(f"{time.time():.6f}\n")
        except OSError:
            pass

    def begin(self) -> None:
        """Start the run clock and write the first heartbeat."""
        super().begin()
        self.beat()  # the lease starts before the first move runs

    def should_stop(self) -> Optional[str]:
        """The per-move poll: beat, check the drain file and any
        parent control (both throttled), then defer to the base
        deadline/stop logic."""
        now = time.monotonic()
        if now - self._last_beat >= HEARTBEAT_INTERVAL:
            self._last_beat = now
            self.beat()
        if not self.stop_requested and (
            now - self._last_poll >= STOP_POLL_INTERVAL
        ):
            self._last_poll = now
            if self.stop_path is not None and self.stop_path.exists():
                self.request_stop("drain")
            elif self.parent is not None:
                reason = self.parent.should_stop()
                if reason:
                    self.request_stop(reason)
        return super().should_stop()


@dataclass(frozen=True)
class JobPayload:
    """Everything one worker attempt needs, frozen and picklable.

    ``job_dir`` holds the job's checkpoint and heartbeat files --
    stable across attempts, which is exactly what makes attempt N+1
    resume attempt N's checkpoint.  ``stop_path`` is the fleet-wide
    drain file (absent outside a drain).  ``fault`` is the test-only
    injection hook (a :class:`repro.testing.faults.FaultSpec`); it
    targets one (attempt, mode) pair, so the supervised retry of an
    injected kill deterministically succeeds.
    """

    job_id: str
    spec: JobSpec
    job_dir: str
    stop_path: Optional[str] = None
    fault: Optional[Any] = None

    @property
    def checkpoint_path(self) -> Path:
        return Path(self.job_dir) / "checkpoint.ckpt"

    @property
    def heartbeat_path(self) -> Path:
        return Path(self.job_dir) / "heartbeat"


@dataclass
class JobOutcome:
    """What a worker attempt brings home (picklable, JSON-free of
    live objects).

    ``result`` is the JSON payload filed in the result store;
    ``completed`` distinguishes a finished schedule from a cooperative
    stop (``stop_reason`` then says why: ``"drain"`` / ``"deadline"`` /
    ``"signal"``), which the fleet maps to requeue-for-resume versus
    partial-result delivery.
    """

    job_id: str
    completed: bool
    stop_reason: Optional[str]
    resumed: bool
    checkpoints_written: int
    result: Dict[str, Any] = field(default_factory=dict)


def result_payload(
    engine_result: EngineResult, spec: JobSpec
) -> Dict[str, Any]:
    """The canonical JSON image of one finished run.

    Deliberately excludes wall-clock fields (runtime, checkpoint
    counts) and execution history (whether the run was resumed): the
    payload must be **bit-identical** across an uninterrupted run, a
    killed-and-resumed run, and a cache replay of either -- that
    identity is what the fault suite asserts and what makes
    content-addressed caching sound.  Move counters survive a resume
    exactly (they live in the checkpointed loop state), so they stay
    in.
    """
    floorplan = engine_result.floorplan
    return {
        "schema": RESULT_SCHEMA,
        "content_hash": spec.content_hash(),
        "representation": engine_result.representation,
        "seed": engine_result.seed,
        "completed": engine_result.completed,
        "stop_reason": engine_result.stop_reason,
        "breakdown": engine_result.breakdown.to_json(),
        "chip": {
            "width": floorplan.chip.width,
            "height": floorplan.chip.height,
            "area": floorplan.chip.area,
        },
        "placements": {
            name: [rect.x_lo, rect.y_lo, rect.x_hi, rect.y_hi]
            for name, rect in sorted(floorplan.placements.items())
        },
        "n_moves": engine_result.n_moves,
        "n_accepted": engine_result.n_accepted,
    }


def run_service_job(
    payload: JobPayload,
    attempt: int = 0,
    mode: str = "pool",
    control: Optional[RunControl] = None,
) -> JobOutcome:
    """Execute (or resume) one job and return its outcome.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor`
    can pickle it; ``(attempt, mode)`` arrive from the supervisor's
    ``make_args`` and ``control`` rides along only in sequential mode.
    The run itself is one :func:`~repro.engine.multistart.run_job`,
    which resumes the job's checkpoint when one exists; this wrapper
    adds the heartbeat/drain control, the result payload and the
    checkpoint cleanup.
    """
    spec = payload.spec
    job_dir = Path(payload.job_dir)
    job_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = payload.checkpoint_path
    resumed = checkpoint_path.exists()
    run_control = ServiceRunControl(
        deadline_seconds=spec.deadline_seconds,
        checkpoint_path=checkpoint_path,
        checkpoint_every=spec.checkpoint_every,
        heartbeat_path=payload.heartbeat_path,
        stop_path=payload.stop_path,
        parent=control,
    )
    job = RunJob(
        spec.build_netlist(),
        representation=spec.representation,
        objective_spec=spec.objective_spec(),
        seed=spec.seed,
        moves_per_temperature=spec.moves_per_temperature,
        schedule=spec.schedule(),
        fault=payload.fault,
        checkpoint=str(checkpoint_path),
    )
    engine_result = run_job(job, attempt, mode, control=run_control)
    outcome = JobOutcome(
        job_id=payload.job_id,
        completed=engine_result.completed,
        stop_reason=engine_result.stop_reason,
        resumed=resumed,
        checkpoints_written=run_control.checkpoints_written,
        result=result_payload(engine_result, spec),
    )
    if engine_result.completed:
        # The run finished; its checkpoint would only confuse a later
        # identical submission (which the content cache serves anyway).
        try:
            os.remove(checkpoint_path)
        except OSError:
            pass
    return outcome
