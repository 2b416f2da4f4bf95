"""The service's job model: specs, states, and the transition graph.

A **job** is one floorplanning request frozen as data: the circuit (as
YAL text, so it travels over HTTP and hashes canonically), the search
configuration (representation, seed, objective weights, schedule), and
the service envelope (priority, tenant, deadline, idempotency key).

Two derived identities matter:

* :meth:`JobSpec.content_hash` -- SHA-256 over exactly the fields that
  determine the *answer* (netlist + search configuration).  Jobs with
  equal content hashes produce bit-identical results (the engine is
  deterministic in those fields), so the hash keys the
  content-addressed result store; priority/tenant/deadline/idempotency
  and checkpoint cadence are deliberately excluded -- none of them
  perturbs the walk.
* ``idempotency_key`` -- the *client's* identity for a submission.  A
  retried submit with the same key returns the original job id instead
  of enqueueing twice, which is what makes client retries after a
  dropped response safe.

The job state machine is deliberately small::

    queued ----> running ----> done
      | \\           |  \\
      |  \\          |   +--> failed
      |   +> done    +-----> queued      (worker died / drain: requeue)
      +----> cancelled

``queued -> done`` is the content-cache short-circuit (the result
already exists, no worker runs); ``running -> queued`` is crash/drain
recovery -- the job keeps its checkpoint and resumes where it stopped.
``done`` / ``failed`` / ``cancelled`` are terminal.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional

from repro.engine.representation import REPRESENTATIONS
from repro.errors import JobValidationError

__all__ = [
    "JOB_STATES",
    "VALID_TRANSITIONS",
    "JobSpec",
    "Job",
]


JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

VALID_TRANSITIONS: Mapping[str, frozenset] = {
    "queued": frozenset({"running", "done", "cancelled"}),
    "running": frozenset({"done", "failed", "queued"}),
    "done": frozenset(),
    "failed": frozenset(),
    "cancelled": frozenset(),
}

# The JobSpec fields that determine the result; everything else is
# service envelope.  Kept explicit (not "all fields minus a denylist")
# so adding an envelope field can never silently change content hashes.
_CONTENT_FIELDS = (
    "netlist_yal",
    "representation",
    "seed",
    "alpha",
    "beta",
    "gamma",
    "congestion_grid_size",
    "pin_grid_size",
    "incremental",
    "moves_per_temperature",
    "cooling_rate",
    "freeze_ratio",
    "max_steps",
)


@dataclass(frozen=True)
class JobSpec:
    """One floorplanning request, frozen as plain data.

    ``netlist_yal`` is the circuit in the YAL dialect of
    :mod:`repro.data.yal` -- text, so the spec JSON-serializes, crosses
    HTTP, and hashes without canonicalization questions.  The search
    fields mirror :class:`~repro.engine.multistart.ObjectiveSpec` plus
    the schedule; the envelope fields (``priority`` higher-first,
    ``tenant``, ``deadline_seconds`` wall-clock budget for the run,
    ``idempotency_key``, ``checkpoint_every`` temperature steps between
    the job's crash-recovery checkpoints) never affect the result.
    """

    netlist_yal: str
    representation: str = "polish"
    seed: int = 0
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.0
    congestion_grid_size: float = 30.0
    pin_grid_size: Optional[float] = None
    incremental: bool = True
    moves_per_temperature: Optional[int] = None
    cooling_rate: float = 0.9
    freeze_ratio: float = 1e-6
    max_steps: int = 200
    # -- service envelope (excluded from the content hash) ------------
    priority: int = 0
    tenant: str = "default"
    deadline_seconds: Optional[float] = None
    idempotency_key: Optional[str] = None
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if not self.netlist_yal.strip():
            raise JobValidationError("netlist_yal must be non-empty YAL text")
        if self.representation not in REPRESENTATIONS:
            # Validated here (not only in the worker) so a typo fails
            # the submit with HTTP 400 instead of burning a worker run.
            raise JobValidationError(
                f"unknown representation {self.representation!r}"
            )
        if self.checkpoint_every < 1:
            raise JobValidationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise JobValidationError(
                f"deadline_seconds must be positive, got "
                f"{self.deadline_seconds}"
            )
        if (
            self.moves_per_temperature is not None
            and self.moves_per_temperature < 1
        ):
            raise JobValidationError(
                f"moves_per_temperature must be >= 1, got "
                f"{self.moves_per_temperature}"
            )
        if not self.tenant:
            raise JobValidationError("tenant must be non-empty")

    # -- identity -----------------------------------------------------

    def content_hash(self) -> str:
        """SHA-256 over the result-determining fields, hex-encoded.

        Equal hashes imply bit-identical results (the engine is a pure
        function of these fields), so this keys the content-addressed
        result store.
        """
        payload = json.dumps(
            {name: getattr(self, name) for name in _CONTENT_FIELDS},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- engine recipes -----------------------------------------------

    def build_netlist(self):
        """Parse the YAL text (raises :class:`JobValidationError` on
        malformed circuits -- validated at submit time, not run time)."""
        from repro.data import loads_yal

        try:
            return loads_yal(self.netlist_yal)
        except Exception as exc:
            raise JobValidationError(f"netlist_yal does not parse: {exc}")

    def objective_spec(self):
        """The picklable :class:`~repro.engine.multistart.ObjectiveSpec`
        a worker builds its objective from."""
        from repro.engine import ObjectiveSpec

        return ObjectiveSpec(
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
            congestion_grid_size=self.congestion_grid_size,
            pin_grid_size=self.pin_grid_size,
            incremental=self.incremental,
        )

    def schedule(self):
        """The cooling schedule the worker anneals under."""
        from repro.anneal.schedule import GeometricSchedule

        return GeometricSchedule(
            cooling_rate=self.cooling_rate,
            freeze_ratio=self.freeze_ratio,
            max_steps=self.max_steps,
        )

    # -- serialization ------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """A lossless JSON image (journal submit records carry this)."""
        return {
            "netlist_yal": self.netlist_yal,
            "representation": self.representation,
            "seed": self.seed,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "congestion_grid_size": self.congestion_grid_size,
            "pin_grid_size": self.pin_grid_size,
            "incremental": self.incremental,
            "moves_per_temperature": self.moves_per_temperature,
            "cooling_rate": self.cooling_rate,
            "freeze_ratio": self.freeze_ratio,
            "max_steps": self.max_steps,
            "priority": self.priority,
            "tenant": self.tenant,
            "deadline_seconds": self.deadline_seconds,
            "idempotency_key": self.idempotency_key,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_json` output (or a client
        submission body).  Unknown keys are rejected loudly -- a typoed
        field name must not silently fall back to a default.

        The one exception is ``backend``, a removed field that every
        journal written before numpy became the only compute lane
        carries as ``null``: it is accepted and dropped when it names
        that lane (``null`` or ``"numpy"``), so existing service roots
        still replay, and refused otherwise."""
        if "netlist_yal" not in data:
            raise JobValidationError("submission is missing netlist_yal")
        data = dict(data)
        legacy_backend = data.pop("backend", None)
        if legacy_backend not in (None, "numpy"):
            raise JobValidationError(
                f"unknown backend {legacy_backend!r}; numpy is the only "
                f"compute lane"
            )
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise JobValidationError(
                f"unknown job field(s): {sorted(unknown)}"
            )
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, JobValidationError):
                raise
            raise JobValidationError(f"bad job specification: {exc}")


@dataclass
class Job:
    """One job's full service-side record.

    ``seq`` is the journal sequence number of the submit record --
    unique, monotone, and the FIFO tie-breaker within a priority class.
    ``report`` is the latest supervision ledger
    (:meth:`~repro.engine.multistart.RunReport.to_json` image) attached
    on failure/requeue, so blame survives in the job record itself.
    Timestamps are wall-clock seconds for humans; replay never branches
    on them.
    """

    job_id: str
    spec: JobSpec
    state: str = "queued"
    seq: int = 0
    attempts: int = 0
    result_key: Optional[str] = None
    cached: bool = False
    error: Optional[str] = None
    report: Optional[Dict[str, Any]] = None
    submitted_at: float = 0.0
    finished_at: Optional[float] = None

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def priority(self) -> int:
        return self.spec.priority

    @property
    def active(self) -> bool:
        """Whether the job still occupies tenant quota."""
        return self.state in ("queued", "running")

    @property
    def terminal(self) -> bool:
        return not VALID_TRANSITIONS[self.state]

    def can_transition(self, to: str) -> bool:
        """Whether the state machine allows moving to ``to``."""
        return to in VALID_TRANSITIONS[self.state]

    def status_json(self) -> Dict[str, Any]:
        """The public status view (``GET /v1/jobs/<id>``): everything
        except the netlist text, which can be large."""
        spec = self.spec.to_json()
        spec.pop("netlist_yal")
        return {
            "job_id": self.job_id,
            "state": self.state,
            "attempts": self.attempts,
            "result_key": self.result_key,
            "cached": self.cached,
            "error": self.error,
            "report": self.report,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "spec": spec,
        }

    def to_json(self) -> Dict[str, Any]:
        """Lossless image for snapshots (netlist included)."""
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_json(),
            "state": self.state,
            "seq": self.seq,
            "attempts": self.attempts,
            "result_key": self.result_key,
            "cached": self.cached,
            "error": self.error,
            "report": self.report,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Job":
        return cls(
            job_id=str(data["job_id"]),
            spec=JobSpec.from_json(data["spec"]),
            state=str(data["state"]),
            seq=int(data["seq"]),
            attempts=int(data.get("attempts", 0)),
            result_key=data.get("result_key"),
            cached=bool(data.get("cached", False)),
            error=data.get("error"),
            report=data.get("report"),
            submitted_at=float(data.get("submitted_at", 0.0)),
            finished_at=data.get("finished_at"),
        )

    def with_spec_priority(self, priority: int) -> "Job":
        """A copy at a different priority (admin requeue helper)."""
        return replace(self, spec=replace(self.spec, priority=priority))
