"""The crash-safe job queue.

:class:`JobQueue` holds every job the service knows about, in memory
for speed and on disk for survival.  The durability contract:

* every mutation appends a checksummed journal record **before** the
  in-memory state changes (write-ahead; see
  :mod:`repro.service.journal`), and the in-memory apply runs the same
  ``_apply`` code replay runs, so a rebuilt queue and a live queue can
  never disagree about what a record means;
* startup = load snapshot + replay journal suffix + recover: any job
  found ``running`` belonged to a worker that died with the server --
  it flips back to ``queued`` (in memory only; the flip is a pure
  function of the replayed state, so every replay of the same bytes
  agrees) and will resume from its on-disk checkpoint;
* a `kill -9` mid-enqueue loses nothing: either the submit record is
  fully on disk (the job exists after restart and the client's
  idempotent resubmit returns its id) or it is not (the resubmit
  simply enqueues it).

Scheduling order is ``(-priority, seq)`` -- strictly higher priority
first, FIFO within a class.  Per-tenant quotas bound *active*
(queued + running) jobs; terminal jobs stop counting, so a tenant's
quota is a concurrency limit, not a lifetime one.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import JobNotFound, QuotaExceeded, ServiceError
from repro.service.jobs import Job, JobSpec
from repro.service.journal import (
    JournalRecord,
    append_record,
    load_snapshot,
    replay_journal,
    truncate_journal,
    write_snapshot,
)

__all__ = ["JobQueue"]


class JobQueue:
    """Journal-backed priority queue of :class:`~repro.service.jobs.Job`.

    Parameters
    ----------
    root:
        Directory holding ``journal.jsonl`` and ``snapshot.json``
        (created when missing).
    tenant_quota:
        Maximum *active* (queued + running) jobs per tenant; ``None``
        disables quotas.
    compact_every:
        Journal records between automatic compactions (snapshot +
        truncate).  Compaction also runs on :meth:`compact` (the drain
        path calls it so restarts replay an empty journal).
    now:
        Clock for human-facing timestamps (injectable for tests);
        replay never branches on it.

    Thread safety: every public method takes the queue lock; the HTTP
    thread and the fleet's slot threads share one instance.  A
    condition on that lock is notified on every journaled record, so
    an idle slot blocked in :meth:`wait_ready` wakes the moment a job
    is submitted or requeued.
    """

    def __init__(
        self,
        root: Union[str, Path],
        tenant_quota: Optional[int] = None,
        compact_every: int = 512,
        now=time.time,
    ):
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError(
                f"tenant_quota must be >= 1, got {tenant_quota}"
            )
        if compact_every < 1:
            raise ValueError(
                f"compact_every must be >= 1, got {compact_every}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.root / "journal.jsonl"
        self.snapshot_path = self.root / "snapshot.json"
        self.tenant_quota = tenant_quota
        self.compact_every = int(compact_every)
        self._now = now
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self.jobs: Dict[str, Job] = {}
        self._by_idempotency: Dict[str, str] = {}
        self._seq = 0  # last journal seq applied (and written)
        self._next_job = 1
        self._records_since_compact = 0
        self.replay_discarded = 0
        self.recovered_jobs: List[str] = []
        self._load()

    # -- startup ------------------------------------------------------

    def _load(self) -> None:
        applied_seq, state = load_snapshot(self.snapshot_path)
        self._seq = applied_seq
        self._next_job = int(state.get("next_job", 1))
        for job_data in state.get("jobs", []):
            job = Job.from_json(job_data)
            self.jobs[job.job_id] = job
        records, self.replay_discarded = replay_journal(
            self.journal_path, after_seq=applied_seq
        )
        for record in records:
            self._apply(record)
            self._seq = record.seq
            self._records_since_compact += 1
        self._rebuild_indexes()
        # Recovery: a "running" job's worker died with the server.  The
        # flip is derived state (pure function of the replayed journal),
        # so it is NOT journaled -- every replay of the same bytes
        # reaches the same answer, and the job's checkpoint file lets
        # the next run resume instead of restarting.
        for job in self.jobs.values():
            if job.state == "running":
                job.state = "queued"
                self.recovered_jobs.append(job.job_id)
        if self.replay_discarded:
            # The torn tail is still physically in the file, and it has
            # no trailing newline -- the next append would glue onto it
            # and a later replay would then stop at (and discard) that
            # merged line plus every fsynced record after it.  Compact
            # now: snapshot the replayed state and truncate the journal
            # before any new mutation can land.
            self.compact()

    def _rebuild_indexes(self) -> None:
        self._by_idempotency = {
            job.spec.idempotency_key: job.job_id
            for job in self.jobs.values()
            if job.spec.idempotency_key
        }

    # -- the single mutation path -------------------------------------

    def _apply(self, record: JournalRecord) -> None:
        """Interpret one journal record against the in-memory state.

        Both live mutations and startup replay funnel through here --
        the journal's semantics are defined exactly once.
        """
        data = record.data
        if record.op == "submit":
            job = Job.from_json(data)
            self.jobs[job.job_id] = job
            if job.spec.idempotency_key:
                self._by_idempotency[job.spec.idempotency_key] = job.job_id
            self._next_job = max(self._next_job, int(job.job_id[1:]) + 1)
        elif record.op == "transition":
            job = self.jobs.get(data["job_id"])
            if job is None:
                # A transition for a job the snapshot+prefix never saw
                # can only mean a compaction raced a crash; skipping is
                # the consistent interpretation (the snapshot already
                # contains the transition's effect).
                return
            job.state = data["to"]
            if "attempts" in data:
                job.attempts = int(data["attempts"])
            if "result_key" in data:
                job.result_key = data["result_key"]
            if "cached" in data:
                job.cached = bool(data["cached"])
            if "error" in data:
                job.error = data["error"]
            if "report" in data:
                job.report = data["report"]
            if "started_at" in data:
                job.started_at = data["started_at"]
            if "finished_at" in data:
                job.finished_at = data["finished_at"]
        else:
            raise ServiceError(f"unknown journal op {record.op!r}")

    def _journal(self, op: str, data: Dict[str, Any]) -> None:
        """Append one record (WAL) then apply it to memory.

        If the append raises (disk full, injected journal crash), the
        in-memory state is untouched and the sequence number rolls
        back -- the failed mutation never happened, on disk or in
        memory.
        """
        record = JournalRecord(seq=self._seq + 1, op=op, data=data)
        append_record(self.journal_path, record)
        self._seq = record.seq
        self._apply(record)
        self._changed.notify_all()
        self._records_since_compact += 1
        if self._records_since_compact >= self.compact_every:
            self.compact()

    def _transition(self, job: Job, to: str, **fields: Any) -> None:
        if not job.can_transition(to):
            raise ServiceError(
                f"job {job.job_id} cannot go {job.state!r} -> {to!r}"
            )
        self._journal(
            "transition", {"job_id": job.job_id, "to": to, **fields}
        )

    # -- public API ---------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        cached_result_key: Optional[str] = None,
    ) -> Tuple[Job, bool]:
        """Enqueue one job; returns ``(job, created)``.

        ``created`` is ``False`` when the spec's idempotency key was
        seen before -- the original job is returned untouched, so a
        client retrying a dropped response can never run work twice.
        Raises :class:`~repro.errors.QuotaExceeded` when the tenant's
        active-job quota is full.

        ``cached_result_key`` is the content-cache short-circuit: the
        caller already holds a stored result for this spec's content
        hash, so the job is born ``done`` (one submit record, applied
        under the queue lock) and the fleet can never claim it.
        Doing this *inside* submit closes the race where a separate
        ``submit -> complete`` pair let the fleet claim the job in
        between, making the cached complete collide with the worker's.
        """
        with self._lock:
            key = spec.idempotency_key
            if key and key in self._by_idempotency:
                return self.jobs[self._by_idempotency[key]], False
            born_done = cached_result_key is not None
            if self.tenant_quota is not None and not born_done:
                active = sum(
                    1
                    for j in self.jobs.values()
                    if j.tenant == spec.tenant and j.active
                )
                if active >= self.tenant_quota:
                    raise QuotaExceeded(
                        f"tenant {spec.tenant!r} has {active} active "
                        f"job(s); quota is {self.tenant_quota}"
                    )
            now = self._now()
            job = Job(
                job_id=f"j{self._next_job:06d}",
                spec=spec,
                state="done" if born_done else "queued",
                seq=self._seq + 1,
                result_key=cached_result_key,
                cached=born_done,
                submitted_at=now,
                finished_at=now if born_done else None,
            )
            self._journal("submit", job.to_json())
            return self.jobs[job.job_id], True

    def get(self, job_id: str) -> Job:
        """The job, or :class:`~repro.errors.JobNotFound`."""
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise JobNotFound(f"no such job: {job_id}")
            return job

    def list_jobs(self, tenant: Optional[str] = None) -> List[Job]:
        """Jobs in submission order, optionally filtered by tenant."""
        with self._lock:
            jobs = sorted(self.jobs.values(), key=lambda j: j.seq)
            if tenant is not None:
                jobs = [j for j in jobs if j.tenant == tenant]
            return jobs

    def ready_jobs(self) -> List[Job]:
        """Queued jobs in scheduling order: priority desc, then FIFO."""
        with self._lock:
            ready = [j for j in self.jobs.values() if j.state == "queued"]
            ready.sort(key=lambda j: (-j.priority, j.seq))
            return ready

    def claim(self, max_jobs: int) -> List[Job]:
        """Move up to ``max_jobs`` ready jobs to ``running``, stamping
        ``started_at`` (the split between queue wait and run time)."""
        with self._lock:
            batch = self.ready_jobs()[: max(0, max_jobs)]
            for job in batch:
                self._transition(
                    job,
                    "running",
                    attempts=job.attempts + 1,
                    started_at=self._now(),
                )
            return batch

    def wait_ready(self, timeout: float, stop: Callable[[], bool]) -> None:
        """Block until a job is queued, ``stop()`` is true, or
        ``timeout`` seconds pass.  Both conditions are checked under
        the queue lock, so a submit or a :meth:`wake` cannot slip in
        between the check and the wait."""
        with self._changed:
            self._changed.wait_for(
                lambda: stop()
                or any(j.state == "queued" for j in self.jobs.values()),
                timeout,
            )

    def wake(self) -> None:
        """Wake every thread blocked in :meth:`wait_ready` (drain)."""
        with self._changed:
            self._changed.notify_all()

    def complete(
        self,
        job_id: str,
        result_key: str,
        cached: bool = False,
        report: Optional[Dict[str, Any]] = None,
    ) -> Job:
        """Deliver a result: ``queued|running -> done``."""
        with self._lock:
            job = self.get(job_id)
            fields: Dict[str, Any] = {
                "result_key": result_key,
                "cached": cached,
                "finished_at": self._now(),
            }
            if report is not None:
                fields["report"] = report
            self._transition(job, "done", **fields)
            return job

    def fail(
        self,
        job_id: str,
        error: str,
        report: Optional[Dict[str, Any]] = None,
    ) -> Job:
        """Retries exhausted: ``running -> failed`` with blame."""
        with self._lock:
            job = self.get(job_id)
            fields: Dict[str, Any] = {
                "error": error,
                "finished_at": self._now(),
            }
            if report is not None:
                fields["report"] = report
            self._transition(job, "failed", **fields)
            return job

    def requeue(
        self,
        job_id: str,
        reason: str,
        report: Optional[Dict[str, Any]] = None,
    ) -> Job:
        """Put an interrupted running job back in line
        (``running -> queued``); its checkpoint makes the next run a
        resume, not a restart."""
        with self._lock:
            job = self.get(job_id)
            fields: Dict[str, Any] = {"error": reason}
            if report is not None:
                fields["report"] = report
            self._transition(job, "queued", **fields)
            return job

    def cancel(self, job_id: str) -> Job:
        """Client cancellation: ``queued -> cancelled`` only (a running
        job belongs to its worker until it comes home)."""
        with self._lock:
            job = self.get(job_id)
            self._transition(job, "cancelled", finished_at=self._now())
            return job

    # -- maintenance ---------------------------------------------------

    def compact(self) -> None:
        """Snapshot the full state and truncate the journal.

        Crash-ordering: the snapshot (carrying ``applied_seq``) lands
        atomically first; replay skips journal records at or below it,
        so dying between the two writes double-applies nothing.
        """
        with self._lock:
            write_snapshot(
                self.snapshot_path,
                applied_seq=self._seq,
                payload={
                    "next_job": self._next_job,
                    "jobs": [
                        job.to_json()
                        for job in sorted(
                            self.jobs.values(), key=lambda j: j.seq
                        )
                    ],
                },
            )
            truncate_journal(self.journal_path)
            self._records_since_compact = 0

    def counts(self) -> Dict[str, int]:
        """Jobs per state (for ``/metrics`` and logs)."""
        with self._lock:
            out: Dict[str, int] = {}
            for job in self.jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
            return out
