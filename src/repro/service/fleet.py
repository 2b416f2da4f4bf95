"""The supervised worker fleet: claims jobs, survives its workers.

:class:`ServiceFleet` is the service's execution arm -- a dispatcher
thread that claims batches of ready jobs from the
:class:`~repro.service.queue.JobQueue` and runs them through a
:class:`~repro.engine.supervise.SupervisedRunner` process pool (the
same machinery PR 3 built for multistart, here with heartbeat hang
detection and jittered retry backoff turned on).

The supervision ladder, from mildest to worst:

* a worker that **raises** charges one attempt to its job; bounded
  retries with exponential-plus-jitter backoff;
* a worker that **crashes or hangs** (heartbeat gone stale) costs the
  pool: finished futures are harvested, every in-flight job is charged
  one attempt, the pool is killed and rebuilt, and the blame lands in
  each affected job's :class:`~repro.engine.multistart.RunReport`;
* a pool that keeps dying past ``max_pool_rebuilds`` **degrades the
  fleet to sequential execution** -- a latch, not a retry: every later
  batch runs in-process until the service restarts, trading throughput
  for certainty;
* killed attempts are never wasted work: the next attempt finds the
  job's checkpoint and *resumes* it, bit-identical to an uninterrupted
  run.

Job dispositions after a batch: a completed run files its result under
the spec's content hash and the job goes ``done``; a deadline-stopped
run files its best-so-far under a per-job key (``job-<id>``) and still
goes ``done`` (the deadline asked for exactly this); a drain/signal
stop **requeues** the job so the next server run resumes it; exhausted
retries go ``failed`` with the full supervision ledger attached.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.engine.control import RunControl
from repro.engine.multistart import RunReport
from repro.engine.supervise import SupervisedRunner
from repro.service.jobs import Job
from repro.service.queue import JobQueue
from repro.service.store import ResultStore
from repro.service.worker import JobOutcome, JobPayload, run_service_job

__all__ = ["ServiceFleet"]


class ServiceFleet:
    """Dispatcher thread + supervised process pool over the job queue.

    Parameters mirror :class:`~repro.engine.supervise.SupervisedRunner`
    where they share names.  ``faults`` maps ``job_id`` to a
    :class:`repro.testing.faults.FaultSpec` (test-only; lets the fault
    suite kill exactly one chosen job's worker).  ``metrics`` is a
    :class:`repro.obs.MetricsRegistry`; pass the service's so fleet
    counters land on ``/metrics``.
    """

    def __init__(
        self,
        queue: JobQueue,
        store: ResultStore,
        jobs_root,
        workers: int = 2,
        timeout: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        retry_jitter: float = 0.25,
        max_pool_rebuilds: int = 2,
        poll_interval: float = 0.05,
        metrics=None,
        observer=None,
        faults: Optional[Dict[str, object]] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.queue = queue
        self.store = store
        self.jobs_root = Path(jobs_root)
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        self.stop_path = self.jobs_root / "stop"
        self.workers = int(workers)
        self.timeout = timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.retry_jitter = float(retry_jitter)
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        self.poll_interval = float(poll_interval)
        self.metrics = metrics
        self.observer = observer
        self.faults: Dict[str, object] = dict(faults or {})
        self.control = RunControl()  # parent control for sequential jobs
        self.sequential_only = False  # the degradation latch
        self.pool_rebuilds = 0
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        # A stop file surviving from a previous (drained or killed)
        # server must not halt this one's workers.
        try:
            self.stop_path.unlink()
        except OSError:
            pass
        self.control = RunControl()
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="service-fleet", daemon=True
        )
        self._thread.start()

    def drain(self, timeout: float = 60.0) -> None:
        """Graceful shutdown: stop claiming, checkpoint running jobs,
        requeue them, compact the journal.

        The drain signal travels two ways at once -- the stop *file*
        for pool workers (separate processes) and the parent control's
        stop flag for sequential/in-process jobs -- so every running
        job writes a final checkpoint and comes home with
        ``stop_reason="drain"`` instead of being killed mid-move.
        """
        self._stop_event.set()
        self.stop_path.write_text("drain\n")
        self.control.request_stop("drain")
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        self.queue.compact()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until no job is queued or running (or ``timeout``);
        returns whether the queue went idle.  Test/smoke helper."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            counts = self.queue.counts()
            if not counts.get("queued") and not counts.get("running"):
                return True
            time.sleep(self.poll_interval)
        return False

    # -- dispatch -----------------------------------------------------

    def _loop(self) -> None:
        while not self._stop_event.is_set():
            batch = self.queue.claim(self.workers)
            if not batch:
                self._stop_event.wait(self.poll_interval)
                continue
            try:
                self._run_batch(batch)
            except Exception as exc:  # dispatcher must outlive any batch
                self._count("service_dispatch_errors")
                for job in batch:
                    try:
                        if self.queue.get(job.job_id).state == "running":
                            self.queue.requeue(
                                job.job_id, f"dispatcher error: {exc}"
                            )
                    except Exception:
                        pass

    def _job_dir(self, job_id: str) -> Path:
        return self.jobs_root / "jobs" / job_id

    def _payload(self, job: Job) -> JobPayload:
        payload = JobPayload(
            job_id=job.job_id,
            spec=job.spec,
            job_dir=str(self._job_dir(job.job_id)),
            stop_path=str(self.stop_path),
            fault=self.faults.get(job.job_id),
        )
        # A heartbeat file surviving a killed/drained earlier run has a
        # stale mtime; left in place it could condemn this dispatch as
        # hung before its worker writes a first beat.  (The checkpoint
        # file next to it stays -- that is what makes the rerun a
        # resume.)
        try:
            payload.heartbeat_path.unlink()
        except OSError:
            pass
        return payload

    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(name, n)

    def _run_batch(self, batch: List[Job]) -> None:
        payloads = {k: self._payload(job) for k, job in enumerate(batch)}
        reports = {
            k: RunReport(seed=job.spec.seed, label=job.job_id)
            for k, job in enumerate(batch)
        }
        results: Dict[int, object] = {}
        runner = SupervisedRunner(
            fn=run_service_job,
            make_args=lambda k, attempt, mode: (payloads[k], attempt, mode),
            timeout=self.timeout,
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
            retry_jitter=self.retry_jitter,
            heartbeat_path=lambda k: payloads[k].heartbeat_path,
            heartbeat_timeout=self.heartbeat_timeout,
            max_pool_rebuilds=self.max_pool_rebuilds,
            observer=self.observer,
        )
        effective = 1 if self.sequential_only else self.workers
        started = time.monotonic()
        rebuilds, degraded = runner.run(
            list(payloads), effective, reports, results, control=self.control
        )
        self.pool_rebuilds += rebuilds
        self._count("service_pool_rebuilds", rebuilds)
        if degraded and not self.sequential_only:
            # Latch, don't retry: a machine whose pools keep dying gets
            # slow-but-certain sequential execution until restart.
            self.sequential_only = True
            self._count("service_degraded")
        self._settle_batch(batch, results, reports)
        if self.metrics is not None:
            self.metrics.observe(
                "service_batch_seconds", time.monotonic() - started
            )

    def _settle_batch(
        self,
        batch: List[Job],
        results: Dict[int, object],
        reports: Dict[int, RunReport],
    ) -> None:
        """Settle every job in the batch, tolerating per-job failures.

        One job whose transition is refused (e.g. something raced it to
        a terminal state) or whose store write fails must not abort the
        settling of its batch-mates -- their results are real and
        discarding them would re-run finished work.  The failed job is
        requeued if it is still ``running``; terminal states are left
        where they are.
        """
        for k, job in enumerate(batch):
            try:
                self._settle(job, results.get(k), reports[k])
            except Exception as exc:
                self._count("service_settle_errors")
                try:
                    if self.queue.get(job.job_id).state == "running":
                        self.queue.requeue(
                            job.job_id, f"settle error: {exc}"
                        )
                except Exception:
                    pass

    def _settle(
        self, job: Job, outcome: Optional[object], report: RunReport
    ) -> None:
        """Translate one job's supervision outcome into a queue
        transition (every path journals exactly one transition)."""
        report_json = report.to_json()
        if isinstance(outcome, JobOutcome):
            if outcome.completed:
                key = job.spec.content_hash()
                self.store.put(key, outcome.result)
                self.queue.complete(job.job_id, key, report=report_json)
                self._count("service_jobs_done")
            elif outcome.stop_reason == "deadline":
                # The deadline asked for best-so-far; deliver it under
                # a per-job key so it can never shadow the content
                # hash's canonical (complete) result.
                key = f"job-{job.job_id}"
                self.store.put(key, outcome.result)
                self.queue.complete(job.job_id, key, report=report_json)
                self._count("service_jobs_deadline")
            else:
                # Drain / signal / supervisor stop: the checkpoint is
                # on disk, the next claim resumes it.
                self.queue.requeue(
                    job.job_id,
                    f"stopped: {outcome.stop_reason or 'stop'}",
                    report=report_json,
                )
                self._count("service_jobs_requeued")
        elif report.status == "skipped":
            # A stop arrived before this job's attempt started.
            self.queue.requeue(
                job.job_id, "drain before start", report=report_json
            )
            self._count("service_jobs_requeued")
        else:
            message = (
                report.failures[-1].message
                if report.failures
                else "worker produced no result"
            )
            self.queue.fail(job.job_id, message, report=report_json)
            self._count("service_jobs_failed")
