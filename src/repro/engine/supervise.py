"""Generic supervised job execution: pools, retries, rebuild, degrade.

Worker supervision: wall-clock watchdogs per job, bounded retries with
exponential backoff, pool teardown-and-rebuild on a crash or hang, and
degradation to sequential execution when the pool keeps dying.  Every
search driver needs exactly that machinery -- multistart supervises
restarts, the portfolio driver supervises per-round representation
legs -- so this module hosts it once, generalized over *jobs*.

A job is addressed by an integer ``key`` (a seed or a leg key); the
runner calls a **module-level picklable function** ``fn``
with ``make_args(key, attempt, mode)`` positional arguments (e.g.
:func:`~repro.engine.multistart.run_job` with ``(job, attempt, mode)``
for both search drivers).
Results land in a ``key -> result`` dict and every
attempt, failure, and recovery is recorded in the per-key
:class:`~repro.engine.multistart.RunReport` ledger -- the same
supervision semantics, bit for bit, that the multistart robustness
suite locked in:

* a worker that raises keeps the pool alive and charges one attempt to
  that job alone;
* a worker that crashes takes the pool with it
  (:class:`~concurrent.futures.process.BrokenProcessPool` cannot name
  the culprit), so finished futures are harvested and every in-flight
  job is charged one attempt before the pool is rebuilt;
* a worker that hangs past ``timeout`` costs the pool too -- wedged
  processes are terminated, never waited on;
* after ``max_pool_rebuilds`` teardowns the runner reports
  ``degraded`` and the caller finishes the remaining jobs sequentially
  through the very same ``fn``.

Pool lifetime: a runner owns **one** :class:`ProcessPoolExecutor` for
its whole life.  It is created lazily by the first pool dispatch (so
building a runner forks nothing) and released by :meth:`close` -- or
by leaving a ``with`` block.  Every :meth:`run` call, from any number
of threads at once, shares that pool; a pool death retires it exactly
once, and ``max_pool_rebuilds`` counts retirements over the runner's
lifetime, not per call.

Determinism: the runner itself makes no random choices and jobs are
harvested in key order, so a sequential pass and a pool pass over the
same jobs produce identical results whenever ``fn`` is a pure function
of its arguments -- the property every driver's parity test asserts.
"""

from __future__ import annotations

import os
import random
import threading
import time
import weakref
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["SupervisedRunner"]


class _HeartbeatStalled(RuntimeError):
    """A pooled worker stopped touching its heartbeat file (internal:
    harvested like a timeout -- the pool is killed and rebuilt)."""


class SupervisedRunner:
    """Run keyed jobs under supervision, sequentially or on a pool.

    Parameters
    ----------
    fn:
        The module-level picklable callable every job runs.
    make_args:
        ``(key, attempt, mode) -> tuple`` of positional arguments for
        ``fn``; ``mode`` is ``"pool"`` or ``"sequential"`` so targeted
        fault injection can address one execution path.
    timeout:
        Wall-clock seconds a pooled job may take before it is deemed
        hung and the pool is killed.  ``None`` disables the watchdog.
    max_retries:
        Extra attempts a failed job gets before its report goes
        ``"failed"``.
    retry_backoff:
        Base of the exponential backoff slept before retry ``k``
        (``retry_backoff * 2**(k-1)`` seconds); 0 disables sleeping.
    retry_jitter:
        Fractional jitter on each backoff sleep: the delay is
        multiplied by ``1 + retry_jitter * u`` with ``u`` drawn from a
        runner-owned seeded RNG (``jitter_seed``), so a fleet of
        runners retrying the same incident fans out instead of
        thundering back in lockstep -- while any single runner remains
        fully deterministic.  0 (the default) keeps the historical
        exact-exponential behavior.
    jitter_seed:
        Seed of the jitter RNG (only consulted when
        ``retry_jitter > 0``).
    heartbeat_path:
        ``key -> path`` of the job's heartbeat file (or ``None`` for
        keys without one).  When set together with
        ``heartbeat_timeout``, the pool harvest polls instead of
        blocking: a *running* job whose heartbeat mtime goes stale past
        the limit is declared hung immediately -- minutes before a
        wall-clock ``timeout`` would fire, and without misfiring on a
        slow-but-alive job that keeps beating.  Jobs that beat forever
        but never finish are still bounded by ``timeout``.
    heartbeat_timeout:
        Seconds of heartbeat staleness that count as a hang.
    max_pool_rebuilds:
        Pool teardowns tolerated over the runner's lifetime before it
        latches ``degraded``.
    observer:
        Optional :class:`repro.obs.RunObserver`; every failure, pool
        rebuild and degradation is mirrored into it as a trace event
        and a metrics counter (``supervision_retries`` /
        ``pool_rebuilds`` / ``degraded``), so a crashed run's
        supervision history survives on disk.

    The runner owns one lazily created pool until :meth:`close` (use it
    as a context manager); ``pool_rebuilds`` and ``degraded`` are its
    lifetime totals.
    """

    def __init__(
        self,
        fn: Callable,
        make_args: Callable[[int, int, str], tuple],
        timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        retry_jitter: float = 0.0,
        jitter_seed: int = 0,
        heartbeat_path: Optional[Callable[[int], object]] = None,
        heartbeat_timeout: Optional[float] = None,
        heartbeat_poll: float = 0.05,
        max_pool_rebuilds: int = 2,
        observer=None,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        if retry_jitter < 0:
            raise ValueError(
                f"retry_jitter must be >= 0, got {retry_jitter}"
            )
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
            )
        if heartbeat_poll <= 0:
            raise ValueError(
                f"heartbeat_poll must be positive, got {heartbeat_poll}"
            )
        if max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}"
            )
        self.fn = fn
        self.make_args = make_args
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.retry_jitter = float(retry_jitter)
        self._jitter_rng = random.Random(jitter_seed)
        self.heartbeat_path = heartbeat_path
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_poll = float(heartbeat_poll)
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        self.observer = observer
        self.pool_rebuilds = 0
        self.degraded = False
        self._pool: Optional[ProcessPoolExecutor] = None
        # Pools killed for a hang: their other jobs retry without charge.
        self._hung_pools: "weakref.WeakSet[ProcessPoolExecutor]" = (
            weakref.WeakSet()
        )
        self._lock = threading.Lock()
        self._sequential_lock = threading.Lock()

    def _max_attempts(self) -> int:
        return 1 + self.max_retries

    def _note_failure(self, key: int, attempt: int, kind: str) -> None:
        """Mirror one failed attempt into the observer (if any)."""
        if self.observer is not None:
            self.observer.event(
                "supervision_retry", key=key, attempt=attempt, kind=kind
            )
            self.observer.metrics.count("supervision_retries")

    def _note_incident(self, name: str, counter: str, **attrs) -> None:
        """Mirror a pool rebuild / degradation into the observer."""
        if self.observer is not None:
            self.observer.event(name, **attrs)
            self.observer.metrics.count(counter)

    def _backoff(self, failed_attempts: int) -> None:
        if self.retry_backoff > 0 and failed_attempts > 0:
            delay = self.retry_backoff * (2.0 ** (failed_attempts - 1))
            if self.retry_jitter > 0:
                delay *= 1.0 + self.retry_jitter * self._jitter_rng.random()
            time.sleep(delay)

    def _wait_result(self, key: int, fut):
        """Harvest one future, heartbeat-aware when configured.

        Without heartbeats this is the historical blocking
        ``fut.result(timeout)``.  With them, it polls: the wall-clock
        ``timeout`` still bounds the whole wait (raises the standard
        futures ``TimeoutError``), but a future that is *running* while
        its job's heartbeat file goes stale past ``heartbeat_timeout``
        raises :class:`_HeartbeatStalled` right away.  A queued-not-yet
        -running future is never blamed (its heartbeat cannot exist
        yet); staleness for a running job with no file yet is measured
        from when we first saw it running.  The file's mtime is only
        trusted up to that running-since age: a heartbeat file left
        behind by a previous killed attempt is already stale when the
        retry starts, and must not condemn it before the new worker
        writes its first beat.
        """
        if self.heartbeat_timeout is None or self.heartbeat_path is None:
            return fut.result(timeout=self.timeout)
        deadline = (
            None if self.timeout is None
            else time.monotonic() + self.timeout
        )
        running_since: Optional[float] = None
        while True:
            try:
                return fut.result(timeout=self.heartbeat_poll)
            except _FuturesTimeout:
                pass
            if deadline is not None and time.monotonic() >= deadline:
                raise _FuturesTimeout()
            if not fut.running():
                running_since = None
                continue
            if running_since is None:
                running_since = time.monotonic()
            path = self.heartbeat_path(key)
            beat_age = time.monotonic() - running_since
            if path is not None:
                try:
                    mtime_age = time.time() - os.path.getmtime(path)
                except OSError:
                    pass
                else:
                    # min(): a beat written by *this* attempt refreshes
                    # the lease, but a stale file predating the attempt
                    # cannot age it past the attempt's own runtime.
                    beat_age = min(beat_age, mtime_age)
            if beat_age >= self.heartbeat_timeout:
                raise _HeartbeatStalled(
                    f"no heartbeat for {beat_age:.1f}s (limit "
                    f"{self.heartbeat_timeout}s); pool killed"
                )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting on wedged workers."""
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            if proc.is_alive():
                proc.terminate()
        for proc in processes:
            proc.join(timeout=5.0)

    # -- pool lifetime -------------------------------------------------

    def _acquire_pool(self, workers: int) -> ProcessPoolExecutor:
        """The live pool; the first pool dispatch creates it with
        ``workers`` processes and every later call shares it."""
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=workers)
            return self._pool

    def _retire(self, pool: ProcessPoolExecutor, hung: bool) -> int:
        """Kill ``pool`` if it is still the live one.  Returns 1 when
        this call retired it and 0 when another caller already had, so
        one pool death is one rebuild however many callers saw it.

        ``hung`` marks the pool as killed for a hang *before* its
        workers die: a caller whose future breaks with it then knows
        its own job was collateral and retries it without a charge.
        """
        with self._lock:
            if self._pool is not pool:
                return 0
            self._pool = None
            if hung:
                self._hung_pools.add(pool)
            self.pool_rebuilds += 1
            rebuilds = self.pool_rebuilds
        self._kill_pool(pool)
        self._note_incident(
            "pool_rebuild", "pool_rebuilds", rebuilds=rebuilds
        )
        return 1

    def _latch_degraded(self) -> bool:
        """Whether the runner is degraded; the first caller to find the
        rebuild budget spent latches it and records the incident."""
        with self._lock:
            if self.degraded or self.pool_rebuilds <= self.max_pool_rebuilds:
                return self.degraded
            self.degraded = True
        self._note_incident(
            "supervision_degraded", "degraded", rebuilds=self.pool_rebuilds
        )
        return True

    def close(self) -> None:
        """Release the pool, waiting for its workers to exit (a later
        pool dispatch would start a fresh one)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "SupervisedRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -----------------------------------------------------

    def run_pool(
        self,
        keys: Sequence[int],
        workers: int,
        reports: Dict[int, "RunReport"],
        results: Dict[int, object],
        control=None,
    ) -> Tuple[int, bool]:
        """Supervised pool execution.  Returns ``(rebuilds, degraded)``:
        the pool retirements this call performed, and whether the
        runner is degraded -- the caller should then finish the
        remaining keys with :meth:`run_sequential`.
        """
        rebuilds = 0
        while True:
            if control is not None and control.should_stop():
                break
            todo = [
                k
                for k in keys
                if k not in results
                and reports[k].attempts < self._max_attempts()
            ]
            if not todo:
                break
            if self._latch_degraded():
                return rebuilds, True
            pool = self._acquire_pool(workers)
            try:
                futures = {
                    k: pool.submit(
                        self.fn,
                        *self.make_args(k, reports[k].attempts, "pool"),
                    )
                    for k in todo
                }
            except (BrokenProcessPool, RuntimeError) as exc:
                # Another caller's job broke or retired the pool between
                # acquire and submit; none of ours ran, so none is
                # charged.
                if self._pool is pool and not isinstance(
                    exc, BrokenProcessPool
                ):
                    raise
                rebuilds += self._retire(pool, hung=False)
                continue
            for k in todo:
                if k in results:
                    continue
                try:
                    result = self._wait_result(k, futures[k])
                except (_FuturesTimeout, _HeartbeatStalled) as exc:
                    # Hung, by budget exhaustion or by liveness evidence:
                    # only this job is charged.  Wedged workers are
                    # terminated, never waited on; the jobs killed with
                    # them retry free.
                    reports[k].record_failure(
                        "timeout",
                        str(exc)
                        if isinstance(exc, _HeartbeatStalled)
                        else f"no result within {self.timeout}s; "
                        f"pool killed",
                    )
                    self._note_failure(k, reports[k].attempts, "timeout")
                    rebuilds += self._retire(pool, hung=True)
                    break
                except (BrokenProcessPool, CancelledError) as exc:
                    # The pool died.  Killed for another job's hang, our
                    # in-flight jobs were collateral and retry free.
                    # Otherwise a worker crashed and took the pool down,
                    # and the executor cannot name the culprit: harvest
                    # whatever did finish, then charge one attempt to
                    # every in-flight key.  The culprit among them
                    # advances past its faulting attempt; the innocents
                    # just retry.
                    collateral = pool in self._hung_pools
                    for t in todo:
                        if t in results:
                            continue
                        fut = futures[t]
                        harvested = False
                        if fut.done() and not fut.cancelled():
                            try:
                                results[t] = fut.result(timeout=0)
                            except Exception:
                                pass
                            else:
                                reports[t].status = "ok"
                                reports[t].mode = "pool"
                                reports[t].attempts += 1
                                harvested = True
                        if not harvested and not collateral:
                            reports[t].record_failure(
                                "crash",
                                f"worker process died with the pool: "
                                f"{exc}",
                            )
                            self._note_failure(
                                t, reports[t].attempts, "crash"
                            )
                    if not collateral:
                        rebuilds += self._retire(pool, hung=False)
                    break
                except Exception as exc:
                    # The worker survived and reported a real
                    # exception; the pool is still healthy.
                    reports[k].record_failure(
                        "error", f"{type(exc).__name__}: {exc}"
                    )
                    self._note_failure(k, reports[k].attempts, "error")
                    continue
                else:
                    results[k] = result
                    reports[k].status = "ok"
                    reports[k].mode = "pool"
                    reports[k].attempts += 1
            failed = max(
                (r.attempts for r in reports.values() if r.failures),
                default=0,
            )
            if any(
                k not in results
                and reports[k].attempts < self._max_attempts()
                for k in todo
            ):
                self._backoff(failed)
        return rebuilds, False

    def run_sequential(
        self,
        keys: Sequence[int],
        reports: Dict[int, "RunReport"],
        results: Dict[int, object],
        control=None,
    ) -> None:
        """In-process execution with the same retry accounting.

        ``control`` rides along as a keyword argument to ``fn`` (it
        holds a lock and cannot cross a process boundary); a stop
        request skips the keys that have not started yet.  Calls from
        several threads run one at a time: in-process runs share the
        caller's process, so they are serialised by a runner lock.
        """
        with self._sequential_lock:
            for k in keys:
                if k in results:
                    continue
                while (
                    k not in results
                    and reports[k].attempts < self._max_attempts()
                ):
                    if control is not None and control.should_stop():
                        if reports[k].status == "pending":
                            reports[k].status = "skipped"
                        return
                    self._backoff(len(reports[k].failures))
                    try:
                        results[k] = self.fn(
                            *self.make_args(
                                k, reports[k].attempts, "sequential"
                            ),
                            control=control,
                        )
                    except Exception as exc:
                        reports[k].record_failure(
                            "error", f"{type(exc).__name__}: {exc}"
                        )
                        self._note_failure(k, reports[k].attempts, "error")
                    else:
                        reports[k].status = "ok"
                        reports[k].mode = "sequential"
                        reports[k].attempts += 1

    def run(
        self,
        keys: Sequence[int],
        workers: int,
        reports: Dict[int, "RunReport"],
        results: Dict[int, object],
        control=None,
    ) -> Tuple[int, bool]:
        """Run every key to completion: pool first (when ``workers > 1``),
        sequential for the remainder or when degraded.  Safe to call
        from several threads at once; they share the runner's pool.

        Returns ``(pool_rebuilds, degraded)`` -- the pool retirements
        this call performed, and whether the runner is degraded.
        """
        rebuilds = 0
        degraded = False
        if workers > 1:
            rebuilds, degraded = self.run_pool(
                keys, workers, reports, results, control
            )
        if workers <= 1 or degraded:
            self.run_sequential(keys, reports, results, control)
        return rebuilds, degraded
