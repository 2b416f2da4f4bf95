"""ServiceFleet end-to-end: supervised execution, faults, drains.

The load-bearing assertion in this file is *bit-identity*: a job whose
worker is killed mid-run and resumed from its checkpoint must file a
result payload `==` to the payload of an uninterrupted direct
:class:`~repro.engine.engine.AnnealEngine` run of the same spec.  That
equality is what makes the service's exactly-once result promise sound
on top of at-least-once execution.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine.engine import AnnealEngine
from repro.obs import MetricsRegistry
from repro.service import (
    JobQueue,
    JobSpec,
    ResultStore,
    ServiceFleet,
    result_payload,
)
from repro.testing.faults import FaultSpec


def direct_result(spec: JobSpec) -> dict:
    """What an uninterrupted in-process run of ``spec`` produces."""
    engine = AnnealEngine(
        spec.build_netlist(),
        representation=spec.representation,
        objective_spec=spec.objective_spec(),
        seed=spec.seed,
        moves_per_temperature=spec.moves_per_temperature,
        schedule=spec.schedule(),
    )
    return result_payload(engine.run(), spec)


def make_fleet(tmp_path, faults=None, **kwargs):
    queue = JobQueue(tmp_path / "queue")
    store = ResultStore(tmp_path / "results")
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("poll_interval", 0.02)
    fleet = ServiceFleet(
        queue, store, tmp_path / "work", faults=faults, **kwargs
    )
    return queue, store, fleet


@pytest.fixture
def pools_built(monkeypatch):
    """Every ProcessPoolExecutor the supervisor builds, in order."""
    import repro.engine.supervise as supervise

    built = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(supervise, "ProcessPoolExecutor", CountingPool)
    return built


def wait_for_state(queue, job_id, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if queue.get(job_id).state == state:
            return True
        time.sleep(0.02)
    return False


def test_jobs_complete_end_to_end(tmp_path, fast_spec):
    metrics = MetricsRegistry()
    queue, store, fleet = make_fleet(tmp_path, metrics=metrics)
    specs = [JobSpec.from_json({**fast_spec, "seed": s}) for s in (1, 2, 3)]
    jobs = [queue.submit(spec)[0] for spec in specs]
    fleet.start()
    try:
        assert fleet.wait_idle(timeout=120)
    finally:
        fleet.drain(timeout=30)
    for job, spec in zip(jobs, specs):
        final = queue.get(job.job_id)
        assert final.state == "done", final.error
        stored = store.get(final.result_key)
        assert stored == direct_result(spec)
    assert metrics.snapshot()["counters"]["service_jobs_done"] == 3


def test_killed_worker_resumes_bit_identical(tmp_path, fast_spec):
    """Kill the pool worker at temperature step 4 of attempt 0; the
    retry must resume the checkpoint and deliver the exact payload an
    uninterrupted run delivers, with the crash on the blame ledger."""
    spec = JobSpec.from_json({**fast_spec, "max_steps": 12})
    queue, store, fleet = make_fleet(
        tmp_path,
        faults={
            "j000001": FaultSpec(
                kind="crash", attempt=0, mode="pool", at_step=4
            )
        },
    )
    job, _ = queue.submit(spec)
    fleet.start()
    try:
        assert fleet.wait_idle(timeout=120)
    finally:
        fleet.drain(timeout=30)
    final = queue.get(job.job_id)
    assert final.state == "done", final.error
    assert store.get(final.result_key) == direct_result(spec)
    # The supervision ledger names the crash and charged it one try.
    kinds = [f["kind"] for f in final.report["failures"]]
    assert kinds == ["crash"]
    assert final.report["attempts"] == 2  # the kill + the resume


def test_drain_requeues_and_restart_finishes_exactly_once(
    tmp_path, fast_spec
):
    """SIGTERM story at fleet level: drain mid-run checkpoints the job
    and requeues it; a fresh fleet on the same directories resumes it
    to the same answer as an uninterrupted run."""
    spec = JobSpec.from_json(
        {**fast_spec, "max_steps": 400, "moves_per_temperature": 200}
    )
    queue, store, fleet = make_fleet(tmp_path, workers=1)
    job, _ = queue.submit(spec)
    fleet.start()
    assert wait_for_state(queue, job.job_id, "running")
    time.sleep(0.3)  # let it write a few checkpoints first
    fleet.drain(timeout=30)
    requeued = queue.get(job.job_id)
    assert requeued.state == "queued"
    assert "stopped" in requeued.error or "drain" in requeued.error

    # The replacement server: same queue/store/work directories.
    queue2 = JobQueue(tmp_path / "queue")
    fleet2 = ServiceFleet(
        queue2, store, tmp_path / "work", workers=1, poll_interval=0.02
    )
    fleet2.start()
    try:
        assert fleet2.wait_idle(timeout=180)
    finally:
        fleet2.drain(timeout=30)
    final = queue2.get(job.job_id)
    assert final.state == "done", final.error
    assert store.get(final.result_key) == direct_result(spec)


def test_deadline_delivers_partial_under_job_key(tmp_path, fast_spec):
    """A deadline stop is a *successful* outcome: best-so-far goes done
    under the per-job key, never under the content hash."""
    spec = JobSpec.from_json(
        {
            **fast_spec,
            "max_steps": 100000,
            "moves_per_temperature": 200,
            "deadline_seconds": 0.3,
        }
    )
    queue, store, fleet = make_fleet(tmp_path, workers=1)
    job, _ = queue.submit(spec)
    fleet.start()
    try:
        assert fleet.wait_idle(timeout=120)
    finally:
        fleet.drain(timeout=30)
    final = queue.get(job.job_id)
    assert final.state == "done", final.error
    assert final.result_key == f"job-{job.job_id}"
    partial = store.get(final.result_key)
    assert partial["completed"] is False
    assert partial["stop_reason"] == "deadline"
    assert partial["placements"]  # best-so-far is a real floorplan
    assert not store.has(spec.content_hash())  # never the canonical key


def test_settle_tolerates_one_raced_job(tmp_path, fast_spec):
    """One job raced to a terminal state by someone else must not
    abort the settling of the next -- a finished result would otherwise
    be discarded and fully re-run."""
    from repro.engine.multistart import RunReport
    from repro.service.worker import JobOutcome

    queue, store, fleet = make_fleet(tmp_path)
    a, _ = queue.submit(JobSpec.from_json({**fast_spec, "seed": 31}))
    b, _ = queue.submit(JobSpec.from_json({**fast_spec, "seed": 32}))
    claimed = queue.claim(2)
    assert [j.job_id for j in claimed] == [a.job_id, b.job_id]
    # The race: a third party completes `a` while its worker runs.
    queue.complete(a.job_id, "raced-key")

    def canned_run(job):
        outcome = JobOutcome(
            job_id=job.job_id,
            completed=True,
            stop_reason=None,
            resumed=False,
            checkpoints_written=0,
            result={"payload": job.job_id},
        )
        return outcome, RunReport(seed=job.spec.seed, label=job.job_id)

    fleet._run = canned_run
    for job in claimed:  # each slot settles its own job
        fleet._dispatch(job)
    # `a` stays as the race left it; `b`'s result still landed.
    assert queue.get(a.job_id).result_key == "raced-key"
    final_b = queue.get(b.job_id)
    assert final_b.state == "done"
    assert store.get(final_b.result_key) == {"payload": b.job_id}


def test_exhausted_retries_fail_with_blame(tmp_path, fast_spec):
    """A job whose spec cannot build raises on every attempt; the job
    fails with the supervision ledger naming each raise."""
    spec = JobSpec.from_json({**fast_spec, "netlist_yal": "not yal"})
    metrics = MetricsRegistry()
    queue, store, fleet = make_fleet(
        tmp_path, workers=1, max_retries=1, retry_backoff=0.01,
        metrics=metrics,
    )
    job, _ = queue.submit(spec)
    fleet.start()
    try:
        assert fleet.wait_idle(timeout=120)
    finally:
        fleet.drain(timeout=30)
    final = queue.get(job.job_id)
    assert final.state == "failed"
    assert "does not parse" in final.error
    kinds = [f["kind"] for f in final.report["failures"]]
    assert kinds == ["error", "error"]  # initial try + 1 retry
    assert metrics.snapshot()["counters"]["service_jobs_failed"] == 1


def test_degraded_fleet_latches_sequential_and_still_finishes(
    tmp_path, fast_spec
):
    """With zero pool rebuilds allowed, one worker kill degrades the
    fleet to sequential execution -- permanently -- and the job still
    completes bit-identically via the in-process path."""
    spec = JobSpec.from_json({**fast_spec, "max_steps": 12})
    metrics = MetricsRegistry()
    queue, store, fleet = make_fleet(
        tmp_path,
        workers=2,
        max_pool_rebuilds=0,
        metrics=metrics,
        faults={
            "j000001": FaultSpec(
                kind="crash", attempt=0, mode="pool", at_step=3
            )
        },
    )
    job, _ = queue.submit(spec)
    fleet.start()
    try:
        assert fleet.wait_idle(timeout=120)
    finally:
        fleet.drain(timeout=30)
    assert fleet.sequential_only  # the latch stuck
    final = queue.get(job.job_id)
    assert final.state == "done", final.error
    assert store.get(final.result_key) == direct_result(spec)
    counters = metrics.snapshot()["counters"]
    assert counters["service_degraded"] == 1


def test_one_pool_serves_every_job_and_drain_reaps_it(
    tmp_path, fast_spec, pools_built
):
    """Jobs share one long-lived pool instead of forking one per
    dispatch, and the drain leaves no worker process behind."""
    queue, store, fleet = make_fleet(tmp_path, workers=2)
    jobs = [
        queue.submit(JobSpec.from_json({**fast_spec, "seed": s}))[0]
        for s in range(1, 6)
    ]
    fleet.start()
    try:
        assert fleet.wait_idle(timeout=120)
    finally:
        fleet.drain(timeout=30)
    assert [queue.get(j.job_id).state for j in jobs] == ["done"] * 5
    assert len(pools_built) == 1
    assert multiprocessing.active_children() == []


def test_short_jobs_overtake_a_long_one(tmp_path, fast_spec):
    """No batch barrier: while one slot runs a long job, the other
    keeps claiming and finishing short ones."""
    long_spec = JobSpec.from_json(
        {**fast_spec, "max_steps": 400, "moves_per_temperature": 200}
    )
    queue, store, fleet = make_fleet(tmp_path, workers=2)
    long_job, _ = queue.submit(long_spec)
    shorts = [
        queue.submit(JobSpec.from_json({**fast_spec, "seed": s}))[0]
        for s in (2, 3, 4)
    ]
    fleet.start()
    try:
        for job in shorts:
            assert wait_for_state(queue, job.job_id, "done", timeout=120)
        assert queue.get(long_job.job_id).state == "running"
    finally:
        fleet.drain(timeout=30)


def test_hang_charges_only_the_hung_job(tmp_path, fast_spec, pools_built):
    """A hung worker costs the shared pool once; the hung job alone is
    charged, and its pool-mate (killed along with it, or not) finishes
    with a clean ledger and the uninterrupted run's exact result."""
    mate_spec = JobSpec.from_json(
        {
            **fast_spec,
            "seed": 42,
            "max_steps": 400,
            "moves_per_temperature": 100,
        }
    )
    queue, store, fleet = make_fleet(
        tmp_path,
        workers=2,
        heartbeat_timeout=2.0,
        faults={"j000001": FaultSpec(kind="hang", attempt=0, mode="pool")},
    )
    hung, _ = queue.submit(JobSpec.from_json({**fast_spec, "seed": 41}))
    fleet.start()
    try:
        assert wait_for_state(queue, hung.job_id, "running")
        mate, _ = queue.submit(mate_spec)
        assert fleet.wait_idle(timeout=120)
    finally:
        fleet.drain(timeout=30)
    final_hung = queue.get(hung.job_id)
    final_mate = queue.get(mate.job_id)
    assert final_hung.state == "done", final_hung.error
    assert [f["kind"] for f in final_hung.report["failures"]] == ["timeout"]
    assert final_mate.state == "done", final_mate.error
    assert final_mate.report["failures"] == []
    assert store.get(final_mate.result_key) == direct_result(mate_spec)
    assert fleet.pool_rebuilds == 1
    assert len(pools_built) == 2  # the first pool and its one rebuild
