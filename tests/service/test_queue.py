"""JobQueue semantics: WAL-first mutations, scheduling, recovery.

The crash model throughout: "restart" means building a second JobQueue
on the same directory -- exactly what a killed server's replacement
does.  Nothing in-memory survives; everything asserted here is proven
out of the journal + snapshot alone.
"""

import pytest

from repro.errors import (
    JobNotFound,
    JobValidationError,
    QuotaExceeded,
    ServiceError,
)
from repro.service import JobQueue, JobSpec
from repro.service.journal import replay_journal
from repro.testing.faults import InjectedFault, journal_write_crash


def make_spec(fast_spec, **overrides):
    return JobSpec.from_json({**fast_spec, **overrides})


def test_submit_claim_complete_lifecycle(tmp_path, fast_spec):
    queue = JobQueue(tmp_path)
    job, created = queue.submit(make_spec(fast_spec))
    assert created and job.state == "queued" and job.job_id == "j000001"
    (claimed,) = queue.claim(4)
    assert claimed.job_id == job.job_id
    assert queue.get(job.job_id).state == "running"
    queue.complete(job.job_id, "abc123")
    final = queue.get(job.job_id)
    assert final.state == "done" and final.result_key == "abc123"


def test_claim_orders_by_priority_then_fifo(tmp_path, fast_spec):
    queue = JobQueue(tmp_path)
    low1, _ = queue.submit(make_spec(fast_spec, seed=1, priority=0))
    high, _ = queue.submit(make_spec(fast_spec, seed=2, priority=5))
    low2, _ = queue.submit(make_spec(fast_spec, seed=3, priority=0))
    order = [j.job_id for j in queue.claim(3)]
    assert order == [high.job_id, low1.job_id, low2.job_id]


def test_tenant_quota_bounds_active_jobs(tmp_path, fast_spec):
    queue = JobQueue(tmp_path, tenant_quota=2)
    queue.submit(make_spec(fast_spec, seed=1, tenant="acme"))
    queue.submit(make_spec(fast_spec, seed=2, tenant="acme"))
    with pytest.raises(QuotaExceeded, match="acme"):
        queue.submit(make_spec(fast_spec, seed=3, tenant="acme"))
    # Other tenants are unaffected; finished jobs free the quota.
    queue.submit(make_spec(fast_spec, seed=3, tenant="other"))
    queue.claim(1)
    done = next(j for j in queue.list_jobs("acme"))
    queue.complete(done.job_id, "k")
    queue.submit(make_spec(fast_spec, seed=4, tenant="acme"))


def test_idempotency_key_returns_original_job(tmp_path, fast_spec):
    queue = JobQueue(tmp_path)
    first, created = queue.submit(make_spec(fast_spec, idempotency_key="k1"))
    again, created2 = queue.submit(make_spec(fast_spec, idempotency_key="k1"))
    assert created and not created2
    assert again.job_id == first.job_id
    assert len(queue.jobs) == 1


def test_illegal_transition_refused_and_not_journaled(tmp_path, fast_spec):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(make_spec(fast_spec))
    with pytest.raises(ServiceError, match="cannot go"):
        queue.fail(job.job_id, "nope")  # queued jobs cannot fail
    with pytest.raises(JobNotFound):
        queue.get("j999999")
    # The refused transition left no journal record.
    records, _ = replay_journal(queue.journal_path)
    assert [r.op for r in records] == ["submit"]


def test_restart_replays_journal_and_requeues_running(tmp_path, fast_spec):
    queue = JobQueue(tmp_path)
    a, _ = queue.submit(make_spec(fast_spec, seed=1))
    b, _ = queue.submit(make_spec(fast_spec, seed=2, priority=3))
    queue.claim(1)  # b (higher priority) goes running
    queue.complete(b.job_id, "key-b")
    queue.claim(1)  # now a runs
    del queue

    # The server dies here; its replacement replays the same directory.
    revived = JobQueue(tmp_path)
    assert revived.get(b.job_id).state == "done"
    assert revived.get(b.job_id).result_key == "key-b"
    # a was mid-run: recovered to queued, so it runs again (and will
    # resume its checkpoint rather than restart).
    assert revived.get(a.job_id).state == "queued"
    assert revived.recovered_jobs == [a.job_id]
    # Job-id allocation continues, never reuses.
    c, _ = revived.submit(make_spec(fast_spec, seed=9))
    assert c.job_id == "j000003"


def test_restart_after_compaction(tmp_path, fast_spec):
    queue = JobQueue(tmp_path, compact_every=3)  # compacts mid-test
    ids = [queue.submit(make_spec(fast_spec, seed=s))[0].job_id for s in range(5)]
    revived = JobQueue(tmp_path)
    assert [j.job_id for j in revived.list_jobs()] == ids
    assert all(revived.get(i).state == "queued" for i in ids)


def test_journal_crash_leaves_memory_and_disk_consistent(tmp_path, fast_spec):
    """The injected torn append must be a perfect no-op end to end."""
    queue = JobQueue(tmp_path)
    queue.submit(make_spec(fast_spec, seed=1, idempotency_key="ka"))
    with journal_write_crash(at_append=1, partial_bytes=9) as state:
        with pytest.raises(InjectedFault):
            queue.submit(make_spec(fast_spec, seed=2, idempotency_key="kb"))
    assert state["fired"]
    # In memory: the failed submit never happened.
    assert len(queue.jobs) == 1
    # On disk: replay discards the torn tail and agrees.
    revived = JobQueue(tmp_path)
    assert len(revived.jobs) == 1
    assert revived.replay_discarded == 1
    # The client's retry (same idempotency key) now simply enqueues.
    job, created = revived.submit(
        make_spec(fast_spec, seed=2, idempotency_key="kb")
    )
    assert created and job.state == "queued"


def test_torn_tail_never_swallows_later_committed_records(
    tmp_path, fast_spec
):
    """Replay discards a torn tail -- and the load must also *remove*
    it (compact), or the next append glues onto the newline-less
    partial line and a second restart silently discards every committed
    record written after the tear."""
    queue = JobQueue(tmp_path)
    a, _ = queue.submit(make_spec(fast_spec, seed=1))
    # A crash mid-append: a partial record with no trailing newline.
    with queue.journal_path.open("ab") as fh:
        fh.write(b'{"seq":2,"op"')
    del queue

    revived = JobQueue(tmp_path)
    assert revived.replay_discarded == 1
    # Committed (fsynced, acknowledged) mutations after the restart...
    b, _ = revived.submit(make_spec(fast_spec, seed=2))
    revived.claim(1)
    del revived

    # ...must all survive the next restart.
    third = JobQueue(tmp_path)
    assert third.replay_discarded == 0
    assert set(third.jobs) == {a.job_id, b.job_id}
    assert third.recovered_jobs == [a.job_id]  # the claim was replayed


def test_cached_submit_births_job_done_atomically(tmp_path, fast_spec):
    """The content-cache short-circuit is a single submit record: the
    job is born ``done`` under the queue lock, so a dispatcher claiming
    concurrently can never race it into ``running``."""
    queue = JobQueue(tmp_path)
    job, created = queue.submit(
        make_spec(fast_spec), cached_result_key="stored-key"
    )
    assert created
    assert job.state == "done" and job.cached
    assert job.result_key == "stored-key"
    assert queue.claim(4) == []  # never claimable
    records, _ = replay_journal(queue.journal_path)
    assert [r.op for r in records] == ["submit"]  # one atomic record
    revived = JobQueue(tmp_path)
    final = revived.get(job.job_id)
    assert final.state == "done" and final.cached
    assert final.result_key == "stored-key"


def test_idempotent_resubmit_after_crash_returns_original_id(
    tmp_path, fast_spec
):
    """The submit record survived the crash even though the response
    was lost: the client's retry must resolve to the original job."""
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(make_spec(fast_spec, idempotency_key="retry-me"))
    original_id = job.job_id
    del queue  # crash before the response reached the client

    revived = JobQueue(tmp_path)
    again, created = revived.submit(
        make_spec(fast_spec, idempotency_key="retry-me")
    )
    assert not created and again.job_id == original_id
    assert len(revived.jobs) == 1


def test_replay_any_journal_prefix_is_a_consistent_queue(tmp_path, fast_spec):
    """Crash-anywhere property: rebuild the queue from every byte
    prefix of the journal; each must be a valid queue whose jobs are
    all in legal states with intact specs."""
    queue = JobQueue(tmp_path)
    a, _ = queue.submit(make_spec(fast_spec, seed=1, idempotency_key="ka"))
    b, _ = queue.submit(make_spec(fast_spec, seed=2, priority=2))
    queue.claim(2)
    queue.complete(b.job_id, "key-b")
    queue.requeue(a.job_id, "drain")
    raw = queue.journal_path.read_bytes()

    seen_states = set()
    for cut in range(len(raw) + 1):
        root = tmp_path / f"cut{cut}"
        root.mkdir()
        (root / "journal.jsonl").write_bytes(raw[:cut])
        replayed = JobQueue(root)
        for job in replayed.jobs.values():
            assert job.state in ("queued", "done")  # running was recovered
            assert job.spec.netlist_yal  # specs replay losslessly
            seen_states.add((job.job_id, job.state))
        # Submit still works on every prefix (sequence numbers stay
        # coherent past the torn tail).
        replayed.submit(make_spec(fast_spec, seed=99))
    # The sweep visited both the pre- and post-completion worlds.
    assert (b.job_id, "queued") in seen_states
    assert (b.job_id, "done") in seen_states


def test_every_job_finishes_exactly_once_across_crashes(tmp_path, fast_spec):
    """Exactly-once at the ledger level: complete each job once across
    a crash/replay boundary; the second completion attempt is refused."""
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(make_spec(fast_spec))
    queue.claim(1)
    queue.complete(job.job_id, "k")
    revived = JobQueue(tmp_path)
    assert revived.get(job.job_id).state == "done"
    with pytest.raises(ServiceError, match="cannot go"):
        revived.complete(job.job_id, "k2")


def test_compact_preserves_state_and_empties_journal(tmp_path, fast_spec):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(make_spec(fast_spec))
    queue.claim(1)
    queue.compact()
    assert replay_journal(queue.journal_path) == ([], 0)
    revived = JobQueue(tmp_path)
    # running -> queued recovery applies to snapshotted state too.
    assert revived.get(job.job_id).state == "queued"


@pytest.mark.parametrize("legacy_backend", [None, "numpy"])
def test_journal_with_legacy_backend_field_replays(
    tmp_path, fast_spec, legacy_backend
):
    """Journals written while JobSpec still had a ``backend`` field
    carry ``"backend": null`` in every submit record; they must still
    replay after the field's removal."""
    from repro.service.journal import JournalRecord, encode_record

    queue = JobQueue(tmp_path)
    job, _ = queue.submit(make_spec(fast_spec, idempotency_key="legacy"))
    path = queue.journal_path
    del queue
    records, discarded = replay_journal(path)
    assert discarded == 0 and [r.op for r in records] == ["submit"]
    data = records[0].data
    data["spec"]["backend"] = legacy_backend
    path.write_text(encode_record(JournalRecord(records[0].seq, "submit", data)))

    revived = JobQueue(tmp_path)
    assert revived.replay_discarded == 0
    replayed = revived.get(job.job_id)
    assert replayed.state == "queued"
    assert replayed.spec == job.spec
    assert replayed.spec.content_hash() == job.spec.content_hash()
    again, created = revived.submit(
        make_spec(fast_spec, idempotency_key="legacy")
    )
    assert not created and again.job_id == job.job_id


def test_legacy_backend_field_other_than_numpy_is_refused(fast_spec):
    for name in ("python", "cuda"):
        with pytest.raises(JobValidationError, match="backend"):
            make_spec(fast_spec, backend=name)


def test_claim_journals_started_at(tmp_path, fast_spec):
    """The claim stamps ``started_at`` so a client can split latency
    into queue wait and run time; the stamp survives a restart."""
    ticks = iter([10.0, 12.5, 20.0])
    queue = JobQueue(tmp_path, now=lambda: next(ticks))
    job, _ = queue.submit(make_spec(fast_spec))
    assert job.status_json()["started_at"] is None
    queue.claim(1)
    queue.complete(job.job_id, "k")
    status = queue.get(job.job_id).status_json()
    assert (status["submitted_at"], status["started_at"]) == (10.0, 12.5)
    assert status["finished_at"] == 20.0
    revived = JobQueue(tmp_path)
    assert revived.get(job.job_id).started_at == 12.5


def test_records_without_started_at_replay(tmp_path, fast_spec):
    """Snapshots and journals written before ``started_at`` existed
    carry no such field anywhere; they must still replay."""
    from repro.service.journal import (
        JournalRecord,
        encode_record,
        load_snapshot,
        write_snapshot,
    )

    queue = JobQueue(tmp_path)
    old, _ = queue.submit(make_spec(fast_spec, seed=1))
    queue.claim(1)
    queue.complete(old.job_id, "k")
    queue.compact()  # `old` now lives in the snapshot
    new, _ = queue.submit(make_spec(fast_spec, seed=2))
    queue.claim(1)  # ... and `new` in the journal, running
    del queue

    applied_seq, state = load_snapshot(tmp_path / "snapshot.json")
    for job_data in state["jobs"]:
        del job_data["started_at"]
    write_snapshot(
        tmp_path / "snapshot.json", applied_seq=applied_seq, payload=state
    )
    records, _ = replay_journal(tmp_path / "journal.jsonl")
    assert [r.op for r in records] == ["submit", "transition"]
    del records[0].data["started_at"]
    del records[1].data["started_at"]
    (tmp_path / "journal.jsonl").write_text(
        "".join(encode_record(r) for r in records)
    )

    revived = JobQueue(tmp_path)
    assert revived.replay_discarded == 0
    assert revived.get(old.job_id).state == "done"
    assert revived.get(old.job_id).started_at is None
    assert revived.get(new.job_id).state == "queued"  # recovered
    assert revived.get(new.job_id).started_at is None
