#!/usr/bin/env python
"""Benchmark the floorplanning service's end-to-end delivery path.

Three measurements over a live server (real sockets, real journal,
real worker pool) per worker count (1/2/4):

* **throughput** -- jobs per minute for a batch of distinct jobs
  submitted at once through the HTTP client;
* **latency** -- p50/p95 of submit-to-result wall time per job;
* **cache-hit latency** -- the same content resubmitted under a fresh
  idempotency key: the service must answer from the content-addressed
  store in milliseconds without a worker ever seeing the job.

Plus the **journal overhead**: microseconds per fsynced append on the
submit path and the cost of replaying the full journal at startup --
the price of crash-safety, measured rather than guessed.

The pass/fail gates are structural, never wall-clock:

* every job's stored result is **bit-identical** to a direct
  uninterrupted :class:`~repro.engine.engine.AnnealEngine` run of the
  same spec, at every worker count (``results_agree``);
* every cache hit returns exactly the first run's payload;
* a fresh :class:`~repro.service.queue.JobQueue` replaying the
  benchmark's journal reconstructs every job.

A leg with more workers than this process may use CPUs is labelled
``"oversubscribed": true``: its throughput measures time-slicing, not
the fleet.

Results go to ``BENCH_service.json`` (see ``--out``)::

    {"nproc": 2,
     "legs": [{"workers": 1, "oversubscribed": false,
               "jobs_per_minute": ..., "p50_seconds": ...,
               "p95_seconds": ..., "cache_hit_seconds": ...}, ...],
     "journal": {"append_us": ..., "replay_seconds": ..., "n_records": ...},
     "results_agree": true}
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data import dumps_yal  # noqa: E402
from repro.engine.engine import AnnealEngine  # noqa: E402
from repro.ioutil import atomic_write_json  # noqa: E402
from repro.netlist import random_circuit  # noqa: E402
from repro.service import (  # noqa: E402
    FloorplanService,
    JobQueue,
    JobSpec,
    ServiceClient,
    ServiceThread,
    result_payload,
)


def make_specs(n_jobs: int, smoke: bool) -> list[dict]:
    yal = dumps_yal(random_circuit(8 if smoke else 12, 16, seed=5))
    return [
        {
            "netlist_yal": yal,
            "seed": 50 + i,
            "max_steps": 10 if smoke else 40,
            "moves_per_temperature": 20 if smoke else 60,
            "checkpoint_every": 5,
        }
        for i in range(n_jobs)
    ]


def direct_result(spec_json: dict) -> dict:
    spec = JobSpec.from_json(spec_json)
    engine = AnnealEngine(
        spec.build_netlist(),
        representation=spec.representation,
        objective_spec=spec.objective_spec(),
        seed=spec.seed,
        moves_per_temperature=spec.moves_per_temperature,
        schedule=spec.schedule(),
    )
    return result_payload(engine.run(), spec)


def percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def bench_leg(workers: int, specs: list[dict], expected: list[dict]):
    root = Path(tempfile.mkdtemp(prefix=f"bench-service-{workers}w-"))
    service = FloorplanService(root, workers=workers)
    thread = ServiceThread(service).start()
    client = ServiceClient(port=thread.port)
    agree = True
    try:
        submitted_at = {}
        batch_started = time.perf_counter()
        job_ids = []
        for spec in specs:
            job_id = client.submit(spec)["job_id"]
            submitted_at[job_id] = time.perf_counter()
            job_ids.append(job_id)
        latencies = []
        for job_id, want in zip(job_ids, expected):
            got = client.wait(job_id, timeout=600)
            latencies.append(time.perf_counter() - submitted_at[job_id])
            agree = agree and got == want
        elapsed = time.perf_counter() - batch_started

        # Cache hit: same content, fresh idempotency key, no worker.
        cache_started = time.perf_counter()
        hit = client.submit({**specs[0], "idempotency_key": "cache-probe"})
        cached = client.result(hit["job_id"])
        cache_seconds = time.perf_counter() - cache_started
        agree = agree and hit["cached"] and cached == expected[0]
    finally:
        thread.stop(drain=True)
    latencies.sort()
    return {
        "workers": workers,
        "oversubscribed": workers > nproc(),
        "n_jobs": len(specs),
        "jobs_per_minute": round(len(specs) / elapsed * 60.0, 2),
        "p50_seconds": round(percentile(latencies, 0.50), 4),
        "p95_seconds": round(percentile(latencies, 0.95), 4),
        "cache_hit_seconds": round(cache_seconds, 4),
    }, agree


def bench_journal(specs: list[dict]):
    """The WAL's price: per-append cost and startup replay cost."""
    root = Path(tempfile.mkdtemp(prefix="bench-service-journal-"))
    queue = JobQueue(root, compact_every=10**9)  # never compact mid-bench
    parsed = [JobSpec.from_json(s) for s in specs]
    started = time.perf_counter()
    for spec in parsed:
        queue.submit(spec)
    append_seconds = time.perf_counter() - started
    n_records = len(parsed)

    started = time.perf_counter()
    revived = JobQueue(root)
    replay_seconds = time.perf_counter() - started
    ok = len(revived.jobs) == n_records
    return {
        "n_records": n_records,
        "append_us": round(append_seconds / n_records * 1e6, 1),
        "replay_seconds": round(replay_seconds, 4),
        "journal_bytes": (root / "journal.jsonl").stat().st_size,
    }, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced schedule for CI (tiny jobs, 2 legs)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, help="jobs per leg"
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    worker_counts = (1, 2) if args.smoke else (1, 2, 4)
    n_jobs = args.jobs or (4 if args.smoke else 12)
    specs = make_specs(n_jobs, args.smoke)
    print(f"direct runs ({n_jobs} jobs) ...", flush=True)
    expected = [direct_result(spec) for spec in specs]

    legs, failures = [], []
    for workers in worker_counts:
        print(f"leg: {workers} worker(s), {n_jobs} jobs ...", flush=True)
        leg, agree = bench_leg(workers, specs, expected)
        legs.append(leg)
        if not agree:
            failures.append(f"{workers}-worker leg diverged from direct runs")
        print(
            f"  {leg['jobs_per_minute']} jobs/min"
            f"{' (oversubscribed)' if leg['oversubscribed'] else ''}, "
            f"p50 {leg['p50_seconds']}s, p95 {leg['p95_seconds']}s, "
            f"cache hit {leg['cache_hit_seconds']}s"
        )

    journal, journal_ok = bench_journal(make_specs(50, smoke=True))
    if not journal_ok:
        failures.append("journal replay lost records")
    print(
        f"journal: {journal['append_us']}us/append, "
        f"replay of {journal['n_records']} records in "
        f"{journal['replay_seconds']}s"
    )

    report = {
        "nproc": nproc(),
        "legs": legs,
        "journal": journal,
        "results_agree": not failures,
        "failures": failures,
    }
    out = args.out or (
        Path(__file__).resolve().parent.parent / "BENCH_service.json"
    )
    atomic_write_json(out, report)
    print(f"wrote {out}")
    if failures:
        print("FAILURES:", *failures, sep="\n  ")
        return 1
    print("service benchmark ok: all legs bit-identical to direct runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
