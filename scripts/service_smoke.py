#!/usr/bin/env python
"""Floorplanning-service smoke test (CI): faults, SIGTERM, identity.

The full service story on one small machine, end to end:

1. start a service (2 pool workers) on a fresh root and submit **8
   jobs with mixed priorities across 2 tenants**, cycling through
   every representation (polish, sp, btree), through the HTTP
   client -- one of them armed with a deterministic worker **kill**
   (``os._exit`` at a chosen temperature step, via
   :class:`repro.testing.faults.FaultSpec`);
2. deliver a real **SIGTERM** mid-run; the handler drains the
   service -- running jobs checkpoint and requeue, the journal
   compacts, readiness goes 503 -- and the process would exit cleanly;
3. **restart** a brand-new service on the same root (the journal
   replays; requeued jobs resume their checkpoints) and wait for every
   job to finish;
4. assert all 8 results are **bit-identical** to direct, uninterrupted
   :class:`~repro.engine.engine.AnnealEngine` runs of the same specs --
   the kill, the drain, and the restart must leave no trace in any
   answer;
5. validate the ``/metrics`` snapshot shape and each job's supervision
   report.

Exits non-zero on any violation.  ``--out`` writes a JSON summary
atomically.  Gates are structural (states, identity, report kinds) --
never wall-clock.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data import dumps_yal  # noqa: E402
from repro.engine.engine import AnnealEngine  # noqa: E402
from repro.ioutil import atomic_write_json  # noqa: E402
from repro.netlist import random_circuit  # noqa: E402
from repro.service import (  # noqa: E402
    FloorplanService,
    JobSpec,
    ServiceClient,
    ServiceThread,
    result_payload,
)
from repro.testing.faults import FaultSpec  # noqa: E402

N_JOBS = 8
REPRESENTATIONS = ("polish", "sp", "btree")
KILLED_JOB = "j000003"  # submission order is deterministic


def make_specs() -> list[dict]:
    """8 specs: two tenants, priorities 0/3/7, representations cycling
    polish/sp/btree, distinct seeds (distinct content -- no accidental
    cache hits), two heavier jobs so the SIGTERM lands while something
    is genuinely running."""
    yal = dumps_yal(random_circuit(6, 8, seed=3))
    # Priorities chosen so the killed job (index 2) lands in the first
    # claimed batch and the two heavier jobs run in later batches --
    # the SIGTERM then interrupts heavy work *after* the crash/retry
    # story has fully played out (its report must survive to the end).
    priorities = [0, 3, 7, 7, 3, 3, 0, 0]
    specs = []
    for i in range(N_JOBS):
        heavier = i in (4, 5)
        specs.append(
            {
                "netlist_yal": yal,
                "representation": REPRESENTATIONS[i % len(REPRESENTATIONS)],
                "seed": 100 + i,
                "max_steps": 300 if heavier else 12,
                "moves_per_temperature": 150 if heavier else 20,
                "checkpoint_every": 1,
                "priority": priorities[i],
                "tenant": ("acme", "zenith")[i % 2],
                "idempotency_key": f"smoke-{i}",
            }
        )
    return specs


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


def check_metrics_shape(
    snapshot: dict, counter: str, minimum: int, failures: list[str]
) -> None:
    for section in ("counters", "gauges", "histograms"):
        if section not in snapshot:
            failures.append(f"metrics snapshot missing {section!r}")
    observed = snapshot.get("counters", {}).get(counter, 0)
    if observed < minimum:
        failures.append(
            f"metrics counter {counter} = {observed}, wanted >= {minimum}"
        )


def run_smoke(root: Path, out: Path | None) -> int:
    failures: list[str] = []
    specs = make_specs()

    # -- phase 1: serve, kill a worker, SIGTERM mid-run ---------------
    term = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda *_: term.set())
    service = FloorplanService(root, workers=2, heartbeat_timeout=30.0)
    service.fleet.faults[KILLED_JOB] = FaultSpec(
        kind="crash", attempt=0, mode="pool", at_step=3
    )
    thread = ServiceThread(service).start()
    client = ServiceClient(port=thread.port)

    job_ids = [client.submit(spec)["job_id"] for spec in specs]
    if job_ids[2] != KILLED_JOB:
        failures.append(f"expected third job {KILLED_JOB}, got {job_ids[2]}")

    # Let the crash/retry story finish and the fleet get into heavier
    # work, then terminate ourselves mid-run.
    heavy_ids = [job_ids[4], job_ids[5]]
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        killed_done = client.status(KILLED_JOB)["state"] == "done"
        heavy_running = any(
            client.status(j)["state"] == "running" for j in heavy_ids
        )
        if killed_done and heavy_running:
            break
        time.sleep(0.05)
    else:
        failures.append("never saw killed job done + a heavy job running")
    check_metrics_shape(
        client.metrics(), "service_jobs_submitted", N_JOBS, failures
    )
    os.kill(os.getpid(), signal.SIGTERM)
    if not term.wait(timeout=10):
        failures.append("SIGTERM handler never fired")
    signal.signal(signal.SIGTERM, previous)
    service.drain()  # what `floorplan serve`'s signal path does
    ready, ready_payload = client.readyz()
    if ready or not ready_payload.get("draining"):
        failures.append(f"readyz should be 503/draining, got {ready_payload}")
    thread.stop(drain=False)
    interrupted = [
        j
        for j in job_ids
        if service.queue.get(j).state in ("queued", "running")
    ]
    print(f"phase 1: drained with {len(interrupted)} job(s) interrupted")

    # -- phase 2: restart on the same root, finish everything ---------
    service2 = FloorplanService(root, workers=2, heartbeat_timeout=30.0)
    recovered = list(service2.queue.recovered_jobs)
    thread2 = ServiceThread(service2).start()
    client2 = ServiceClient(port=thread2.port)
    results = {}
    try:
        for job_id in job_ids:
            results[job_id] = client2.wait(job_id, timeout=300)
    except Exception as exc:
        failures.append(f"job did not finish after restart: {exc}")
    check_metrics_shape(client2.metrics(), "service_jobs_done", 1, failures)
    thread2.stop(drain=True)

    # -- identity + report gates --------------------------------------
    killed_report = service2.queue.get(KILLED_JOB).report or {}
    kinds = [f["kind"] for f in killed_report.get("failures", [])]
    if "crash" not in kinds:
        failures.append(
            f"killed job's report never recorded the crash: {kinds}"
        )
    agree = 0
    for job_id, spec in zip(job_ids, specs):
        if job_id not in results:
            continue
        expected = direct_result(spec)
        if results[job_id] == expected:
            agree += 1
        else:
            failures.append(
                f"{job_id}: service result differs from direct engine run"
            )
    results_agree = agree == N_JOBS

    report = {
        "ok": not failures,
        "failures": failures,
        "n_jobs": N_JOBS,
        "killed_job": KILLED_JOB,
        "crash_kinds": kinds,
        "interrupted_by_sigterm": interrupted,
        "recovered_on_restart": recovered,
        "results_agree": results_agree,
    }
    if out is not None:
        atomic_write_json(out, report)
    print(
        f"phase 2: {agree}/{N_JOBS} results bit-identical to direct runs; "
        f"recovered on restart: {recovered or 'none'}"
    )
    if failures:
        print("FAILURES:", *failures, sep="\n  ")
        return 1
    print("service smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="service root directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write a JSON summary here"
    )
    args = parser.parse_args(argv)
    root = args.root or Path(tempfile.mkdtemp(prefix="service-smoke-"))
    return run_smoke(root, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
