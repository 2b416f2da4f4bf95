"""Floorplanning-as-a-service: crash-safe queue, supervised fleet, HTTP API.

The service layer (PR 10) turns the engine into a long-running
multi-tenant job server without adding a single dependency:

* :mod:`repro.service.jobs` -- job specs, content hashing, the state
  machine;
* :mod:`repro.service.journal` -- the checksummed append-only WAL and
  compacted snapshots every queue mutation survives crashes through;
* :mod:`repro.service.queue` -- the priority/quota/idempotency queue
  built on that journal;
* :mod:`repro.service.store` -- the content-addressed result store
  (identical submissions short-circuit to a stored answer);
* :mod:`repro.service.worker` -- the picklable per-job run function:
  checkpoint-resume, heartbeats, drain awareness;
* :mod:`repro.service.fleet` -- the supervised worker fleet: slot
  threads feeding one long-lived process pool (retries, pool rebuilds,
  graceful degradation to sequential);
* :mod:`repro.service.server` -- the stdlib asyncio HTTP front end and
  drain-on-SIGTERM lifecycle;
* :mod:`repro.service.client` -- the programmatic client with safe
  retries.

See DESIGN.md section 15 for the architecture and the journal format.
"""

from repro.service.client import ServiceClient, ServiceClientError
from repro.service.fleet import ServiceFleet
from repro.service.jobs import JOB_STATES, VALID_TRANSITIONS, Job, JobSpec
from repro.service.journal import (
    JournalRecord,
    append_record,
    replay_journal,
    load_snapshot,
    write_snapshot,
)
from repro.service.queue import JobQueue
from repro.service.server import (
    FloorplanService,
    ServiceServer,
    ServiceThread,
    serve,
)
from repro.service.store import ResultStore
from repro.service.worker import (
    JobOutcome,
    JobPayload,
    ServiceRunControl,
    result_payload,
    run_service_job,
)

__all__ = [
    "JOB_STATES",
    "VALID_TRANSITIONS",
    "Job",
    "JobSpec",
    "JournalRecord",
    "append_record",
    "replay_journal",
    "load_snapshot",
    "write_snapshot",
    "JobQueue",
    "ResultStore",
    "JobOutcome",
    "JobPayload",
    "ServiceRunControl",
    "result_payload",
    "run_service_job",
    "ServiceFleet",
    "FloorplanService",
    "ServiceServer",
    "ServiceThread",
    "serve",
    "ServiceClient",
    "ServiceClientError",
]
