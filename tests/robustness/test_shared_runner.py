"""One SupervisedRunner shared by many threads, as the service fleet's
slots share it: one pool death is one rebuild however many callers
see it, and a crash charges each in-flight job exactly once."""

import os
import sys
import threading
import time

from repro.engine.multistart import RunReport
from repro.engine.supervise import SupervisedRunner

N_KEYS = 8
N_THREADS = 4  # more callers than the pool (and this host) has workers


def _job(key, attempt, mode):
    if key == 0 and attempt == 0:
        time.sleep(0.2)  # let the other callers' jobs get in flight
        os._exit(13)
    time.sleep(0.05)
    return key * 10


def test_threads_sharing_a_runner_see_one_rebuild_per_pool_death():
    reports = {k: RunReport(seed=k) for k in range(N_KEYS)}
    results = {}
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SupervisedRunner(
            fn=_job,
            make_args=lambda k, attempt, mode: (k, attempt, mode),
            max_retries=2,
            retry_backoff=0.0,
        ) as runner:

            def slot(keys):
                for k in keys:
                    runner.run([k], 2, {k: reports[k]}, results)

            threads = [
                threading.Thread(
                    target=slot, args=(range(i, N_KEYS, N_THREADS),)
                )
                for i in range(N_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert runner.pool_rebuilds == 1
            assert not runner.degraded
    finally:
        sys.setswitchinterval(previous)
    assert results == {k: k * 10 for k in range(N_KEYS)}
    charged = {k: [f.kind for f in r.failures] for k, r in reports.items()}
    assert charged[0] == ["crash"]
    assert all(kinds in ([], ["crash"]) for kinds in charged.values())
    assert all(r.status == "ok" for r in reports.values())
    assert all(r.mode == "pool" for r in reports.values())
