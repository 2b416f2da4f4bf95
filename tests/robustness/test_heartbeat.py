"""Heartbeat hang detection must judge the *current* attempt.

A heartbeat file left behind by a previous killed/drained attempt has
a stale mtime; the supervisor must not read that as "this worker is
hung" the instant a fresh attempt starts running (before it writes its
first beat).
"""

import os
import time

from repro.engine.multistart import RunReport
from repro.engine.supervise import SupervisedRunner


def _finishes_quickly(key, attempt, mode):
    time.sleep(0.3)
    return key * 10


def test_stale_preexisting_heartbeat_cannot_condemn_fresh_attempt(tmp_path):
    heartbeat = tmp_path / "heartbeat"
    heartbeat.write_text("old attempt's last beat\n")
    long_ago = time.time() - 300.0
    os.utime(heartbeat, (long_ago, long_ago))

    reports = {1: RunReport(seed=1)}
    results = {}
    with SupervisedRunner(
        fn=_finishes_quickly,
        make_args=lambda k, attempt, mode: (k, attempt, mode),
        timeout=60.0,
        max_retries=0,
        retry_backoff=0.0,
        heartbeat_path=lambda k: heartbeat,
        heartbeat_timeout=5.0,
        heartbeat_poll=0.02,
    ) as runner:
        rebuilds, degraded = runner.run_pool(
            [1], workers=1, reports=reports, results=results
        )
    # The worker never beat (it is not wired to the file), but it ran
    # for far less than heartbeat_timeout -- the 300s-old file alone
    # must not get the pool killed.
    assert results == {1: 10}
    assert rebuilds == 0 and not degraded
    assert reports[1].failures == []
