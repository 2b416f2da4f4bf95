"""The HTTP surface: routes, status codes, caching, slow clients.

One live server (module scope) carries the happy-path and error-path
route tests; scenarios that need their own service shape (quotas, a
deliberately clogged single worker) build their own.
"""

import http.client
import json

import pytest

from repro.service import FloorplanService, ServiceClient, ServiceThread
from repro.testing.faults import slow_client_request


@pytest.fixture(scope="module")
def live(tmp_path_factory, tiny_yal):
    """A running service+server; client_timeout is short so the
    slow-client test answers quickly."""
    root = tmp_path_factory.mktemp("service")
    service = FloorplanService(root, workers=2, client_timeout=1.0)
    thread = ServiceThread(service).start()
    client = ServiceClient(port=thread.port)
    yield service, client
    thread.stop(drain=True)


@pytest.fixture(scope="module")
def live_spec(tiny_yal):
    return {
        "netlist_yal": tiny_yal,
        "seed": 1,
        "max_steps": 8,
        "moves_per_temperature": 10,
        "checkpoint_every": 1,
    }


def test_submit_wait_result_roundtrip(live, live_spec):
    _, client = live
    submitted = client.submit(live_spec)
    assert submitted["created"] and submitted["job_id"].startswith("j")
    result = client.wait(submitted["job_id"], timeout=120)
    assert result["schema"] == "repro.service.result/v1"
    assert result["completed"] is True
    assert result["placements"]
    # Status now reports done with the content-addressed key.
    info = client.status(submitted["job_id"])
    assert info["state"] == "done"
    assert info["result_key"] == result["content_hash"]


def test_idempotent_resubmit_returns_same_job(live, live_spec):
    _, client = live
    spec = {**live_spec, "seed": 21, "idempotency_key": "once"}
    first = client.submit(spec)
    again = client.submit(spec)
    assert again["job_id"] == first["job_id"]
    assert not again["created"]


def test_cache_hit_short_circuits_to_done(live, live_spec):
    _, client = live
    spec = {**live_spec, "seed": 22}
    first = client.submit(spec)
    first_result = client.wait(first["job_id"], timeout=120)
    # Same content, fresh idempotency key: a new job, already done.
    second = client.submit({**spec, "idempotency_key": "fresh-key"})
    assert second["created"]
    assert second["job_id"] != first["job_id"]
    assert second["state"] == "done"
    assert second["cached"] is True
    assert client.result(second["job_id"]) == first_result


def test_unknown_job_is_404(live):
    _, client = live
    for call in ("status", "result", "cancel"):
        with pytest.raises(Exception) as excinfo:
            getattr(client, call)("j999999")
        assert excinfo.value.status == 404


def test_bad_spec_is_400(live, live_spec):
    _, client = live
    with pytest.raises(Exception) as excinfo:
        client.submit({**live_spec, "sedd": 3})
    assert excinfo.value.status == 400
    assert "unknown job field" in str(excinfo.value)
    with pytest.raises(Exception) as excinfo:
        client.submit({**live_spec, "netlist_yal": "not yal"})
    assert excinfo.value.status == 400
    assert "does not parse" in str(excinfo.value)


def test_non_numpy_backend_is_400(live, live_spec):
    # ``backend`` was removed from job specs; only the values old
    # journals carry (null, "numpy") are still accepted.
    _, client = live
    with pytest.raises(Exception) as excinfo:
        client.submit({**live_spec, "backend": "python"})
    assert excinfo.value.status == 400
    assert "unknown backend" in str(excinfo.value)


def test_non_json_body_is_400(live):
    service, client = live
    conn = http.client.HTTPConnection("127.0.0.1", client.port, timeout=10)
    try:
        conn.request("POST", "/v1/jobs", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 400
    assert "not JSON" in payload["error"]


def test_unknown_route_is_404(live):
    _, client = live
    status, payload = client._request("GET", "/v2/nope")
    assert status == 404 and "no route" in payload["error"]


def test_healthz_and_metrics(live, live_spec):
    _, client = live
    health = client.healthz()
    assert health["status"] == "ok" and health["uptime_seconds"] >= 0
    ready, payload = client.readyz()
    assert ready and payload["draining"] is False
    snapshot = client.metrics()
    assert snapshot["counters"]["service_jobs_submitted"] >= 1
    assert "service_jobs_done" in snapshot["gauges"]


def test_slow_client_gets_408_not_a_pinned_task(live):
    """A client that promises a body and never sends it is cut off with
    408 after ``client_timeout`` -- and the server stays healthy."""
    _, client = live
    response = slow_client_request("127.0.0.1", client.port, hold_seconds=10.0)
    assert b"408" in response.split(b"\r\n", 1)[0]
    assert client.healthz()["status"] == "ok"  # nothing got pinned


def _parse_request(blob: bytes):
    """Drive ServiceServer._read_request over an in-memory stream."""
    import asyncio
    from types import SimpleNamespace

    from repro.service import ServiceServer

    server = ServiceServer(SimpleNamespace(client_timeout=5.0))

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        return await server._read_request(reader)

    return asyncio.run(run())


def test_header_count_flood_is_rejected():
    """Endless header lines hit the count cap (-> ValueError -> 400);
    the headers dict cannot be grown without bound."""
    blob = b"GET /healthz HTTP/1.1\r\n" + b"".join(
        b"x-filler-%d: a\r\n" % i for i in range(200)
    )
    with pytest.raises(ValueError, match="header lines"):
        _parse_request(blob)


def test_header_byte_flood_is_rejected():
    """A few huge header lines hit the byte cap instead."""
    blob = b"GET /healthz HTTP/1.1\r\n" + b"".join(
        b"x-big-%d: %s\r\n" % (i, b"a" * 8000) for i in range(3)
    )
    with pytest.raises(ValueError, match="bytes"):
        _parse_request(blob)


def test_reasonable_headers_still_parse():
    blob = (
        b"GET /healthz HTTP/1.1\r\n"
        b"Host: localhost\r\n"
        b"Content-Length: 2\r\n"
        b"\r\n"
        b"{}"
    )
    method, path, headers, body = _parse_request(blob)
    assert (method, path, body) == ("GET", "/healthz", b"{}")
    assert headers["host"] == "localhost"


def test_handler_infrastructure_failure_is_500(tmp_path, monkeypatch):
    """A non-ServiceError escaping a handler (full disk, corrupt stored
    result) must surface as a well-formed 500, not a connection reset,
    and must not leak details to the client."""
    from repro.service import FloorplanService, ServiceServer

    service = FloorplanService(tmp_path, workers=1)
    server = ServiceServer(service)

    def boom(body):
        raise OSError("disk full writing journal")

    monkeypatch.setattr(service, "submit_job", boom)
    status, payload = server._route("POST", "/v1/jobs", b"{}")
    assert status == 500
    assert "internal error" in payload["error"]
    assert "disk full" not in payload["error"]
    counters = service.metrics.snapshot()["counters"]
    assert counters["service_internal_errors"] == 1


def test_queued_job_result_409_and_cancel(tmp_path, tiny_yal):
    """With one busy worker, a queued job answers 409 on its result
    route, cancels cleanly, and a running job refuses cancellation."""
    service = FloorplanService(tmp_path, workers=1)
    thread = ServiceThread(service).start()
    client = ServiceClient(port=thread.port)
    long_spec = {
        "netlist_yal": tiny_yal,
        "seed": 5,
        "max_steps": 100000,
        "moves_per_temperature": 200,
        "checkpoint_every": 50,
    }
    try:
        runner = client.submit(long_spec)
        waiter = client.submit({**long_spec, "seed": 6})
        with pytest.raises(Exception) as excinfo:
            client.result(waiter["job_id"])
        assert excinfo.value.status == 409
        assert "no result yet" in excinfo.value.payload["error"]
        # The queued job cancels; 404s thereafter would be wrong -- it
        # stays visible as cancelled.
        cancelled = client.cancel(waiter["job_id"])
        assert cancelled["state"] == "cancelled"
        assert client.status(waiter["job_id"])["state"] == "cancelled"
        # Cancel is not a kill switch: running jobs refuse it.
        import time as _time
        deadline = _time.monotonic() + 30
        while client.status(runner["job_id"])["state"] != "running":
            assert _time.monotonic() < deadline
            _time.sleep(0.05)
        with pytest.raises(Exception) as excinfo:
            client.cancel(runner["job_id"])
        assert excinfo.value.status == 409
    finally:
        thread.stop(drain=True)
    # Drain requeued the running job for the next server life.
    assert service.queue.get(runner["job_id"]).state == "queued"


def test_tenant_quota_is_429(tmp_path, tiny_yal):
    service = FloorplanService(tmp_path, workers=1, tenant_quota=1)
    thread = ServiceThread(service).start()
    client = ServiceClient(port=thread.port)
    long_spec = {
        "netlist_yal": tiny_yal,
        "seed": 7,
        "max_steps": 100000,
        "moves_per_temperature": 200,
        "checkpoint_every": 50,
        "tenant": "acme",
    }
    try:
        client.submit(long_spec)
        with pytest.raises(Exception) as excinfo:
            client.submit({**long_spec, "seed": 8})
        assert excinfo.value.status == 429
        assert "acme" in str(excinfo.value)
    finally:
        thread.stop(drain=True)


def test_readyz_goes_503_on_drain(tmp_path):
    service = FloorplanService(tmp_path, workers=1)
    thread = ServiceThread(service).start()
    client = ServiceClient(port=thread.port)
    try:
        ready, _ = client.readyz()
        assert ready
        service.drain()
        ready, payload = client.readyz()
        assert not ready and payload["draining"] is True
        # The listener still answers during the drain window.
        assert client.healthz()["status"] == "ok"
    finally:
        thread.stop(drain=True)
