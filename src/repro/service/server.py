"""Floorplanning-as-a-service: the asyncio HTTP front end.

Stdlib only: :func:`asyncio.start_server` plus hand-rolled HTTP/1.1
parsing (the API is five small JSON routes; a framework would be the
only third-party dependency in the repo).  The whole request parse
runs under one deadline of the service's ``client_timeout`` (each
socket read gets only the remaining budget) and header count/bytes are
capped, so a slowloris-shaped client -- headers promising a body that
never arrives, or trickling one header line per read -- gets a ``408``
(or ``400`` past the caps) and its connection closed instead of
pinning a server task (the fault suite drives this with
:func:`repro.testing.faults.slow_client_request`).

Routes::

    POST /v1/jobs               submit a job (JobSpec JSON)  -> 200/400/429
    GET  /v1/jobs/<id>          job status                   -> 200/404
    GET  /v1/jobs/<id>/result   the stored result            -> 200/404/409
    POST /v1/jobs/<id>/cancel   cancel a queued job          -> 200/404/409
    GET  /healthz               liveness (always 200)
    GET  /readyz                readiness (503 while draining)
    GET  /metrics               MetricsRegistry snapshot + queue gauges

:class:`FloorplanService` composes the queue, result store, fleet and
metrics; its handlers are plain synchronous methods (journal appends
are single fsynced writes -- microseconds to low milliseconds, cheap
enough to run on the event loop at this service's scale) so unit tests
drive them directly, without sockets.

Shutdown: SIGTERM (or :meth:`FloorplanService.drain`) flips readiness
to 503, stops the fleet claiming, lets every running worker checkpoint
and requeue, compacts the journal, and only then stops the listener --
the drain path of the job state machine, end to end.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import (
    JobNotFound,
    JobValidationError,
    QuotaExceeded,
    ServiceError,
)
from repro.obs import MetricsRegistry
from repro.perf import CacheContext
from repro.service.fleet import ServiceFleet
from repro.service.jobs import JobSpec
from repro.service.queue import JobQueue
from repro.service.store import ResultStore

__all__ = ["FloorplanService", "ServiceServer", "ServiceThread", "serve"]

_MAX_BODY_BYTES = 32 * 1024 * 1024  # a netlist, not a filesystem
_MAX_HEADER_BYTES = 16 * 1024  # request line + all header lines
_MAX_HEADER_COUNT = 100


class FloorplanService:
    """The service core: queue + store + fleet + metrics, one root dir.

    ``root`` gains ``queue/`` (journal + snapshot), ``results/`` (the
    content-addressed store) and ``work/`` (per-job checkpoint and
    heartbeat files plus the drain stop file).  Restarting a service on
    the same root resumes exactly where the last one stopped: the
    journal replays, interrupted jobs re-queue, their checkpoints make
    the reruns resumes.
    """

    def __init__(
        self,
        root: Union[str, Path],
        workers: int = 2,
        tenant_quota: Optional[int] = None,
        client_timeout: float = 10.0,
        job_timeout: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        retry_jitter: float = 0.25,
        max_pool_rebuilds: int = 2,
        compact_every: int = 512,
        metrics: Optional[MetricsRegistry] = None,
        observer=None,
    ):
        if client_timeout <= 0:
            raise ValueError(
                f"client_timeout must be positive, got {client_timeout}"
            )
        self.root = Path(root)
        self.client_timeout = float(client_timeout)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.queue = JobQueue(
            self.root / "queue",
            tenant_quota=tenant_quota,
            compact_every=compact_every,
        )
        self.store = ResultStore(self.root / "results")
        self.fleet = ServiceFleet(
            self.queue,
            self.store,
            self.root / "work",
            workers=workers,
            timeout=job_timeout,
            heartbeat_timeout=heartbeat_timeout,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            retry_jitter=retry_jitter,
            max_pool_rebuilds=max_pool_rebuilds,
            metrics=self.metrics,
            observer=observer,
        )
        self.draining = False
        self.started_at = time.time()

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Start the fleet (journal replay already ran in __init__)."""
        self.draining = False
        self.fleet.start()

    def drain(self) -> None:
        """Graceful shutdown of the execution arm (idempotent).

        Readiness goes 503 first so load balancers stop routing, then
        the fleet checkpoints and requeues every running job and the
        journal compacts.  The HTTP listener stays up until the caller
        stops it -- status polls during a drain still answer.
        """
        if self.draining:
            return
        self.draining = True
        self.fleet.drain()

    # -- handlers (synchronous; the HTTP layer and tests share them) --

    def submit_job(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Validate, enqueue (or dedupe), and maybe cache-serve a job."""
        spec = JobSpec.from_json(body)
        # Malformed YAL, an objective or a schedule the worker could
        # not build fails the submit, not a worker: the constructors'
        # own checks run here against the parsed netlist.
        netlist = spec.build_netlist()
        try:
            spec.objective_spec().build(netlist, CacheContext())
            spec.schedule()
        except ValueError as exc:
            raise JobValidationError(
                f"bad job specification: {exc}"
            ) from None
        with self.metrics.timeit("service_submit"):
            # The store is append-only, so a hit observed here is still
            # a hit when submit journals the job; submit() itself births
            # the job `done` under the queue lock, so the fleet can
            # never claim it between enqueue and cache short-circuit.
            content_key = spec.content_hash()
            cached_key = content_key if self.store.has(content_key) else None
            job, created = self.queue.submit(spec, cached_result_key=cached_key)
            if created:
                self.metrics.count("service_jobs_submitted")
                if job.cached:
                    self.metrics.count("service_cache_hits")
            else:
                self.metrics.count("service_idempotent_replays")
        status = job.status_json()
        status["created"] = created
        return status

    def job_status(self, job_id: str) -> Dict[str, Any]:
        """The job's status JSON (netlist elided)."""
        return self.queue.get(job_id).status_json()

    def job_result(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        """``(http_status, payload)`` for the result route: 200 with
        the stored result once done, 409 with the job status while the
        job is still in flight or ended without a result."""
        job = self.queue.get(job_id)
        if job.state == "done" and job.result_key:
            result = self.store.get(job.result_key)
            if result is not None:
                return 200, result
        payload = job.status_json()
        payload["error"] = (
            job.error
            if job.terminal
            else f"job {job_id} is {job.state}; no result yet"
        )
        return 409, payload

    def cancel_job(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        """Cancel a queued job; 409 for states past cancelling."""
        job = self.queue.get(job_id)
        if not job.can_transition("cancelled"):
            payload = job.status_json()
            payload["error"] = f"cannot cancel a {job.state} job"
            return 409, payload
        return 200, self.queue.cancel(job_id).status_json()

    def healthz(self) -> Dict[str, Any]:
        """Liveness: always ok while the process answers."""
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
        }

    def readyz(self) -> Tuple[int, Dict[str, Any]]:
        """Readiness: 503 while draining or the fleet is down."""
        ready = self.fleet.running and not self.draining
        payload = {
            "ready": ready,
            "draining": self.draining,
            "degraded": self.fleet.sequential_only,
            "jobs": self.queue.counts(),
        }
        return (200 if ready else 503), payload

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The metrics registry plus live queue-state gauges."""
        for state, n in self.queue.counts().items():
            self.metrics.gauge(f"service_jobs_{state}", n)
        self.metrics.gauge(
            "service_degraded_mode", 1.0 if self.fleet.sequential_only else 0.0
        )
        return self.metrics.snapshot()


class ServiceServer:
    """The asyncio listener wrapping one :class:`FloorplanService`."""

    def __init__(
        self,
        service: FloorplanService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port  # 0 -> OS-assigned; real port set after start()
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        """Start the fleet and bind the listener (port 0 -> OS pick)."""
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener (the service itself is untouched)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- one connection ------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            try:
                method, path, headers, body = await self._read_request(reader)
            except asyncio.TimeoutError:
                await self._respond(
                    writer, 408, {"error": "client too slow; request timed out"}
                )
                return
            except (asyncio.IncompleteReadError, ValueError) as exc:
                await self._respond(writer, 400, {"error": f"bad request: {exc}"})
                return
            status, payload = self._route(method, path, body)
            await self._respond(writer, status, payload)
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client hung up; nothing to tell them
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader):
        """Parse one HTTP/1.1 request under one overall deadline.

        The *whole* request -- request line, headers, body -- must
        arrive within ``client_timeout``; each read gets only the time
        remaining, so a client trickling one header line per read
        cannot hold the connection past the budget.  Header count and
        total header bytes are capped too (-> 400), so the headers
        dict cannot be grown without bound either.
        """
        deadline = (
            asyncio.get_running_loop().time() + self.service.client_timeout
        )

        async def read_bounded(coro_factory):
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise asyncio.TimeoutError()
            return await asyncio.wait_for(coro_factory(), remaining)

        request_line = await read_bounded(reader.readline)
        if not request_line.strip():
            raise ValueError("empty request line")
        try:
            method, path, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise ValueError(f"malformed request line {request_line!r}")
        headers: Dict[str, str] = {}
        header_bytes = len(request_line)
        while True:
            line = await read_bounded(reader.readline)
            if line in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                raise ValueError(
                    f"headers exceed {_MAX_HEADER_BYTES} bytes"
                )
            if len(headers) >= _MAX_HEADER_COUNT:
                raise ValueError(
                    f"more than {_MAX_HEADER_COUNT} header lines"
                )
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > _MAX_BODY_BYTES:
            raise ValueError(f"unacceptable content-length {length}")
        body = b""
        if length:
            body = await read_bounded(lambda: reader.readexactly(length))
        return method.upper(), path, headers, body

    def _route(self, method: str, path: str, body: bytes):
        """Dispatch to the service core, mapping its exceptions to HTTP."""
        try:
            if method == "GET" and path == "/healthz":
                return 200, self.service.healthz()
            if method == "GET" and path == "/readyz":
                return self.service.readyz()
            if method == "GET" and path == "/metrics":
                return 200, self.service.metrics_snapshot()
            if method == "POST" and path == "/v1/jobs":
                try:
                    parsed = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    return 400, {"error": f"body is not JSON: {exc}"}
                if not isinstance(parsed, dict):
                    return 400, {"error": "body must be a JSON object"}
                return 200, self.service.submit_job(parsed)
            if method == "GET" and path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/") :]
                if rest.endswith("/result"):
                    return self.service.job_result(rest[: -len("/result")])
                return 200, self.service.job_status(rest)
            if method == "POST" and path.startswith("/v1/jobs/") and (
                path.endswith("/cancel")
            ):
                job_id = path[len("/v1/jobs/") : -len("/cancel")]
                return self.service.cancel_job(job_id)
            return 404, {"error": f"no route {method} {path}"}
        except JobValidationError as exc:
            return 400, {"error": str(exc)}
        except QuotaExceeded as exc:
            return 429, {"error": str(exc)}
        except JobNotFound as exc:
            # KeyError heritage wraps the message in quotes; unwrap.
            return 404, {"error": str(exc).strip("'\"")}
        except ServiceError as exc:
            return 409, {"error": str(exc)}
        except Exception as exc:
            # Infrastructure failure (full disk mid-journal-append, a
            # corrupt stored result, ...): answer with a well-formed 500
            # instead of killing the connection and leaving the client
            # to diagnose a reset.  Details stay server-side.
            self.service.metrics.count("service_internal_errors")
            return 500, {"error": f"internal error: {type(exc).__name__}"}

    async def _respond(self, writer, status: int, payload) -> None:
        reasons = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            408: "Request Timeout",
            409: "Conflict",
            429: "Too Many Requests",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def serve(
    service: FloorplanService,
    host: str = "127.0.0.1",
    port: int = 8712,
    install_signals: bool = True,
    ready=None,
) -> None:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    The signal handler only sets an event; the drain itself (which
    joins the fleet thread) runs in the default executor so the event
    loop keeps answering status polls while workers checkpoint.
    ``ready`` (optional ``Callable[[ServiceServer], None]``) fires once
    the port is bound -- the CLI uses it to print the actual port.
    """
    server = ServiceServer(service, host=host, port=port)
    await server.start()
    if ready is not None:
        ready(server)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signals:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, ValueError):
                break  # non-unix or non-main-thread: drain via stop()
    try:
        await stop.wait()
    finally:
        await loop.run_in_executor(None, service.drain)
        await server.stop()


class ServiceThread:
    """A live server on a background thread (tests and the smoke
    script): ``start()`` returns once the port is bound; ``stop()``
    drains the service and tears the loop down."""

    def __init__(
        self,
        service: FloorplanService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[ServiceServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    def start(self, timeout: float = 10.0) -> "ServiceThread":
        """Start the loop thread; returns once the port is bound."""
        self._thread = threading.Thread(
            target=self._run, name="service-http", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("service thread failed to start in time")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._server = ServiceServer(self.service, self.host, port=0)
        self._loop.run_until_complete(self._server.start())
        self.port = self._server.port
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self._server.stop())
            self._loop.close()

    def stop(self, drain: bool = True) -> None:
        """Drain (optionally) and tear the event loop down."""
        if drain:
            self.service.drain()
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
