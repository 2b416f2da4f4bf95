"""Structured run tracing: nested spans and events as JSONL.

A :class:`Tracer` writes one JSON object per line to a trace file --
``span_start`` / ``span_end`` pairs for nested phases (run -> round ->
restart -> warmup/anneal), point ``event`` records for scheduling
decisions (allocations, migrations, supervision incidents),
``progress`` records for convergence snapshots, and ``metric`` records
for aggregated registry dumps.  Every line carries a monotonic
timestamp relative to the tracer's creation, so span durations are
immune to wall-clock steps, and lines reach disk through
:func:`repro.ioutil.atomic_append_text` -- a single ``O_APPEND`` write
per flush, so a crashed run leaves a readable prefix, never interleaved
garbage.

The shared :data:`NULL_TRACER` is the default everywhere: it accepts
every call and does nothing, so instrumented code pays one attribute
lookup when nobody is tracing.  Neither tracer ever touches a random
number generator -- tracing on versus off is bit-identical by
construction (the determinism suite asserts it).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.ioutil import atomic_append_text, atomic_write_text
from repro.obs.schema import TRACE_VERSION

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]


class Tracer:
    """Buffered JSONL span/event writer.

    Parameters
    ----------
    path:
        Destination trace file; created (truncated) immediately so a
        rerun never appends to a stale trace.
    flush_every:
        Buffered lines per ``O_APPEND`` write; 1 flushes every line
        (crash evidence at the cost of more syscalls).
    """

    enabled = True

    def __init__(self, path: Union[str, Path], flush_every: int = 64):
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self.flush_every = int(flush_every)
        self.n_events = 0
        self._t0 = time.monotonic()
        self._lock = threading.Lock()
        self._buffer: list = []
        self._next_span = 1
        self._stack: list = []
        atomic_write_text(self.path, "")

    # -- emission -----------------------------------------------------

    def _emit(
        self,
        kind: str,
        name: str,
        attrs: Optional[Dict[str, Any]],
        span: Optional[int],
        parent: Optional[int],
    ) -> None:
        record = {
            "v": TRACE_VERSION,
            "ts": round(time.monotonic() - self._t0, 6),
            "kind": kind,
            "name": name,
            "span": span,
            "parent": parent,
            "attrs": attrs or {},
        }
        line = json.dumps(record, sort_keys=True, default=_jsonable)
        with self._lock:
            self._buffer.append(line)
            self.n_events += 1
            if len(self._buffer) >= self.flush_every:
                self._flush_locked()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[int]:
        """Open a nested span for the ``with`` block; yields its id."""
        with self._lock:
            sid = self._next_span
            self._next_span += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
        self._emit("span_start", name, attrs, sid, parent)
        try:
            yield sid
        finally:
            with self._lock:
                if self._stack and self._stack[-1] == sid:
                    self._stack.pop()
            self._emit("span_end", name, None, sid, parent)

    def _enclosing(self) -> Optional[int]:
        with self._lock:
            return self._stack[-1] if self._stack else None

    def event(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record a point event inside the innermost open span."""
        self._emit("event", name, attrs, self._enclosing(), None)

    def progress(
        self, name: str, attrs: Optional[Dict[str, Any]] = None
    ) -> None:
        """Record one convergence snapshot (cost, temperature, ...)."""
        self._emit("progress", name, attrs, self._enclosing(), None)

    def metric(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record an aggregated metrics-registry dump."""
        self._emit("metric", name, attrs, self._enclosing(), None)

    # -- flushing -----------------------------------------------------

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        text = "\n".join(self._buffer) + "\n"
        self._buffer = []
        atomic_append_text(self.path, text)

    def flush(self) -> None:
        """Write every buffered line to disk now."""
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        """Flush; the tracer stays usable (close is just a final flush)."""
        self.flush()


def _jsonable(obj: Any) -> Any:
    """Last-resort JSON encoder: tuples become lists, everything else
    its ``repr`` -- a trace line must never kill the run it observes."""
    if isinstance(obj, tuple):
        return list(obj)
    return repr(obj)


class NullTracer:
    """Do-nothing tracer; safe to share globally."""

    enabled = False
    path = None
    n_events = 0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[int]:
        """No-op span; yields a dummy id."""
        yield 0

    def event(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        """Discard the event."""

    def progress(
        self, name: str, attrs: Optional[Dict[str, Any]] = None
    ) -> None:
        """Discard the snapshot."""

    def metric(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        """Discard the metrics dump."""

    def flush(self) -> None:
        """Nothing buffered, nothing flushed."""

    def close(self) -> None:
        """Nothing to close."""


NULL_TRACER = NullTracer()
