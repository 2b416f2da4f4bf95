"""In-memory span tracing for the benchmark's traced runs.

A :class:`Tracer` wraps public functions of the ``repro`` layers by
replacing class or module attributes in the running process only; no
source file changes and :meth:`Tracer.uninstall` restores every
original.  Each wrapped call records one :class:`Span` -- name, start,
end, parent span and request id (the move index on the engine
workloads, the job id or result key on the service) -- in memory; the
spans are written out once, at the end, by :meth:`Tracer.dump`.

Self time is a span's duration minus the time its child spans cover.
Spans nest strictly per thread (the parent is the innermost open span
of the same thread), so children never overlap one another and the
subtraction is exact.  :func:`attribute` turns spans into the per-layer
table whose self times plus ``unattributed_s`` add up to the wall clock
of the traced region.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One call into a layer."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional["Span"] = None
    request: Any = None
    thread: str = ""
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


# (span name, "module" or "module:Class", attribute).  The engine set is
# installed on the engine workloads, the service set on service-mix.
ENGINE_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("floorplan.realize.sp", "repro.engine.representation", "pack_sequence_pair"),
    ("floorplan.realize.btree", "repro.engine.representation", "pack_btree"),
    ("floorplan.realize.polish", "repro.engine.representation", "evaluate_polish"),
    ("floorplan.neighbor.sp", "repro.floorplan.sequence_pair:SequencePair", "random_neighbor"),
    ("floorplan.neighbor.btree", "repro.floorplan.btree:BStarTree", "random_neighbor"),
    ("floorplan.neighbor.polish", "repro.floorplan.polish:PolishExpression", "random_neighbor"),
    ("floorplan.convert", "repro.engine.representation", "polish_from_floorplan"),
    ("floorplan.convert", "repro.engine.representation", "sequence_pair_from_floorplan"),
    ("floorplan.convert", "repro.engine.representation", "btree_from_floorplan"),
    ("pins.compute", "repro.anneal.pipeline:PinStage", "compute"),
    ("netlist.mst", "repro.anneal.pipeline:MstStage", "fill_all"),
    ("netlist.mst", "repro.anneal.pipeline:MstStage", "fill_dirty"),
    ("metrics.wirelength", "repro.anneal.pipeline:MstStage", "wirelength"),
    ("congestion.estimate", "repro.anneal.pipeline:CongestionStage", "estimate_arrays_ledger"),
    ("anneal.evaluate", "repro.anneal.cost:FloorplanObjective", "evaluate_floorplan"),
    ("anneal.commit_reject", "repro.anneal.cost:FloorplanObjective", "commit"),
    ("anneal.commit_reject", "repro.anneal.cost:FloorplanObjective", "reject"),
    ("anneal.calibrate", "repro.anneal.cost:FloorplanObjective", "calibrate"),
    ("engine.loop", "repro.engine.engine:AnnealEngine", "run"),
    ("engine.driver", "repro.engine.portfolio:PortfolioDriver", "run"),
)

SERVICE_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("service.submit", "repro.service.server:FloorplanService", "submit_job"),
    ("service.journal.append", "repro.service.queue", "append_record"),
    ("service.queue.claim", "repro.service.queue:JobQueue", "claim"),
    ("service.fleet.batch", "repro.engine.supervise:SupervisedRunner", "run"),
    ("service.store.put", "repro.service.store:ResultStore", "put"),
    ("service.queue.complete", "repro.service.queue:JobQueue", "complete"),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans around patched layer entry points.

    ``request_id`` is the current request (set by the caller between
    calls, e.g. the move index); a patch may instead derive the id from
    the call's arguments.  ``hooks`` map a span name to a callback
    ``hook(args, result)`` that runs after the call, for counts measured
    where the work happens (batch sizes, queue waits).
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.samples: Dict[str, List[float]] = {}
        self.request_id: Any = None
        self.regions: List[Tuple[float, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        request_of: Optional[Callable] = None,
        hook: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped so each call records a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            request = (
                request_of(args, kwargs) if request_of else tracer.request_id
            )
            span = Span(
                name,
                time.perf_counter(),
                parent=parent,
                request=request,
                thread=threading.current_thread().name,
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                with tracer._lock:
                    tracer.spans.append(span)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def sample(self, name: str, value: float) -> None:
        """Record one measured value (a queue wait, a batch size)."""
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    @contextlib.contextmanager
    def region(self):
        """Mark one stretch of the traced wall clock."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.regions.append((start, time.perf_counter()))

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.regions)

    # -- patching -------------------------------------------------------

    def install(
        self,
        layers: Iterable[Tuple[str, str, str]],
        request_of: Optional[Dict[str, Callable]] = None,
        hooks: Optional[Dict[str, Callable]] = None,
    ) -> "Tracer":
        """Patch every ``(name, target, attribute)`` in ``layers``."""
        request_of = request_of or {}
        hooks = hooks or {}
        for name, target, attr in layers:
            owner = _resolve(target)
            original = owner.__dict__[attr]
            setattr(
                owner,
                attr,
                self.wrap(name, original, request_of.get(name), hooks.get(name)),
            )
            self._patches.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (ids in end order)."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        origin = self.regions[0][0] if self.regions else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "start": span.start - origin,
                            "end": span.end - origin,
                            "parent": (
                                ids.get(id(span.parent))
                                if span.parent is not None
                                else None
                            ),
                            "request": span.request,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


def attribute(
    spans: Iterable[Span], wall_s: float, thread: Optional[str] = None
) -> Dict[str, Dict[str, float]]:
    """Per-name ``calls`` and ``self_s``, plus ``unattributed_s``.

    Only spans of ``thread`` count when it is given (the service's
    layers run on several threads at once, so only one thread's self
    times can add up to a wall clock).  ``unattributed_s`` is
    ``wall_s`` minus the sum of the self times.
    """
    table: Dict[str, Dict[str, float]] = {}
    total = 0.0
    for span in spans:
        if thread is not None and span.thread != thread:
            continue
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += span.self_s
        total += span.self_s
    table["unattributed"] = {"calls": 0, "self_s": wall_s - total}
    return table


def durations(spans: Iterable[Span], name: str) -> List[float]:
    """Wall durations of every span called ``name``."""
    return [span.duration for span in spans if span.name == name]
