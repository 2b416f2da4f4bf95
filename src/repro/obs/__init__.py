"""Run telemetry: structured tracing, unified metrics, progress streams.

The observability layer makes a long search *watchable* without making
it different: every hook is RNG-free and off by default, so a traced
strict-mode walk is bit-identical to an untraced one (the determinism
suite asserts it).  Four pieces:

* :class:`Tracer` (:mod:`repro.obs.trace`) -- nested spans (run ->
  round -> restart -> warmup/anneal) and point events as JSONL, one
  atomic ``O_APPEND`` write per flush, so a crashed run leaves its
  scheduling ledger on disk;
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) -- the one
  recorder: phase timers that record self (exclusive) time, so nested
  rows add up to their root, plus counters, gauges and fixed-bucket
  histograms (acceptance rate by temperature, per-arm slots, cache
  hit rates, supervision incidents);
* :class:`ProgressSnapshot` / :class:`ObsPlan`
  (:mod:`repro.obs.progress`) -- workers collect periodic convergence
  samples (cost, temperature, top-k congestion density) that ride the
  existing supervision seam home and merge into the trace;
* :func:`summarize_trace` / :func:`format_trace_summary`
  (:mod:`repro.obs.summary`) -- the ``floorplan trace`` subcommand's
  phase attribution, convergence table and ASCII cost curve.

:class:`RunObserver` (:mod:`repro.obs.observe`) bundles the first
three behind the single optional handle the engines and drivers take.
"""

from repro.obs.metrics import (
    DEFAULT_RATE_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
)
from repro.obs.observe import NULL_OBSERVER, RunObserver
from repro.obs.progress import (
    ObsPlan,
    ProgressSnapshot,
    top_congestion_densities,
)
from repro.obs.schema import (
    EVENT_KINDS,
    TRACE_VERSION,
    TraceSchemaError,
    iter_trace,
    validate_event,
    validate_trace_file,
)
from repro.obs.summary import (
    SpanTotal,
    TraceSummary,
    format_trace_summary,
    summarize_trace,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "Histogram",
    "NULL_METRICS",
    "DEFAULT_RATE_BUCKETS",
    "RunObserver",
    "NULL_OBSERVER",
    "ObsPlan",
    "ProgressSnapshot",
    "top_congestion_densities",
    "TRACE_VERSION",
    "EVENT_KINDS",
    "TraceSchemaError",
    "validate_event",
    "iter_trace",
    "validate_trace_file",
    "TraceSummary",
    "SpanTotal",
    "summarize_trace",
    "format_trace_summary",
]
