"""Trace summarization: phase attribution, convergence, cost curve.

Reads a ``--trace`` JSONL file back through the schema validator and
condenses it into a :class:`TraceSummary`: wall-clock attributed to
span names (``span_start``/``span_end`` pairs matched by span id),
event counts, the convergence series from ``progress`` (or, failing
that, ``temperature_step``) records, the migration tally, and the
final aggregated metrics dump.  :func:`format_trace_summary` renders
it for terminals -- tables plus an ASCII best-cost curve via
:func:`repro.viz.render_series_ascii` -- and powers the ``floorplan
trace`` CLI subcommand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.schema import iter_trace

__all__ = ["SpanTotal", "TraceSummary", "summarize_trace", "format_trace_summary"]


@dataclass
class SpanTotal:
    """Accumulated wall-clock of every span sharing one name."""

    seconds: float = 0.0
    count: int = 0


@dataclass
class TraceSummary:
    """Everything the summarizer extracts from one trace file."""

    path: str
    n_events: int = 0
    duration_seconds: float = 0.0
    span_totals: Dict[str, SpanTotal] = field(default_factory=dict)
    event_counts: Dict[str, int] = field(default_factory=dict)
    progress: List[Dict[str, Any]] = field(default_factory=list)
    best_costs: List[float] = field(default_factory=list)
    migrations: int = 0
    metrics: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        """A JSON-serializable image of this summary."""
        return {
            "path": self.path,
            "n_events": self.n_events,
            "duration_seconds": self.duration_seconds,
            "span_totals": {
                name: {"seconds": t.seconds, "count": t.count}
                for name, t in sorted(self.span_totals.items())
            },
            "event_counts": dict(sorted(self.event_counts.items())),
            "n_progress": len(self.progress),
            "best_costs": list(self.best_costs),
            "migrations": self.migrations,
            "metrics": self.metrics,
        }


def summarize_trace(path: Union[str, Path]) -> TraceSummary:
    """Parse and validate a trace file into a :class:`TraceSummary`.

    Unclosed spans (a crashed run's open phases) are counted but
    contribute no time; the latest ``run_metrics`` dump wins.
    """
    summary = TraceSummary(path=str(path))
    open_spans: Dict[int, Tuple[str, float]] = {}
    counts: Counter = Counter()
    last_ts = 0.0
    step_best: List[float] = []
    progress_best: List[float] = []
    for record in iter_trace(path):
        summary.n_events += 1
        last_ts = max(last_ts, float(record["ts"]))
        kind, name = record["kind"], record["name"]
        attrs = record["attrs"]
        if kind == "span_start":
            open_spans[record["span"]] = (name, float(record["ts"]))
            counts[f"span:{name}"] += 1
        elif kind == "span_end":
            started = open_spans.pop(record["span"], None)
            total = summary.span_totals.setdefault(name, SpanTotal())
            total.count += 1
            if started is not None:
                total.seconds += float(record["ts"]) - started[1]
        elif kind == "progress":
            summary.progress.append({"name": name, **attrs})
            if "best_cost" in attrs:
                progress_best.append(float(attrs["best_cost"]))
        elif kind == "metric":
            if name == "run_metrics":
                summary.metrics = attrs
            counts[f"metric:{name}"] += 1
        else:  # event
            counts[f"event:{name}"] += 1
            if name == "temperature_step" and "best_cost" in attrs:
                step_best.append(float(attrs["best_cost"]))
            elif name == "migration":
                summary.migrations += 1
    summary.event_counts = dict(counts)
    summary.duration_seconds = last_ts
    # Prefer explicit progress snapshots; fall back to per-step events.
    summary.best_costs = progress_best if progress_best else step_best
    return summary


def _span_table(summary: TraceSummary) -> List[str]:
    if not summary.span_totals:
        return []
    rows = sorted(
        summary.span_totals.items(), key=lambda kv: -kv[1].seconds
    )
    width = max(len(name) for name, _ in rows)
    wall = summary.duration_seconds or 1.0
    lines = [
        "-- phase time attribution --",
        f"{'span'.ljust(width)}  {'seconds':>10}  {'count':>6}  {'% wall':>7}",
    ]
    for name, total in rows:
        lines.append(
            f"{name.ljust(width)}  {total.seconds:>10.3f}  {total.count:>6d}"
            f"  {100.0 * total.seconds / wall:>6.1f}%"
        )
    return lines


def _convergence_table(summary: TraceSummary, max_rows: int = 12) -> List[str]:
    rows = [p for p in summary.progress if "best_cost" in p]
    if not rows:
        return []
    if len(rows) > max_rows:
        stride = (len(rows) + max_rows - 1) // max_rows
        sampled = rows[::stride]
        if sampled[-1] is not rows[-1]:
            sampled.append(rows[-1])
        rows = sampled
    lines = [
        "-- convergence --",
        f"{'step':>6}  {'temperature':>12}  {'current':>12}  {'best':>12}"
        f"  {'top density':>12}",
    ]
    for p in rows:
        tops = p.get("top_densities") or []
        top = f"{tops[0]:.4g}" if tops else "-"
        lines.append(
            f"{p.get('step', 0):>6}  {p.get('temperature', 0.0):>12.4g}"
            f"  {p.get('current_cost', 0.0):>12.6g}"
            f"  {p.get('best_cost', 0.0):>12.6g}  {top:>12}"
        )
    return lines


def format_trace_summary(summary: TraceSummary, width: int = 60) -> str:
    """Render a summary for the terminal (the ``floorplan trace``
    subcommand's output)."""
    from repro.viz import render_series_ascii

    lines = [
        f"trace {summary.path}: {summary.n_events} events, "
        f"{summary.duration_seconds:.3f} s"
    ]
    lines.extend(_span_table(summary))
    lines.extend(_convergence_table(summary))
    if summary.best_costs:
        lines.append("-- best cost --")
        lines.append(
            render_series_ascii(
                summary.best_costs, width=width, label="best cost"
            )
        )
    if summary.migrations:
        lines.append(f"champion migrations: {summary.migrations}")
    if summary.event_counts:
        top = sorted(summary.event_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        counted = "  ".join(f"{name}={n}" for name, n in top[:8])
        lines.append(f"events: {counted}")
    if summary.metrics:
        counters = summary.metrics.get("counters", {})
        interesting = {
            k: v
            for k, v in counters.items()
            if k
            in (
                "evaluations",
                "eval_delta",
                "eval_full",
                "congestion_exact_rescue",
                "supervision_retries",
                "pool_rebuilds",
                "champion_migrations",
            )
        }
        if interesting:
            lines.append(
                "counters: "
                + "  ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
            )
    return "\n".join(lines)
