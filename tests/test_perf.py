"""Tests for the run recorder: :class:`repro.obs.MetricsRegistry`'s
timers and counters, :class:`~repro.obs.metrics.PhaseStat`, and the
shared :data:`~repro.obs.NULL_METRICS`."""

import inspect
import time

import repro.perf
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.obs.metrics import PhaseStat


class TestPhaseStat:
    def test_ms_per_call(self):
        stat = PhaseStat(seconds=0.5, calls=250)
        assert stat.ms_per_call == 2.0

    def test_ms_per_call_zero_calls(self):
        assert PhaseStat().ms_per_call == 0.0


class TestRegistryRecording:
    def test_timeit_accumulates(self):
        perf = MetricsRegistry()
        for _ in range(3):
            with perf.timeit("phase"):
                time.sleep(0.001)
        stat = perf.timers["phase"]
        assert stat.calls == 3
        assert stat.seconds >= 0.003

    def test_add_time_direct(self):
        perf = MetricsRegistry()
        perf.add_time("x", 1.0)
        perf.add_time("x", 2.0)
        assert perf.timers["x"].seconds == 3.0
        assert perf.timers["x"].calls == 2

    def test_counters(self):
        perf = MetricsRegistry()
        perf.count("evals")
        perf.count("evals", 4)
        assert perf.counters["evals"] == 5

    def test_merge(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.add_time("shared", 1.0)
        b.add_time("shared", 2.0)
        b.add_time("only_b", 0.5)
        a.count("n", 1)
        b.count("n", 2)
        a.merge_snapshot(b.snapshot())
        assert a.timers["shared"].seconds == 3.0
        assert a.timers["shared"].calls == 2
        assert a.timers["only_b"].calls == 1
        assert a.counters["n"] == 3

    def test_snapshot_round_trip(self):
        perf = MetricsRegistry()
        perf.add_time("t", 0.25)
        perf.count("c", 7)
        snap = perf.snapshot()
        assert snap["timers"]["t"] == {"seconds": 0.25, "calls": 1}
        assert snap["counters"]["c"] == 7
        # The snapshot is a copy, not a view.
        snap["counters"]["c"] = 0
        assert perf.counters["c"] == 7

    def test_report_mentions_phases_and_counters(self):
        perf = MetricsRegistry()
        perf.add_time("packing", 0.1)
        perf.count("evaluations", 42)
        text = perf.report(title="run")
        assert "run" in text
        assert "packing" in text
        assert "evaluations=42" in text

    def test_empty_report(self):
        assert isinstance(MetricsRegistry().report(), str)

    def test_report_has_self_column_and_total_row(self):
        perf = MetricsRegistry()
        perf.add_time("packing", 0.5)
        perf.add_time("anneal", 0.25)
        lines = perf.report().splitlines()
        assert lines[0].split() == ["phase", "self", "s", "calls", "ms/call"]
        assert [line.split()[0] for line in lines[1:]] == [
            "packing",
            "anneal",
            "total",
        ]
        assert lines[-1].split() == ["total", "0.7500"]


class TestNullRecorder:
    def test_accepts_everything_records_nothing(self):
        with NULL_METRICS.timeit("phase"):
            pass
        NULL_METRICS.count("c", 3)
        NULL_METRICS.add_time("t", 1.0)
        assert NULL_METRICS.timers == {}
        assert NULL_METRICS.counters == {}

    def test_null_metrics_is_the_only_null_recorder(self):
        assert set(repro.perf.__all__) == {
            "BoundedCache",
            "CacheStats",
            "CacheContext",
            "format_cache_stats",
            "merge_cache_stats",
        }
        # No recorder (anything with ``timeit``) is left in the cache
        # package, and the registry owns its timers itself.
        assert not any(hasattr(v, "timeit") for v in vars(repro.perf).values())
        assert not inspect.signature(MetricsRegistry).parameters
        assert not hasattr(MetricsRegistry(), "perf")
