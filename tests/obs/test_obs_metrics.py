"""The metrics registry: timers, counters, gauges, histograms, merge.

The registry is the one recorder: timers record exclusive (self) time,
so nested spans add up to their root exactly; counters, gauges and
fixed-bucket histograms sit beside them, and every shape must survive
a ``snapshot`` -> ``merge_snapshot`` round trip so worker registries
fold losslessly into the coordinator's.
"""

import time

import pytest

from repro.anneal import GeometricSchedule
from repro.data import load_mcnc
from repro.engine import AnnealEngine, ObjectiveSpec
from repro.obs import (
    DEFAULT_RATE_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    RunObserver,
)
from repro.perf import CacheStats


class TestHistogram:
    def test_bucket_placement(self):
        hist = Histogram([0.5, 1.0])
        for value in (0.0, 0.5, 0.75, 1.0, 2.0):
            hist.observe(value)
        # Bounds are inclusive upper edges; one overflow bucket.
        assert hist.counts == [2, 2, 1]
        assert hist.count == 5
        assert hist.min == 0.0 and hist.max == 2.0
        assert hist.mean == pytest.approx(4.25 / 5)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram([])
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram([1.0, 1.0])
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram([2.0, 1.0])

    def test_snapshot_merge_round_trip(self):
        a = Histogram([0.5, 1.0])
        b = Histogram([0.5, 1.0])
        a.observe(0.2)
        b.observe(0.9)
        b.observe(1.5)
        a.merge_snapshot(b.snapshot())
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.total == pytest.approx(2.6)
        assert a.min == 0.2 and a.max == 1.5

    def test_merge_empty_keeps_extrema_none(self):
        a = Histogram([1.0])
        a.merge_snapshot(Histogram([1.0]).snapshot())
        assert a.min is None and a.max is None and a.count == 0

    def test_merge_rejects_shape_mismatch(self):
        a = Histogram([0.5])
        with pytest.raises(ValueError, match="bounds mismatch"):
            a.merge_snapshot(Histogram([0.25, 0.5]).snapshot())

    def test_default_rate_buckets_cover_unit_interval(self):
        assert DEFAULT_RATE_BUCKETS[0] == 0.05
        assert DEFAULT_RATE_BUCKETS[-1] == 1.0
        assert len(DEFAULT_RATE_BUCKETS) == 20


class TestMetricsRegistry:
    def test_perf_facade_accumulates(self):
        registry = MetricsRegistry()
        with registry.timeit("packing"):
            pass
        registry.add_time("packing", 0.25)
        registry.count("evaluations", 3)
        snap = registry.snapshot()
        assert snap["timers"]["packing"]["calls"] == 2
        assert snap["timers"]["packing"]["seconds"] >= 0.25
        assert snap["counters"] == {"evaluations": 3}

    def test_gauges_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("temperature", 10.0)
        registry.gauge("temperature", 2.5)
        assert registry.snapshot()["gauges"] == {"temperature": 2.5}

    def test_observe_creates_histogram_on_first_use(self):
        registry = MetricsRegistry()
        registry.observe("move_acceptance_rate", 0.42)
        registry.observe("move_acceptance_rate", 0.97)
        hist = registry.snapshot()["histograms"]["move_acceptance_rate"]
        assert hist["count"] == 2
        assert hist["bounds"] == list(DEFAULT_RATE_BUCKETS)

    def test_cache_gauges_skip_untouched_caches(self):
        registry = MetricsRegistry()
        registry.set_cache_gauges(
            {
                "hot": CacheStats(
                    hits=3, misses=1, size=4, maxsize=8, evictions=0
                ),
                "cold": CacheStats(
                    hits=0, misses=0, size=0, maxsize=8, evictions=0
                ),
            }
        )
        gauges = registry.snapshot()["gauges"]
        assert gauges == {"cache_hit_rate.hot": pytest.approx(0.75)}

    def test_merge_snapshot_folds_every_shape(self):
        worker = MetricsRegistry()
        worker.add_time("packing", 1.0)
        worker.count("evaluations", 5)
        worker.gauge("best_cost", 1.5)
        worker.observe("move_acceptance_rate", 0.3)

        coordinator = MetricsRegistry()
        coordinator.add_time("packing", 0.5)
        coordinator.count("evaluations", 2)
        coordinator.observe("move_acceptance_rate", 0.8)
        coordinator.merge_snapshot(worker.snapshot())

        snap = coordinator.snapshot()
        assert snap["timers"]["packing"]["seconds"] == pytest.approx(1.5)
        assert snap["timers"]["packing"]["calls"] == 2
        assert snap["counters"]["evaluations"] == 7
        assert snap["gauges"]["best_cost"] == 1.5
        assert snap["histograms"]["move_acceptance_rate"]["count"] == 2

    def test_merge_is_json_safe(self):
        """A snapshot survives JSON serialization before merging --
        the exact path worker results take through the pickle seam and
        trace files."""
        import json

        worker = MetricsRegistry()
        worker.count("evaluations", 1)
        worker.observe("move_acceptance_rate", 0.5)
        coordinator = MetricsRegistry()
        coordinator.merge_snapshot(json.loads(json.dumps(worker.snapshot())))
        assert coordinator.snapshot()["counters"]["evaluations"] == 1

    def test_null_registry_discards_everything(self):
        NULL_METRICS.gauge("temperature", 1.0)
        NULL_METRICS.observe("rate", 0.5)
        NULL_METRICS.merge_snapshot({"counters": {"x": 1}})
        snap = NULL_METRICS.snapshot()
        assert snap["gauges"] == {} and snap["histograms"] == {}


class TestExclusiveTime:
    def test_nested_spans_get_exact_self_times(self, monkeypatch):
        # Every span reads the clock once on entry and once on exit.
        ticks = iter([0.0, 1.0, 3.0, 4.0, 8.0, 9.0, 10.0, 11.0, 12.0, 15.0])
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        registry = MetricsRegistry()
        with registry.timeit("root"):  # 0 .. 15
            with registry.timeit("a"):  # 1 .. 8
                with registry.timeit("a.inner"):  # 3 .. 4
                    pass
            with registry.timeit("b"):  # 9 .. 10
                pass
            with registry.timeit("b"):  # 11 .. 12
                pass
        timers = registry.timers
        assert {name: s.seconds for name, s in timers.items()} == {
            "root": 15.0 - 7.0 - 1.0 - 1.0,
            "a": 7.0 - 1.0,
            "a.inner": 1.0,
            "b": 2.0,
        }
        assert timers["b"].calls == 2
        assert sum(s.seconds for s in timers.values()) == 15.0

    def test_span_closed_by_exception_still_records(self, monkeypatch):
        ticks = iter([0.0, 2.0, 5.0, 6.0])
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.timeit("root"):
                with registry.timeit("child"):
                    raise RuntimeError("boom")
        assert registry.timers["child"].seconds == 3.0
        assert registry.timers["root"].seconds == 3.0
        assert registry._open == []


def _ami33_run(observer=None):
    engine = AnnealEngine(
        load_mcnc("ami33"),
        representation="polish",
        objective_spec=ObjectiveSpec(
            gamma=1.0, pin_grid_size=30.0, congestion_grid_size=30.0
        ),
        seed=3,
        moves_per_temperature=20,
        schedule=GeometricSchedule(
            cooling_rate=0.8, freeze_ratio=1e-3, max_steps=8
        ),
    )
    return engine.run(observer=observer)


def test_ami33_self_times_fit_inside_the_run():
    plain = _ami33_run()
    observed = _ami33_run(RunObserver())
    walk = lambda r: (  # noqa: E731
        r.breakdown,
        r.n_moves,
        r.n_accepted,
        sorted(r.floorplan.placements.items()),
    )
    assert walk(observed) == walk(plain)
    for result in (plain, observed):
        timers = result.perf.timers
        assert {
            "anneal",
            "packing",
            "pin_assignment",
            "mst",
            "wirelength",
            "congestion",
            "congestion.irgrid_build",
            "congestion.mass_eval",
            "congestion.scoring",
        } <= set(timers)
        assert timers["anneal"].calls == 1
        assert all(s.seconds >= 0.0 for s in timers.values())
        assert sum(s.seconds for s in timers.values()) <= (
            result.runtime_seconds
        )
