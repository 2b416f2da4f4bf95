"""Worker -> coordinator progress streaming over the supervision seam.

Progress snapshots and metrics registries are collected inside worker
processes, ride home as plain data on :class:`EngineResult`, and merge
into the coordinator's observer -- identically whether restarts run
sequentially or on a process pool.  The same seam now also carries
per-restart cache statistics into :class:`RunReport`, fixing the old behavior where ``--perf`` tables
silently dropped everything measured in workers.
"""

import json

import pytest

from repro.anneal import GeometricSchedule
from repro.engine import (
    DriverConfig,
    ObjectiveSpec,
    RunReport,
    make_driver,
)
from repro.netlist import random_circuit
from repro.obs import ObsPlan, ProgressSnapshot, RunObserver, Tracer


@pytest.fixture(scope="module")
def netlist():
    return random_circuit(8, 20, seed=3)


_SPEC = ObjectiveSpec(
    gamma=1.0,
    pin_grid_size=30.0,
    congestion_grid_size=30.0,
    strict_incremental=True,
)

_SCHEDULE = GeometricSchedule(
    cooling_rate=0.85, freeze_ratio=1e-3, max_steps=30
)


def _multistart(netlist, workers, progress_every=0, top_k=3):
    return make_driver(
        "multistart",
        DriverConfig(
            netlist,
            representation="polish",
            restarts=3,
            seed=1,
            objective_spec=_SPEC,
            moves_per_temperature=35,
            schedule=_SCHEDULE,
            workers=workers,
            progress_every=progress_every,
            progress_top_k=top_k,
        ),
    )


class TestObsPlan:
    def test_disabled_plan_builds_no_observer(self):
        plan = ObsPlan(progress_every=0)
        assert not plan.enabled
        assert plan.build_observer() is None

    def test_enabled_plan_builds_tracerless_observer(self):
        observer = ObsPlan(progress_every=2, top_k=1).build_observer()
        assert observer.progress_every == 2
        assert not observer.tracer.enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            ObsPlan(progress_every=-1)
        with pytest.raises(ValueError):
            ObsPlan(progress_every=1, top_k=-1)


class TestProgressSnapshot:
    def test_json_round_trip(self):
        snapshot = ProgressSnapshot(
            step=4,
            temperature=0.5,
            current_cost=2.0,
            best_cost=1.5,
            n_moves=140,
            n_accepted=80,
            elapsed_seconds=0.25,
            top_densities=(1.25, 1.0),
        )
        data = json.loads(json.dumps(snapshot.to_json()))
        assert ProgressSnapshot.from_json(data) == snapshot


class TestTopDensityPaths:
    """The committed-arrays fast path agrees with the scalar fallback.

    Snapshot-time top densities are read straight off the incremental
    pipeline's committed edge arrays when available; the from-scratch
    pin-assignment path must produce the same values, because pool and
    sequential runs (and incremental and seed objectives) may take
    different branches of the same observer.
    """

    def test_committed_array_path_matches_scalar_fallback(self, netlist):
        from dataclasses import replace

        from repro.engine import AnnealEngine
        from repro.obs import top_congestion_densities
        from repro.perf import CacheContext

        floorplan = AnnealEngine(
            netlist,
            representation="polish",
            objective_spec=_SPEC,
            seed=7,
            moves_per_temperature=10,
            schedule=GeometricSchedule(
                cooling_rate=0.7, freeze_ratio=1e-2, max_steps=5
            ),
        ).run().floorplan

        incremental = _SPEC.build(netlist, CacheContext())
        incremental.evaluate_floorplan(floorplan)
        incremental.commit()
        assert incremental.pipeline.committed is not None

        def must_not_realize():
            raise AssertionError("fast path must not materialize")

        fast = top_congestion_densities(incremental, must_not_realize, 4)

        scalar = replace(
            _SPEC, incremental=False, strict_incremental=False
        ).build(netlist, CacheContext())
        assert scalar.pipeline.committed is None
        slow = top_congestion_densities(scalar, floorplan, 4)

        assert len(fast) == 4
        assert fast == slow


class TestWorkerStreaming:
    def test_snapshots_reach_coordinator_pool_and_sequential(
        self, netlist, tmp_path
    ):
        outcomes = {}
        for workers in (1, 2):
            observer = RunObserver(
                tracer=Tracer(tmp_path / f"w{workers}.jsonl")
            )
            outcome = _multistart(
                netlist, workers, progress_every=2, top_k=2
            ).run(observer=observer)
            observer.finalize()
            outcomes[workers] = (outcome, observer)

        seq_outcome, seq_observer = outcomes[1]
        pool_outcome, pool_observer = outcomes[2]
        # The search itself is bit-identical across pool sizes...
        assert seq_outcome.best.cost == pool_outcome.best.cost
        assert [r.n_moves for r in seq_outcome.results] == [
            r.n_moves for r in pool_outcome.results
        ]
        # ...and so is the progress stream that came home (modulo
        # elapsed wall-clock, which legitimately varies per run).
        def stream(observer):
            return [
                {
                    k: v
                    for k, v in s.to_json().items()
                    if k != "elapsed_seconds"
                }
                for s in observer.progress
            ]

        seq_stream = stream(seq_observer)
        pool_stream = stream(pool_observer)
        assert seq_stream and seq_stream == pool_stream
        # Every result carried its own snapshots and metrics payload.
        for result in pool_outcome.results:
            assert result.progress
            assert result.metrics["counters"]["evaluations"] > 0
        # The coordinator folded worker metrics into one registry.
        merged = pool_observer.metrics.snapshot()
        assert merged["counters"]["evaluations"] == sum(
            r.metrics["counters"]["evaluations"]
            for r in pool_outcome.results
        )

    def test_reports_carry_cache_stats(self, netlist):
        outcome = _multistart(netlist, 2).run()
        for report in outcome.reports:
            assert report.status == "ok"
            assert report.cache_stats  # measured inside the worker
        merged = outcome.merged_perf()
        assert merged.timers and merged.counters
        caches = outcome.merged_cache_stats()
        assert caches
        # Folded lookups equal the per-restart sums.
        name, stats = next(iter(caches.items()))
        assert stats.lookups == sum(
            r.cache_stats[name].lookups for r in outcome.results
        )

    def test_run_report_round_trips_new_fields(self):
        report = RunReport(seed=3)
        report.cache_stats = {
            "subtree_shapes": {
                "hits": 10, "misses": 2, "size": 2,
                "maxsize": 8, "evictions": 0,
            }
        }
        restored = RunReport.from_json(json.loads(json.dumps(report.to_json())))
        assert restored.cache_stats == report.cache_stats
        # Old checkpoints without the field, or with the removed
        # JIT warm-up field, still load.
        legacy = report.to_json()
        del legacy["cache_stats"]
        legacy["jit_compile_seconds"] = 0.0
        restored = RunReport.from_json(legacy)
        assert restored.cache_stats == {}


class TestDriverLedgerEvidence:
    def _config(self, netlist, **overrides):
        defaults = dict(
            netlist=netlist,
            restarts=3,
            rounds=2,
            seed=1,
            objective_spec=_SPEC,
            moves_per_temperature=35,
            schedule=_SCHEDULE,
            progress_every=1,
        )
        defaults.update(overrides)
        return DriverConfig(**defaults)

    def test_portfolio_allocations_hit_the_trace(self, netlist, tmp_path):
        path = tmp_path / "portfolio.jsonl"
        observer = RunObserver(tracer=Tracer(path, flush_every=1))
        outcome = make_driver("portfolio", self._config(netlist)).run(
            observer=observer
        )
        observer.finalize()
        from repro.obs import iter_trace

        records = list(iter_trace(path))
        allocations = [r for r in records if r["name"] == "allocation"]
        # Every ledger entry left evidence on disk, attrs intact.
        assert [r["attrs"] for r in allocations] == json.loads(
            json.dumps(outcome.ledger["rounds"])
        )
        assert [r for r in records if r["kind"] == "progress"]
        planned = [r for r in records if r["name"] == "leg_planned"]
        assert len(planned) == sum(
            len(entry["legs"]) for entry in outcome.ledger["rounds"]
        )
        snap = observer.metrics.snapshot()
        slot_counters = {
            k: v for k, v in snap["counters"].items() if k.startswith("slots[")
        }
        assert sum(slot_counters.values()) == len(planned)
