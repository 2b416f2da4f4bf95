"""Tests for the unified annealing engine.

The engine must own its caches so concurrent engines never interact,
and support every registered representation through the incremental
objective.
"""

import math

import pytest

from repro.anneal import FloorplanObjective
from repro.anneal.schedule import GeometricSchedule
from repro.congestion import IrregularGridModel
from repro.engine import AnnealEngine, CacheContext, EngineResult
from repro.netlist import random_circuit

SHORT = GeometricSchedule(cooling_rate=0.5, freeze_ratio=0.1)


def _engine(netlist, representation, seed=0, **kwargs):
    kwargs.setdefault("moves_per_temperature", 3 * netlist.n_modules)
    kwargs.setdefault("schedule", SHORT)
    return AnnealEngine(netlist, representation=representation, seed=seed,
                        **kwargs)


class TestEngineBasics:
    @pytest.mark.parametrize("name", ["polish", "sp", "btree"])
    def test_runs_every_representation(self, name):
        netlist = random_circuit(8, 20, seed=1)
        result = _engine(netlist, name, seed=1).run()
        assert isinstance(result, EngineResult)
        assert result.representation == name
        assert result.seed == 1
        assert result.n_moves > 0
        assert result.cost > 0
        assert len(result.floorplan.placements) == netlist.n_modules

    def test_same_seed_is_deterministic(self):
        netlist = random_circuit(8, 20, seed=2)
        a = _engine(netlist, "polish", seed=5).run()
        b = _engine(netlist, "polish", seed=5).run()
        assert a.cost == b.cost
        assert a.n_moves == b.n_moves
        assert a.n_accepted == b.n_accepted

    def test_result_carries_cache_stats(self):
        netlist = random_circuit(8, 20, seed=3)
        result = _engine(netlist, "polish", seed=3).run()
        assert set(result.cache_stats) == {
            "exact_prob", "net_mass", "net_matrix", "subtree_shapes",
        }
        assert result.cache_stats["subtree_shapes"].lookups > 0

    def test_objective_and_factory_are_exclusive(self):
        netlist = random_circuit(4, 8, seed=4)
        objective = FloorplanObjective(netlist)
        with pytest.raises(ValueError):
            AnnealEngine(
                netlist,
                objective=objective,
                objective_factory=lambda n, ctx: FloorplanObjective(
                    n, cache_context=ctx
                ),
            )

    def test_ready_objective_rejects_extra_context(self):
        netlist = random_circuit(4, 8, seed=4)
        with pytest.raises(ValueError):
            AnnealEngine(
                netlist,
                objective=FloorplanObjective(netlist),
                cache_context=CacheContext(),
            )

    def test_engine_adopts_objective_context(self):
        netlist = random_circuit(4, 8, seed=5)
        objective = FloorplanObjective(netlist)
        engine = AnnealEngine(netlist, objective=objective)
        assert engine.cache_context is objective.cache_context


class TestCacheIsolation:
    def test_concurrent_engines_never_cross_pollute(self):
        """Two engines over different circuits, run interleaved at the
        evaluation level, keep private caches and identical-to-solo
        results."""
        net_a = random_circuit(8, 20, seed=8)
        net_b = random_circuit(12, 30, seed=9)

        solo_a = _engine(net_a, "polish", seed=8).run()
        solo_b = _engine(net_b, "polish", seed=9).run()

        engine_a = _engine(net_a, "polish", seed=8)
        engine_b = _engine(net_b, "polish", seed=9)
        assert engine_a.cache_context is not engine_b.cache_context

        # Interleave: run B fully between A's construction and A's run,
        # then assert A is byte-identical to its solo run (B's cache
        # traffic, eviction pressure and accounting never reached A).
        inter_b = engine_b.run()
        inter_a = engine_a.run()
        assert inter_a.cost == solo_a.cost
        assert inter_a.n_moves == solo_a.n_moves
        assert inter_b.cost == solo_b.cost

        stats_a = engine_a.cache_context.stats()["subtree_shapes"]
        stats_b = engine_b.cache_context.stats()["subtree_shapes"]
        # Each context saw exactly its own engine's traffic.
        assert stats_a.lookups == solo_a.cache_stats["subtree_shapes"].lookups
        assert stats_b.lookups == solo_b.cache_stats["subtree_shapes"].lookups


class TestStrictIncrementalRepresentations:
    """sp and btree floorplans through the incremental objective with
    the strict (delta == full to 1e-12) tripwire armed, over long
    seeded walks."""

    @pytest.mark.parametrize("name", ["sp", "btree"])
    def test_strict_walk_200_moves(self, name):
        import random as _random

        from repro.engine import make_representation

        netlist = random_circuit(10, 30, seed=10)
        grid = max(math.sqrt(netlist.total_module_area) / 20.0, 1e-6)
        objective = FloorplanObjective(
            netlist,
            alpha=1.0,
            beta=1.0,
            gamma=1.0,
            congestion_model=IrregularGridModel(grid),
            incremental=True,
            strict_incremental=True,
        )
        rep = make_representation(
            name, netlist, cache_context=objective.cache_context
        )
        from repro.obs import MetricsRegistry

        objective.perf = MetricsRegistry()
        rng = _random.Random(10)
        state = rep.initial(rng)
        for _ in range(200):
            state = rep.neighbor(state, rng)
            objective.evaluate_floorplan(rep.realize(state))
        perf = objective.perf
        assert perf.counters.get("eval_delta", 0) > 0

    @pytest.mark.parametrize("name", ["sp", "btree"])
    def test_strict_anneal_completes(self, name):
        netlist = random_circuit(8, 20, seed=11)
        grid = max(math.sqrt(netlist.total_module_area) / 20.0, 1e-6)

        def factory(n, ctx):
            return FloorplanObjective(
                n,
                alpha=1.0,
                beta=1.0,
                gamma=1.0,
                congestion_model=IrregularGridModel(grid),
                incremental=True,
                strict_incremental=True,
                cache_context=ctx,
            )

        result = _engine(
            netlist, name, seed=11, objective_factory=factory
        ).run()
        assert result.n_moves > 0


def test_checkpointed_run_frees_engine_by_refcount(tmp_path):
    """The control keeps the checkpoint writer; the writer must not
    keep the control, or the cycle holds the whole engine (netlist,
    caches, evaluation state) until a full collection -- memory a
    long-lived pool worker would pile up job after job."""
    import gc
    import weakref

    from repro.engine import RunControl

    netlist = random_circuit(6, 8, seed=3)
    gc.collect()
    gc.disable()
    try:
        engine = _engine(netlist, "sp", seed=1)
        control = RunControl(checkpoint_path=tmp_path / "run.ckpt")
        engine.run(control=control)
        assert control.checkpoints_written > 0
        ref = weakref.ref(engine)
        del engine, control
        assert ref() is None
    finally:
        gc.enable()
