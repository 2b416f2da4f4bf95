"""Tests for best-of-N multi-start annealing.

The load-bearing property is determinism: because every restart owns a
fresh cache context and a fresh objective built from a picklable spec,
a process-pool run must be bit-identical to the sequential run over the
same seeds.
"""

import pytest

from repro.anneal.schedule import GeometricSchedule
from repro.engine import (
    AnnealEngine,
    DriverConfig,
    ObjectiveSpec,
    SearchResult,
    make_driver,
)
from repro.netlist import random_circuit

SHORT = GeometricSchedule(cooling_rate=0.5, freeze_ratio=0.1)


def _multi(netlist, **kwargs):
    kwargs.setdefault("restarts", 3)
    kwargs.setdefault("seed", 20)
    kwargs.setdefault("moves_per_temperature", 3 * netlist.n_modules)
    kwargs.setdefault("schedule", SHORT)
    return make_driver("multistart", DriverConfig(netlist, **kwargs))


class TestMultiStart:
    def test_runs_distinct_seeds_and_picks_min(self):
        netlist = random_circuit(8, 20, seed=12)
        outcome = _multi(netlist).run()
        assert isinstance(outcome, SearchResult)
        assert outcome.driver == "multistart"
        assert outcome.ledger == {}
        assert [r.seed for r in outcome.results] == [20, 21, 22]
        assert outcome.best_cost == min(outcome.costs)
        assert outcome.best.cost == outcome.best_cost

    def test_restart_matches_standalone_engine(self):
        netlist = random_circuit(8, 20, seed=13)
        outcome = _multi(netlist, restarts=2).run()
        solo = AnnealEngine(
            netlist,
            representation="polish",
            seed=21,
            moves_per_temperature=3 * netlist.n_modules,
            schedule=SHORT,
        ).run()
        assert outcome.results[1].cost == solo.cost
        assert outcome.results[1].n_moves == solo.n_moves

    def test_parallel_is_bit_identical_to_sequential(self):
        netlist = random_circuit(8, 20, seed=14)
        sequential = _multi(netlist, workers=1).run()
        pooled = _multi(netlist, workers=3).run()
        assert pooled.workers == 3
        assert pooled.costs == sequential.costs
        assert pooled.best.seed == sequential.best.seed
        assert pooled.best.cost == sequential.best.cost
        assert pooled.best.breakdown == sequential.best.breakdown
        for a, b in zip(pooled.results, sequential.results):
            assert a.n_moves == b.n_moves
            assert a.n_accepted == b.n_accepted

    def test_pooled_results_carry_perf_and_cache_stats(self):
        netlist = random_circuit(6, 12, seed=15)
        outcome = _multi(netlist, restarts=2, workers=2).run()
        for r in outcome.results:
            assert r.perf is not None
            assert r.perf.counters.get("evaluations", 0) > 0
            assert r.cache_stats["subtree_shapes"].lookups > 0

    @pytest.mark.parametrize("name", ["sp", "btree"])
    def test_other_representations_multistart(self, name):
        netlist = random_circuit(6, 12, seed=16)
        outcome = _multi(netlist, restarts=2, representation=name).run()
        assert all(r.representation == name for r in outcome.results)
        assert outcome.best_cost > 0

    def test_objective_spec_reaches_restarts(self):
        netlist = random_circuit(6, 12, seed=17)
        spec = ObjectiveSpec(alpha=1.0, beta=0.0, gamma=0.0)
        outcome = _multi(netlist, restarts=2, objective_spec=spec).run()
        for r in outcome.results:
            assert r.breakdown.wirelength == 0.0

    def test_rejects_bad_counts(self):
        netlist = random_circuit(4, 8, seed=18)
        with pytest.raises(ValueError):
            _multi(netlist, restarts=0)
        with pytest.raises(ValueError):
            _multi(netlist, workers=0)
