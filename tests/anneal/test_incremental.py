"""Tests for the incremental (dirty-net delta) objective evaluation.

The delta path must agree with the from-scratch pipeline to float dust
on arbitrary move sequences -- these tests drive both evaluators over
seeded random walks and assert agreement, exercise ``strict_incremental``
as a tripwire (clean runs pass, corrupted state raises), and check the
perf counters that feed the annealing report.
"""

import math
import random

import pytest

from repro.anneal import FloorplanObjective
from repro.anneal.schedule import GeometricSchedule
from repro.congestion import IrregularGridModel
from repro.engine import AnnealEngine
from repro.floorplan import initial_expression
from repro.netlist import random_circuit
from repro.obs import MetricsRegistry


def _walk(netlist, n_steps, seed):
    rng = random.Random(seed)
    names = [m.name for m in netlist.modules]
    expr = initial_expression(names, rng)
    out = []
    for _ in range(n_steps):
        expr = expr.random_neighbor(rng)
        out.append(expr)
    return out


def _pair(netlist, grid, gamma=1.0, strict=False):
    """(incremental, full) objectives over the same circuit."""
    fast = FloorplanObjective(
        netlist,
        alpha=1.0,
        beta=1.0,
        gamma=gamma,
        congestion_model=IrregularGridModel(grid) if gamma > 0 else None,
        incremental=True,
        strict_incremental=strict,
    )
    full = FloorplanObjective(
        netlist,
        alpha=1.0,
        beta=1.0,
        gamma=gamma,
        congestion_model=(
            IrregularGridModel(grid, use_cache=False) if gamma > 0 else None
        ),
        incremental=False,
    )
    return fast, full


class TestDeltaAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_full_path_over_walk(self, seed):
        netlist = random_circuit(14, 40, seed=seed)
        grid = max(math.sqrt(netlist.total_module_area) / 20.0, 1e-6)
        fast, full = _pair(netlist, grid)
        for expr in _walk(netlist, 80, seed):
            a = fast.evaluate_expression(expr)
            b = full.evaluate_expression(expr)
            assert math.isclose(
                a.wirelength, b.wirelength, rel_tol=1e-12, abs_tol=1e-12
            )
            assert math.isclose(
                a.congestion, b.congestion, rel_tol=1e-12, abs_tol=1e-12
            )
            assert math.isclose(a.cost, b.cost, rel_tol=1e-12, abs_tol=1e-12)

    def test_wirelength_only_objective(self):
        netlist = random_circuit(10, 25, seed=4)
        fast, full = _pair(netlist, 30.0, gamma=0.0)
        for expr in _walk(netlist, 50, 4):
            a = fast.evaluate_expression(expr)
            b = full.evaluate_expression(expr)
            assert math.isclose(
                a.wirelength, b.wirelength, rel_tol=1e-12, abs_tol=1e-12
            )
            assert a.congestion == b.congestion == 0.0

    def test_repeated_expression_is_stable(self):
        netlist = random_circuit(8, 20, seed=5)
        grid = max(math.sqrt(netlist.total_module_area) / 20.0, 1e-6)
        fast, _ = _pair(netlist, grid)
        expr = _walk(netlist, 5, 5)[-1]
        first = fast.evaluate_expression(expr)
        second = fast.evaluate_expression(expr)
        assert first == second

    def test_invalidate_forces_full_eval(self):
        netlist = random_circuit(8, 20, seed=6)
        grid = max(math.sqrt(netlist.total_module_area) / 20.0, 1e-6)
        fast, _ = _pair(netlist, grid)
        perf = MetricsRegistry()
        fast.perf = perf
        exprs = _walk(netlist, 3, 6)
        fast.evaluate_expression(exprs[0])
        fast.invalidate()
        fast.evaluate_expression(exprs[1])
        assert perf.counters["eval_full"] == 2


class TestStrictMode:
    def test_clean_run_passes(self):
        netlist = random_circuit(10, 30, seed=7)
        grid = max(math.sqrt(netlist.total_module_area) / 20.0, 1e-6)
        fast, _ = _pair(netlist, grid, strict=True)
        for expr in _walk(netlist, 30, 7):
            fast.evaluate_expression(expr)

    def test_corrupted_wirelength_raises(self):
        netlist = random_circuit(10, 30, seed=8)
        grid = max(math.sqrt(netlist.total_module_area) / 20.0, 1e-6)
        fast, _ = _pair(netlist, grid, strict=True)
        expr = _walk(netlist, 3, 8)[-1]
        fast.evaluate_expression(expr)
        # Corrupt the memoized total: re-evaluating the same floorplan
        # reuses it, and the strict re-check must catch the drift.
        fast._state.wirelength += 1000.0
        with pytest.raises(AssertionError):
            fast.evaluate_expression(expr)

    def test_corrupted_congestion_raises(self):
        netlist = random_circuit(10, 30, seed=8)
        grid = max(math.sqrt(netlist.total_module_area) / 20.0, 1e-6)
        fast, _ = _pair(netlist, grid, strict=True)
        expr = _walk(netlist, 3, 8)[-1]
        fast.evaluate_expression(expr)
        fast._state.congestion += 1000.0
        with pytest.raises(AssertionError):
            fast.evaluate_expression(expr)

    def test_full_anneal_with_strict_completes(self):
        netlist = random_circuit(8, 20, seed=9)
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
        engine = AnnealEngine(
            netlist,
            objective=objective,
            seed=9,
            moves_per_temperature=8,
            schedule=GeometricSchedule(cooling_rate=0.5, freeze_ratio=0.1),
        )
        result = engine.run()
        assert result.n_moves > 0


class TestPerfCounters:
    def test_counters_fire_over_walk(self):
        netlist = random_circuit(12, 30, seed=10)
        grid = max(math.sqrt(netlist.total_module_area) / 20.0, 1e-6)
        fast, _ = _pair(netlist, grid)
        perf = MetricsRegistry()
        fast.perf = perf
        exprs = _walk(netlist, 40, 10)
        for expr in exprs:
            fast.evaluate_expression(expr)
        # Re-evaluating the last expression exercises the unchanged path.
        fast.evaluate_expression(exprs[-1])
        assert perf.counters["eval_full"] >= 1
        assert perf.counters["eval_delta"] >= 1
        assert perf.counters["eval_unchanged"] >= 1
        assert perf.counters["congestion_skipped"] >= 1
        assert perf.counters["nets_redone"] > 0
        assert "pin_assignment" in perf.timers
        assert "mst" in perf.timers
        assert "congestion" in perf.timers

    def test_engine_reports_incremental_counters(self):
        netlist = random_circuit(8, 20, seed=11)
        grid = max(math.sqrt(netlist.total_module_area) / 20.0, 1e-6)
        objective = FloorplanObjective(
            netlist,
            alpha=1.0,
            beta=1.0,
            gamma=1.0,
            congestion_model=IrregularGridModel(grid),
            incremental=True,
        )
        engine = AnnealEngine(
            netlist,
            objective=objective,
            seed=11,
            moves_per_temperature=8,
            schedule=GeometricSchedule(cooling_rate=0.5, freeze_ratio=0.1),
        )
        result = engine.run()
        assert result.perf.counters.get("eval_delta", 0) > 0
        assert result.perf.counters.get("evaluations", 0) > 0
        assert result.moves_per_second > 0
