"""Cross-module integration tests: the full pipeline end to end."""

import random

import pytest

from repro import (
    AnnealEngine,
    FixedGridModel,
    FloorplanObjective,
    IrregularGridModel,
    JudgingModel,
    assign_pins,
    clustered_circuit,
    evaluate_polish,
    initial_expression,
)
from repro.anneal import GeometricSchedule
from repro.data import load_mcnc
from repro.floorplan import SequencePair, pack_sequence_pair
from repro.metrics import total_two_pin_length
from repro.routing import GlobalRouter, RoutingGrid, overflow_report
from repro.routing.overflow import rank_correlation

FAST = GeometricSchedule(cooling_rate=0.6, freeze_ratio=0.05, max_steps=6)


class TestFullPipeline:
    def test_mcnc_to_congestion_map(self):
        """load -> pack -> pins -> IR model -> score, on real scale."""
        circuit = load_mcnc("hp")
        expr = initial_expression(
            [m.name for m in circuit.modules], random.Random(0)
        )
        floorplan = evaluate_polish(
            expr, {m.name: m for m in circuit.modules}
        )
        floorplan.validate()
        assignment = assign_pins(floorplan, circuit, 30.0)
        assert assignment.n_two_pin >= circuit.n_nets
        model = IrregularGridModel(30.0)
        cmap, irgrid = model.evaluate_with_grid(
            floorplan.chip, assignment.two_pin_nets
        )
        assert irgrid.n_cells == cmap.n_cells
        assert model.score(cmap) > 0
        assert cmap.total_mass > 0

    def test_congestion_aware_beats_blind_on_congested_circuit(self):
        """The paper's core claim (Experiment 1) on a small clustered
        circuit: adding the IR term reduces judged congestion."""
        circuit = clustered_circuit(
            10, 40, n_clusters=2, intra_cluster_prob=0.9, seed=5
        )
        judge = JudgingModel(grid_size=15.0)

        def run(gamma):
            if gamma:
                obj = FloorplanObjective(
                    circuit,
                    alpha=1,
                    beta=1,
                    gamma=gamma,
                    congestion_model=IrregularGridModel(60.0),
                )
            else:
                obj = FloorplanObjective(
                    circuit, alpha=1, beta=1, pin_grid_size=60.0
                )
            costs = []
            for seed in range(3):
                engine = AnnealEngine(
                    circuit,
                    representation="polish",
                    objective=obj,
                    seed=seed,
                    schedule=GeometricSchedule(
                        cooling_rate=0.7, freeze_ratio=0.02, max_steps=12
                    ),
                    moves_per_temperature=40,
                )
                result = engine.run()
                costs.append(judge.judge(result.floorplan, circuit))
            return sum(costs) / len(costs)

        blind = run(0.0)
        aware = run(1.5)
        # Direction check with slack for annealing noise: congestion-
        # aware must not be materially worse.
        assert aware <= blind * 1.10

    def test_ir_estimate_correlates_with_routed_overflow(self):
        """Extension: the model's density map must rank-correlate with
        an actual router's per-cell utilization."""
        circuit = load_mcnc("hp")
        rng = random.Random(2)
        expr = initial_expression([m.name for m in circuit.modules], rng)
        floorplan = evaluate_polish(expr, {m.name: m for m in circuit.modules})
        assignment = assign_pins(floorplan, circuit, 30.0)

        grid = RoutingGrid(floorplan.chip, cell_size=100.0, capacity=20)
        GlobalRouter(grid).route(assignment.two_pin_nets)
        util = grid.cell_utilization()

        fixed = FixedGridModel(100.0)
        estimate = fixed.evaluate_array(floorplan.chip, assignment.two_pin_nets)
        # Compare on the common shape.
        n_c = min(util.shape[0], estimate.shape[0])
        n_r = min(util.shape[1], estimate.shape[1])
        corr = rank_correlation(
            util[:n_c, :n_r].ravel(), estimate[:n_c, :n_r].ravel()
        )
        assert corr > 0.5

        report = overflow_report(grid)
        assert report.n_edges > 0

    def test_sequence_pair_floorplans_judge_comparably(self):
        """The congestion model is floorplanner-agnostic: it scores
        sequence-pair packings just as it scores slicing packings."""
        circuit = load_mcnc("hp")
        rng = random.Random(4)
        sp = SequencePair.initial([m.name for m in circuit.modules], rng)
        floorplan = pack_sequence_pair(sp, {m.name: m for m in circuit.modules})
        floorplan.validate()
        assignment = assign_pins(floorplan, circuit, 30.0)
        score = IrregularGridModel(30.0).estimate(
            floorplan.chip, assignment.two_pin_nets
        )
        assert score > 0

    def test_wirelength_decreases_under_wl_objective(self):
        circuit = load_mcnc("hp")
        obj = FloorplanObjective(circuit, alpha=0.2, beta=2.0, pin_grid_size=30.0)
        engine = AnnealEngine(
            circuit,
            representation="polish",
            objective=obj,
            seed=0,
            schedule=FAST,
            moves_per_temperature=30,
        )
        result = engine.run()
        first_wl = result.snapshots[0].breakdown.wirelength
        assert result.breakdown.wirelength <= first_wl * 1.001

    def test_exact_and_approx_scores_track_each_other(self):
        """Across random floorplans the Theorem-1 score must stay close
        to the exact Formula-3 score (the approximation's purpose)."""
        circuit = load_mcnc("ami33")
        modules = {m.name: m for m in circuit.modules}
        approx = IrregularGridModel(30.0, method="approx")
        exact = IrregularGridModel(30.0, method="exact")
        rng = random.Random(9)
        for _ in range(3):
            expr = initial_expression(list(modules), rng)
            floorplan = evaluate_polish(expr, modules)
            assignment = assign_pins(floorplan, circuit, 30.0)
            sa = approx.estimate(floorplan.chip, assignment.two_pin_nets)
            se = exact.estimate(floorplan.chip, assignment.two_pin_nets)
            assert sa == pytest.approx(se, rel=0.05)

    def test_wirelength_metric_consistency(self):
        circuit = load_mcnc("hp")
        rng = random.Random(1)
        expr = initial_expression([m.name for m in circuit.modules], rng)
        floorplan = evaluate_polish(expr, {m.name: m for m in circuit.modules})
        assignment = assign_pins(floorplan, circuit, 30.0)
        wl = total_two_pin_length(assignment.two_pin_nets)
        assert wl > 0
        # Every 2-pin length is bounded by the chip half-perimeter.
        for net in assignment.two_pin_nets:
            assert net.manhattan_length <= floorplan.chip.half_perimeter + 1e-6
