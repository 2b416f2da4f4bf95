"""Edge-case tests for the whole-floorplan batched evaluator."""

import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.congestion import batched
from repro.congestion.batched import (
    batched_approx_mass,
    batched_approx_mass_arrays,
    batched_edge_contributions,
)
from repro.congestion.irgrid import build_irgrid, build_irgrid_arrays
from repro.engine.representation import make_representation
from repro.geometry import Point, Rect
from repro.netlist import (
    TwoPinArrays,
    TwoPinNet,
    nets_to_arrays,
    random_circuit,
)
from repro.pins import assign_pins

CHIP = Rect(0, 0, 600, 600)


def net(x1, y1, x2, y2, name="n", weight=1.0):
    return TwoPinNet(name, Point(x1, y1), Point(x2, y2), weight=weight)


def evaluate(nets, grid_size=30.0, merge_factor=2.0):
    irgrid = build_irgrid(CHIP, nets, grid_size, merge_factor)
    return irgrid, batched_approx_mass(irgrid, nets, grid_size)


class TestEdgeCases:
    def test_no_nets(self):
        irgrid, mass = evaluate([])
        assert mass.shape == (1, 1)
        assert mass.sum() == 0.0

    def test_only_degenerate_nets(self):
        nets = [
            net(0, 300, 600, 300, "h"),
            net(300, 0, 300, 600, "v"),
            net(150, 150, 150, 150, "pt"),
        ]
        irgrid, mass = evaluate(nets)
        assert mass.max() <= 3.0 + 1e-12
        assert mass.sum() > 0

    def test_single_type_i_net_pins_certain(self):
        nets = [net(0, 0, 600, 600)]
        irgrid, mass = evaluate(nets, merge_factor=0.0)
        assert mass[0, 0] == pytest.approx(1.0)
        assert mass[-1, -1] == pytest.approx(1.0)

    def test_single_type_ii_net_pins_certain(self):
        nets = [net(0, 600, 600, 0)]
        irgrid, mass = evaluate(nets, merge_factor=0.0)
        assert mass[0, -1] == pytest.approx(1.0)
        assert mass[-1, 0] == pytest.approx(1.0)

    def test_mass_conservation_row(self):
        """For one net, summing crossing probabilities over any IR-grid
        row that slices the whole routing range must be >= 1 (every
        route passes through the row) and <= the row's cell count."""
        nets = [net(0, 0, 600, 600), net(90, 60, 510, 540, "b")]
        irgrid, mass = evaluate(nets, merge_factor=0.0)
        row_sums = mass.sum(axis=0)
        assert (row_sums >= 1.0 - 1e-9).all()

    def test_weights_respected(self):
        nets_a = [net(30, 30, 570, 510, weight=2.0)]
        nets_b = [net(30, 30, 570, 510, weight=1.0)]
        _, mass_a = evaluate(nets_a)
        _, mass_b = evaluate(nets_b)
        assert np.allclose(mass_a, 2.0 * mass_b)

    def test_mixed_types_superpose(self):
        n1 = net(30, 30, 570, 510, "t1")
        n2 = net(30, 510, 570, 30, "t2")
        ir_both = build_irgrid(CHIP, [n1, n2], 30.0, 2.0)
        both = batched_approx_mass(ir_both, [n1, n2], 30.0)
        only1 = batched_approx_mass(ir_both, [n1], 30.0)
        only2 = batched_approx_mass(ir_both, [n2], 30.0)
        assert np.allclose(both, only1 + only2, atol=1e-12)

    def test_probabilities_never_exceed_one_per_net(self):
        nets = [net(15, 25, 585, 575)]
        _, mass = evaluate(nets)
        assert mass.max() <= 1.0 + 1e-9

    def test_tiny_chip_single_cell(self):
        chip = Rect(0, 0, 10, 10)
        n = net(1, 1, 9, 9)
        irgrid = build_irgrid(chip, [n], grid_size=30.0)
        mass = batched_approx_mass(irgrid, [n], 30.0)
        # Whole chip one cell: the net certainly crosses it.
        assert mass.shape == (1, 1)
        assert mass[0, 0] == pytest.approx(1.0)


class TestPaperBoundsFlag:
    def test_batched_matches_per_net_with_paper_bounds(self):
        from repro.congestion import IrregularGridModel

        nets = [
            net(30, 30, 570, 510, "a"),
            net(60, 480, 540, 60, "b"),
        ]
        model = IrregularGridModel(30.0, paper_bounds=True)
        irgrid = build_irgrid(CHIP, nets, 30.0, 2.0)
        reference = np.zeros((irgrid.n_columns, irgrid.n_rows))
        for n in nets:
            model._add_net(irgrid, n, reference)
        batched = batched_approx_mass(irgrid, nets, 30.0, paper_bounds=True)
        assert np.abs(batched - reference).max() < 1e-9

    def test_paper_bounds_change_the_map(self):
        # merge_factor 0 keeps interior non-pin cells, where the
        # integration bounds matter.
        nets = [net(30, 30, 570, 510, "a"), net(120, 90, 480, 450, "b")]
        irgrid = build_irgrid(CHIP, nets, 30.0, 0.0)
        default = batched_approx_mass(irgrid, nets, 30.0, paper_bounds=False)
        paper = batched_approx_mass(irgrid, nets, 30.0, paper_bounds=True)
        assert not np.allclose(default, paper)
        # The midpoint-corrected bounds integrate a wider span: more mass.
        assert default.sum() > paper.sum()


def _random_edges(seed, n_edges=30, lattice=150):
    """Random lattice-snapped edges on CHIP (grid ``600 / lattice``)
    mixing every kernel branch: type-I and type-II nets, degenerate
    (shared x or y) and thin (one or two grid units wide) ranges, and
    chip-spanning nets whose corner cells sit far outside the
    route-mass band."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, lattice + 1, size=(n_edges, 4)).astype(float)
    pts[:6, 2] = pts[:6, 0]  # vertical: degenerate
    pts[6:12, 3] = pts[6:12, 1]  # horizontal: degenerate
    pts[12:20, 2] = np.minimum(pts[12:20, 0] + rng.integers(1, 3, 8), lattice)
    pts[20:23] = [0, 0, lattice, lattice]  # chip-spanning, type I
    pts[23:26] = [0, lattice, lattice, 0]  # chip-spanning, type II
    pts *= 600.0 / lattice
    weights = rng.uniform(0.5, 2.0, n_edges)
    return TwoPinArrays(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3], weights)


class TestChunkedSimpsonPass:
    GRID = 4.0

    def _evaluate(self, arr, paper_bounds, panels=8):
        irgrid = build_irgrid_arrays(CHIP, arr, self.GRID, merge_factor=0.5)
        mass = batched_approx_mass_arrays(
            irgrid, arr, self.GRID, panels=panels, paper_bounds=paper_bounds
        )
        rows = np.arange(0, len(arr), 3)
        contrib = batched_edge_contributions(
            irgrid,
            arr,
            self.GRID,
            rows=rows,
            panels=panels,
            paper_bounds=paper_bounds,
        )
        return mass, contrib

    # 6 panels is not a power of two: the range end gets its own
    # scratch row for the band test.
    @pytest.mark.parametrize("panels", [8, 6])
    @pytest.mark.parametrize("paper_bounds", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chunk_boundaries_are_bit_identical(
        self, monkeypatch, seed, paper_bounds, panels
    ):
        arr = _random_edges(seed)
        irgrid = build_irgrid_arrays(CHIP, arr, self.GRID, merge_factor=0.5)
        frame = batched._frame_edges(irgrid, arr, self.GRID)
        assert frame.type_two.any() and frame.degenerate.any()
        assert ((frame.g1 < 3) | (frame.g2 < 3))[~frame.degenerate].any()

        # Count the integrals and the cells the pass flags for the
        # exact fallback (some Simpson node outside the domain).
        seen = {"integrals": 0, "flagged": 0}
        real_side = batched._simpson_side

        def counting_side(scratch, prob, invalid, cells, *rest):
            before = int(invalid.sum())
            real_side(scratch, prob, invalid, cells, *rest)
            seen["integrals"] += len(cells)
            seen["flagged"] += int(invalid.sum()) - before

        monkeypatch.setattr(batched, "_simpson_side", counting_side)
        mass, contrib = self._evaluate(arr, paper_bounds, panels)
        assert seen["integrals"] > 7 * 20 and seen["flagged"] > 0

        monkeypatch.setattr(batched, "_CHUNK_ROWS", 7)
        mass_7, contrib_7 = self._evaluate(arr, paper_bounds, panels)
        assert np.array_equal(mass, mass_7)
        assert np.array_equal(contrib.cells, contrib_7.cells)
        assert np.array_equal(contrib.values, contrib_7.values)

        # The band test dropped some integrals: evaluating them changes
        # the map (by dust), so the chunked pass did meet negligible
        # cells, at both chunk sizes.
        monkeypatch.setattr(batched, "_BAND_Z", np.inf)
        unbanded, _ = self._evaluate(arr, paper_bounds, panels)
        assert not np.array_equal(mass, unbanded)
        assert np.allclose(mass, unbanded, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("nodes", [3, 5, 9, 17, 129, 300])
    def test_pairwise_rows_matches_numpy_row_sums(self, nodes):
        # The node-major pass sums each integral's nodes down a column;
        # it must add them in the order numpy sums a contiguous row.
        x = np.random.default_rng(nodes).standard_normal((50, nodes))
        x *= 10.0 ** np.random.default_rng(1).integers(-8, 8, x.shape)
        expected = x.sum(axis=1)
        assert np.array_equal(batched._pairwise_rows(x.T.copy()), expected)

    def test_threads_keep_their_own_scratch(self, monkeypatch):
        monkeypatch.setattr(batched, "_CHUNK_ROWS", 16)
        arr = _random_edges(3, lattice=60)
        expected, _ = self._evaluate(arr, False)
        results = [None] * 4

        def work(slot):
            for _ in range(2):
                results[slot], _ = self._evaluate(arr, False)

        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-pass
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(expected, r) for r in results)


def _sp1000_initial_edges():
    """The edges of a 1000-module sequence-pair floorplan's initial
    state (sp-1000's circuit), with its IR-grid and grid size."""
    netlist = random_circuit(1000, 4000, seed=1)
    grid = max(math.sqrt(netlist.total_module_area) / 30.0, 1e-6)
    rep = make_representation("sp", netlist)
    floorplan = rep.realize(rep.initial(random.Random(1)))
    arr = nets_to_arrays(assign_pins(floorplan, netlist, grid).two_pin_nets)
    return build_irgrid_arrays(floorplan.chip, arr, grid), arr, grid


class TestKernelScratchMemory:
    # The whole call's tracemalloc peak on sp-1000's initial state
    # (~225k integrals).  It reads ~24 MiB, nearly all of it per-cell
    # index and span vectors; a kernel that builds (integrals,
    # panels + 1) temporaries for the whole batch peaks at ~196 MiB.
    PEAK_BOUND_MB = 48.0
    # The pass's own allocations above what was live when it started:
    # five (panels + 1, _CHUNK_ROWS) buffers (~1 MiB at 8 panels) and
    # the per-chunk parameter vectors.
    PASS_BOUND_MB = 4.0

    def test_peak_is_bounded_and_scratch_does_not_scale(self, monkeypatch):
        irgrid, arr, grid = _sp1000_initial_edges()
        doubled = TwoPinArrays(*[np.concatenate([v, v]) for v in arr])
        real_side = batched._simpson_side

        def measure(edges):
            batched._SCRATCH.__dict__.clear()  # count the buffers too
            seen = {"integrals": 0, "peak": 0, "pass_peak": 0}

            def tracing_side(scratch, prob, invalid, cells, *rest):
                # Fold the call's peak so far in before restarting the
                # count for this pass.
                start, peak = tracemalloc.get_traced_memory()
                seen["peak"] = max(seen["peak"], peak)
                tracemalloc.reset_peak()
                real_side(scratch, prob, invalid, cells, *rest)
                _, peak = tracemalloc.get_traced_memory()
                seen["integrals"] += len(cells)
                seen["pass_peak"] = max(seen["pass_peak"], peak - start)

            monkeypatch.setattr(batched, "_simpson_side", tracing_side)
            tracemalloc.start()
            try:
                batched_approx_mass_arrays(irgrid, edges, grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peak = max(seen["peak"], peak)
            return seen["integrals"], peak, seen["pass_peak"]

        integrals, peak, pass_peak = measure(arr)
        assert integrals >= 150_000
        assert peak < self.PEAK_BOUND_MB * 2**20
        assert pass_peak < self.PASS_BOUND_MB * 2**20

        integrals_2, _, pass_peak_2 = measure(doubled)
        assert integrals_2 == 2 * integrals
        assert pass_peak_2 < self.PASS_BOUND_MB * 2**20
        assert pass_peak_2 < 1.25 * pass_peak
