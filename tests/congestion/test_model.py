"""Tests for the full Irregular-Grid model (Algorithm 4.6)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congestion import IrregularGridModel
from repro.geometry import Point, Rect
from repro.netlist import TwoPinNet

CHIP = Rect(0, 0, 900, 900)


def net(x1, y1, x2, y2, name="n", weight=1.0):
    return TwoPinNet(name, Point(x1, y1), Point(x2, y2), weight=weight)


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IrregularGridModel(0.0)
        with pytest.raises(ValueError):
            IrregularGridModel(30.0, method="bogus")
        with pytest.raises(ValueError):
            IrregularGridModel(30.0, top_fraction=2.0)
        # The batched Simpson pass needs an even panel count as much as
        # the per-net reference does: refuse the others up front.
        for panels in (3, 0, -2):
            with pytest.raises(ValueError, match="positive even integer"):
                IrregularGridModel(30.0, panels=panels)


class TestSingleNetSemantics:
    def test_pin_cells_get_probability_one(self):
        model = IrregularGridModel(30.0, merge_factor=0.0)
        nets = [net(0, 0, 600, 600)]
        cmap, irgrid = model.evaluate_with_grid(CHIP, nets)
        mass = {
            (i, j): cell.mass
            for (i, j, _), cell in zip(irgrid.cells(), cmap.cells)
        }
        col = irgrid.x_lines.nearest_line_index(0.0)
        row = irgrid.y_lines.nearest_line_index(0.0)
        assert mass[(col, row)] == pytest.approx(1.0)

    def test_degenerate_net_all_cells_one(self):
        model = IrregularGridModel(30.0, merge_factor=0.0)
        nets = [net(0, 300, 900, 300)]
        cmap, _ = model.evaluate_with_grid(CHIP, nets)
        nonzero = [c for c in cmap.cells if c.mass > 0]
        assert nonzero
        assert all(c.mass == pytest.approx(1.0) for c in nonzero)

    def test_weight_scales(self):
        heavy = IrregularGridModel(30.0).evaluate(
            CHIP, [net(0, 0, 600, 600, weight=4.0)]
        )
        light = IrregularGridModel(30.0).evaluate(CHIP, [net(0, 0, 600, 600)])
        assert heavy.total_mass == pytest.approx(4.0 * light.total_mass)

    def test_exact_and_approx_methods_agree(self):
        rng = random.Random(0)
        nets = [
            net(
                rng.uniform(0, 900),
                rng.uniform(0, 900),
                rng.uniform(0, 900),
                rng.uniform(0, 900),
                f"n{i}",
            )
            for i in range(25)
        ]
        exact = IrregularGridModel(30.0, method="exact")
        approx = IrregularGridModel(30.0, method="approx")
        se = exact.estimate(CHIP, nets)
        sa = approx.estimate(CHIP, nets)
        assert sa == pytest.approx(se, rel=0.08)

    def test_estimate_equals_score_of_evaluate(self):
        rng = random.Random(1)
        nets = [
            net(
                rng.uniform(0, 900),
                rng.uniform(0, 900),
                rng.uniform(0, 900),
                rng.uniform(0, 900),
                f"n{i}",
            )
            for i in range(15)
        ]
        model = IrregularGridModel(30.0)
        fast = model.estimate(CHIP, nets)
        slow = model.score(model.evaluate(CHIP, nets))
        assert fast == pytest.approx(slow, rel=1e-12)


class TestMapInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 25))
    def test_masses_bounded_by_net_count(self, seed, n_nets):
        rng = random.Random(seed)
        nets = [
            net(
                rng.uniform(0, 900),
                rng.uniform(0, 900),
                rng.uniform(0, 900),
                rng.uniform(0, 900),
                f"n{i}",
            )
            for i in range(n_nets)
        ]
        model = IrregularGridModel(40.0)
        cmap = model.evaluate(CHIP, nets)
        assert all(-1e-9 <= c.mass <= n_nets + 1e-9 for c in cmap.cells)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_batched_matches_per_net_reference(self, seed):
        rng = random.Random(seed)
        nets = [
            net(
                rng.uniform(0, 900),
                rng.uniform(0, 900),
                rng.uniform(0, 900),
                rng.uniform(0, 900),
                f"n{i}",
            )
            for i in range(12)
        ]
        model = IrregularGridModel(35.0)
        from repro.congestion.irgrid import build_irgrid

        irgrid = build_irgrid(CHIP, nets, 35.0, 2.0)
        reference = np.zeros((irgrid.n_columns, irgrid.n_rows))
        for n in nets:
            model._add_net(irgrid, n, reference)
        from repro.congestion.batched import batched_approx_mass

        batched = batched_approx_mass(irgrid, nets, 35.0)
        assert np.abs(batched - reference).max() < 1e-9

    def test_empty_nets(self):
        model = IrregularGridModel(30.0)
        assert model.estimate(CHIP, []) == 0.0

    def test_score_monotone_in_added_nets(self):
        model = IrregularGridModel(30.0)
        base = [net(100, 100, 700, 600, "a")]
        more = base + [net(120, 90, 710, 620, "b")]
        # Adding an overlapping net cannot reduce the congestion score
        # (with merge_factor 0 the cut lines of the base net persist).
        m0 = IrregularGridModel(30.0, merge_factor=0.0)
        assert m0.estimate(CHIP, more) >= m0.estimate(CHIP, base) - 1e-9


class TestHotspotLocalization:
    def test_cluster_is_hotter_than_background(self):
        """Nets concentrated in one corner must produce their density
        peak inside that corner -- the Figure 4 scenario."""
        cluster = [
            net(600 + 10 * i, 600 + 7 * i, 880 - 5 * i, 880 - 9 * i, f"c{i}")
            for i in range(8)
        ]
        lone = net(30, 700, 250, 880, "lone")
        model = IrregularGridModel(30.0)
        cmap = model.evaluate(CHIP, cluster + [lone])
        hot = max(cmap.cells, key=lambda c: c.density)
        center = hot.rect.center
        assert center.x > 450 and center.y > 450
