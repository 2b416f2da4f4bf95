"""Property tests for the committed-grid congestion ledger.

Two contracts, both hypothesis-driven:

* chained ledger delta evaluations agree with a from-scratch reference
  model to 1e-12 -- with the per-net memo on or off -- across
  randomized move sequences that mix
  grid-preserving moves (pins shuffled among already-occupied lattice
  points, so the merged cut lines hold still and the O(dirty) path
  fires) with grid-changing ones (fresh lattice points force the full
  rebuild); one deterministic case empties the memo before a delta,
  so the old blocks it subtracts are recomputed by the kernel;
* the selection-based ``_top_density_score`` equals the seed argsort
  greedy (:func:`area_weighted_top_fraction_mean`), including when the
  area target lands inside a group of equal-density cells.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congestion import IrregularGridModel
from repro.geometry import Rect
from repro.metrics.stats import area_weighted_top_fraction_mean
from repro.netlist import TwoPinArrays
from repro.obs import MetricsRegistry

GRID = 30.0
CHIP = Rect(0, 0, 600, 600)
N_LATTICE = 21  # lattice points 0, 30, ..., 600


def _arrays(coords: np.ndarray) -> TwoPinArrays:
    """Edge arrays from an ``(n, 4)`` matrix of lattice indices."""
    pts = GRID * coords.astype(float)
    return TwoPinArrays(
        pts[:, 0].copy(), pts[:, 1].copy(),
        pts[:, 2].copy(), pts[:, 3].copy(),
        np.ones(len(coords)),
    )


@st.composite
def move_sequences(draw):
    """``(initial coords, [(dirty rows, new coords), ...])``.

    Coordinates are lattice indices.  Each move rewrites a nonempty
    dirty subset of the edges; grid-preserving moves draw the new
    coordinates from values already occupied elsewhere, grid-changing
    ones from the whole lattice.
    """
    n_edges = draw(st.integers(min_value=3, max_value=10))
    coord = st.integers(min_value=0, max_value=N_LATTICE - 1)
    coords = np.asarray(
        draw(
            st.lists(
                st.tuples(coord, coord, coord, coord),
                min_size=n_edges,
                max_size=n_edges,
            )
        ),
        dtype=np.int64,
    )
    n_moves = draw(st.integers(min_value=1, max_value=6))
    moves = []
    for _ in range(n_moves):
        dirty = sorted(
            draw(
                st.sets(
                    st.integers(0, n_edges - 1),
                    min_size=1,
                    max_size=n_edges,
                )
            )
        )
        preserving = draw(st.booleans())
        new = np.empty((len(dirty), 4), dtype=np.int64)
        for k in range(len(dirty)):
            for c in range(4):
                if preserving:
                    # Reuse an occupied lattice value: with every pin on
                    # an occupied point the merged cut lines often (not
                    # always -- the dirty edge may have been a value's
                    # only occupant) come out identical.
                    src_row = draw(st.integers(0, n_edges - 1))
                    src_col = draw(st.integers(0, 3))
                    new[k, c] = coords[src_row, src_col]
                else:
                    new[k, c] = draw(coord)
        moves.append((np.asarray(dirty, dtype=np.intp), new))
    return coords, moves


class TestLedgerParity:
    @pytest.mark.parametrize("use_cache", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(move_sequences())
    def test_chained_delta_matches_full(self, use_cache, seq):
        coords, moves = seq
        model = IrregularGridModel(
            GRID, use_cache=use_cache, use_ledger=True, ledger_refresh=4
        )
        reference = IrregularGridModel(GRID, use_cache=False, use_ledger=False)
        arr = _arrays(coords)
        score, ledger = model.estimate_arrays_ledger(CHIP, arr, None, None)
        full = reference.estimate_arrays(CHIP, arr)
        assert math.isclose(score, full, rel_tol=1e-12, abs_tol=1e-12)
        for dirty, new in moves:
            old = _arrays(coords[dirty])
            coords[dirty] = new
            arr = _arrays(coords)
            score, ledger = model.estimate_arrays_ledger(
                CHIP, arr, ledger, dirty, old
            )
            full = reference.estimate_arrays(CHIP, arr)
            assert math.isclose(score, full, rel_tol=1e-12, abs_tol=1e-12)

    def test_memo_cold_old_blocks_match_full(self):
        # The old blocks a delta subtracts are rebuilt from the previous
        # geometry through the per-net memo.  With the memo emptied
        # between the recorded state and the delta (as an eviction
        # would), the kernel recomputes them and the delta must still
        # agree with a from-scratch evaluation.
        coords = np.array(
            [[2, 2, 10, 10], [2, 10, 10, 2], [2, 2, 18, 18]], dtype=np.int64
        )
        model = IrregularGridModel(GRID, use_cache=True, use_ledger=True)
        model.perf = MetricsRegistry()
        reference = IrregularGridModel(GRID, use_cache=False, use_ledger=False)
        _, ledger = model.estimate_arrays_ledger(
            CHIP, _arrays(coords), None, None
        )
        net_mass = model.cache_context.net_mass
        net_mass.clear()
        misses = net_mass.stats().misses
        dirty = np.array([1], dtype=np.intp)
        old = _arrays(coords[dirty])
        coords[1] = [2, 18, 18, 2]  # every lattice value stays occupied
        arr = _arrays(coords)
        score, _ = model.estimate_arrays_ledger(CHIP, arr, ledger, dirty, old)
        assert model.perf.counters.get("congestion_delta", 0) == 1
        assert net_mass.stats().misses - misses == 2  # new and old block
        full = reference.estimate_arrays(CHIP, arr)
        assert math.isclose(score, full, rel_tol=1e-12, abs_tol=1e-12)

    def test_delta_path_fires_on_grid_preserving_move(self):
        # Two edges sharing every lattice value: moving edge 1 onto
        # edge 0's exact geometry keeps the occupied set -- and the
        # merged cut lines -- identical, so the move MUST take the
        # O(dirty) path, visibly via the counters.
        coords = np.array([[2, 2, 10, 10], [2, 10, 10, 2]], dtype=np.int64)
        model = IrregularGridModel(GRID, use_cache=True, use_ledger=True)
        model.perf = MetricsRegistry()
        arr = _arrays(coords)
        _, ledger = model.estimate_arrays_ledger(CHIP, arr, None, None)
        assert ledger is not None
        dirty = np.array([1], dtype=np.intp)
        old = _arrays(coords[dirty])
        coords[1] = coords[0]
        arr = _arrays(coords)
        _, ledger = model.estimate_arrays_ledger(
            CHIP, arr, ledger, dirty, old
        )
        assert model.perf.counters.get("congestion_delta", 0) == 1
        assert model.perf.counters.get("ledger_hits", 0) == 1

    def test_refresh_limit_forces_rebuild(self):
        coords = np.array([[2, 2, 10, 10], [2, 10, 10, 2]], dtype=np.int64)
        model = IrregularGridModel(
            GRID, use_cache=True, use_ledger=True, ledger_refresh=2
        )
        model.perf = MetricsRegistry()
        arr = _arrays(coords)
        _, ledger = model.estimate_arrays_ledger(CHIP, arr, None, None)
        dirty = np.array([1], dtype=np.intp)
        old = _arrays(coords[dirty])
        for _ in range(4):  # identical geometry: every grid matches
            _, ledger = model.estimate_arrays_ledger(
                CHIP, arr, ledger, dirty, old
            )
        # Ages 0 and 1 take the delta path; age 2 trips the refresh
        # limit, rebuilds (resetting age), then one more delta.
        assert model.perf.counters["congestion_delta"] == 3
        assert model.perf.counters["congestion_grid_rebuilt"] == 2


class TestSelectionScoring:
    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(
                # Quantized densities force heavy tie groups.
                st.integers(min_value=0, max_value=8),
                st.floats(min_value=0.1, max_value=50.0),
            ),
            min_size=1,
            max_size=200,
        ),
        st.floats(min_value=0.02, max_value=1.0),
    )
    def test_matches_argsort_greedy(self, cells, fraction):
        density = np.asarray([float(d) for d, _ in cells])
        areas = np.asarray([a for _, a in cells])
        model = IrregularGridModel(GRID, top_fraction=fraction)
        got = model._top_density_score(density, areas)
        want = area_weighted_top_fraction_mean(
            list(zip(density.tolist(), areas.tolist())), fraction
        )
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)

    def test_tie_group_straddles_target(self):
        # 10 equal-density cells, target inside the group: the score is
        # the tied density exactly, whichever cells are "chosen".
        density = np.full(100, 3.0)
        areas = np.ones(100)
        model = IrregularGridModel(GRID, top_fraction=0.155)
        assert model._top_density_score(density, areas) == pytest.approx(3.0)
