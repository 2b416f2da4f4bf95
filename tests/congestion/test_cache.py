"""Tests for the bounded congestion caches and cached-path parity."""

import math
import threading

import numpy as np
import pytest

from repro.congestion import IrregularGridModel
from repro.congestion.batched import (
    batched_approx_mass,
    batched_approx_mass_arrays,
)
from repro.congestion.irgrid import (
    _merge_and_assemble,
    build_irgrid,
    build_irgrid_arrays,
)
from repro.floorplan import evaluate_polish, initial_expression
from repro.netlist import nets_to_arrays, random_circuit
from repro.perf import BoundedCache, CacheContext
from repro.pins import assign_pins
import random


class TestBoundedCache:
    def test_get_put_round_trip(self):
        cache = BoundedCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 0) == 0

    def test_lru_eviction_order(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" becomes LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_stats_accounting(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("x")
        cache.put("b", 2)
        cache.put("c", 3)
        s = cache.stats()
        assert s.hits == 1
        assert s.misses == 1
        assert s.lookups == 2
        assert s.hit_rate == 0.5
        assert s.evictions == 1
        assert s.size == 2
        assert len(cache) == 2

    def test_get_many_put_many(self):
        cache = BoundedCache(8)
        cache.put_many([("a", 1), ("b", 2)])
        got = cache.get_many(["a", "missing", "b"])
        assert got == [1, None, 2]
        s = cache.stats()
        assert s.hits == 2
        assert s.misses == 1

    def test_put_many_respects_bound(self):
        cache = BoundedCache(3)
        cache.put_many([(i, i) for i in range(10)])
        s = cache.stats()
        assert s.size == 3
        assert s.evictions == 7
        assert cache.get(9) == 9  # most recent survives

    def test_clear_resets(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        s = cache.stats()
        assert (s.hits, s.misses, s.size, s.evictions) == (0, 0, 0, 0)

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            BoundedCache(0)

    def test_context_exposes_default_caches(self):
        stats = CacheContext().stats()
        assert "net_mass" in stats
        assert "exact_prob" in stats
        assert "net_matrix" in stats
        assert "subtree_shapes" in stats

    def test_contexts_are_independent(self):
        a = CacheContext()
        b = CacheContext()
        a.net_mass.put("k", 1)
        assert b.net_mass.get("k") is None
        assert a.stats()["net_mass"].size == 1
        assert b.stats()["net_mass"].size == 0
        assert b.stats()["net_mass"].misses == 1

    def test_thread_smoke(self):
        cache = BoundedCache(128)
        errors = []

        def worker(base):
            try:
                for i in range(500):
                    cache.put((base, i % 64), i)
                    cache.get((base, (i * 7) % 64))
                    cache.get_many([(base, j) for j in range(4)])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(b,)) for b in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        s = cache.stats()
        assert s.size <= 128
        assert s.hits + s.misses == s.lookups


def _placed_nets(seed, n_modules=12, n_nets=30):
    netlist = random_circuit(n_modules, n_nets, seed=seed)
    rng = random.Random(seed)
    names = [m.name for m in netlist.modules]
    expr = initial_expression(names, rng)
    for _ in range(3 * n_modules):
        expr = expr.random_neighbor(rng)
    modules = {m.name: m for m in netlist.modules}
    floorplan = evaluate_polish(expr, modules, True)
    grid = max(math.sqrt(netlist.total_module_area) / 20.0, 1e-6)
    assignment = assign_pins(floorplan, netlist, grid)
    return floorplan.chip, assignment.two_pin_nets, grid


def _reference_irgrid(chip, nets, grid_size, merge_factor=2.0):
    """The per-net Python loop that built the cut lines before
    :func:`build_irgrid` became an arrays adapter, kept as the oracle
    for the vectorized builder."""
    xs = [chip.x_lo, chip.x_hi]
    ys = [chip.y_lo, chip.y_hi]
    for net in nets:
        p1, p2 = net.p1, net.p2
        xs.append(p1.x if p1.x < p2.x else p2.x)
        xs.append(p2.x if p1.x < p2.x else p1.x)
        ys.append(p1.y if p1.y < p2.y else p2.y)
        ys.append(p2.y if p1.y < p2.y else p1.y)
    x_lo, x_hi = chip.x_lo, chip.x_hi
    y_lo, y_hi = chip.y_lo, chip.y_hi
    xs = [x_lo if x < x_lo else (x_hi if x > x_hi else x) for x in xs]
    ys = [y_lo if y < y_lo else (y_hi if y > y_hi else y) for y in ys]
    return _merge_and_assemble(chip, xs, ys, grid_size, merge_factor)


class TestCachedPathParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_mass_bit_identical(self, seed):
        chip, nets, grid = _placed_nets(seed)
        irgrid = build_irgrid(chip, nets, grid)
        cold = BoundedCache(65_536)
        uncached = batched_approx_mass(irgrid, nets, grid, cache=None)
        first = batched_approx_mass(irgrid, nets, grid, cache=cold)
        warm = batched_approx_mass(irgrid, nets, grid, cache=cold)
        assert np.array_equal(uncached, first)
        assert np.array_equal(uncached, warm)
        s = cold.stats()
        assert s.hits > 0  # the second pass actually hit

    @pytest.mark.parametrize("seed", [0, 3])
    def test_arrays_lane_matches_object_lane(self, seed):
        chip, nets, grid = _placed_nets(seed)
        arr = nets_to_arrays(nets)
        ir_obj = _reference_irgrid(chip, nets, grid)
        ir_arr = build_irgrid_arrays(chip, arr, grid)
        assert ir_obj.x_lines.lines == ir_arr.x_lines.lines
        assert ir_obj.y_lines.lines == ir_arr.y_lines.lines
        ir_nets = build_irgrid(chip, nets, grid)
        assert ir_nets.x_lines.lines == ir_obj.x_lines.lines
        assert ir_nets.y_lines.lines == ir_obj.y_lines.lines
        m_obj = batched_approx_mass(ir_obj, nets, grid, cache=None)
        m_arr = batched_approx_mass_arrays(ir_arr, arr, grid, cache=None)
        assert np.array_equal(m_obj, m_arr)

    def test_estimate_arrays_matches_estimate(self):
        chip, nets, grid = _placed_nets(5)
        arr = nets_to_arrays(nets)
        for use_cache in (False, True):
            # A fresh model owns a fresh (empty) private CacheContext.
            model = IrregularGridModel(grid, use_cache=use_cache)
            assert model.estimate(chip, nets) == model.estimate_arrays(
                chip, arr
            )

    def test_model_cached_equals_uncached(self):
        chip, nets, grid = _placed_nets(7)
        cached = IrregularGridModel(grid, use_cache=True)
        uncached = IrregularGridModel(grid, use_cache=False)
        a = cached.estimate(chip, nets)
        b = uncached.estimate(chip, nets)
        again = cached.estimate(chip, nets)
        assert a == b
        assert again == b
        s = cached.cache_context.net_mass.stats()
        assert s.hits > 0
        assert uncached.cache_context is None

    def test_two_models_never_share_cache_state(self):
        chip, nets, grid = _placed_nets(9)
        first = IrregularGridModel(grid, use_cache=True)
        second = IrregularGridModel(grid, use_cache=True)
        first.estimate(chip, nets)
        assert first.cache_context is not None
        assert second.cache_context is None  # lazily created on first use
        second.estimate(chip, nets)
        assert second.cache_context is not first.cache_context
        # The second model's warm-up saw only misses: nothing leaked over.
        assert second.cache_context.net_mass.stats().hits == 0
        assert first.cache_context.net_mass.stats().size > 0
