"""Tests for the fixed representation name table."""

import random

import pytest

from repro.engine import (
    CacheContext,
    Representation,
    available_representations,
    make_representation,
)
from repro.netlist import random_circuit


class TestRegistry:
    def test_builtins_registered(self):
        names = available_representations()
        assert "polish" in names
        assert "sp" in names
        assert "btree" in names
        assert names == tuple(sorted(names))

    def test_unknown_name_lists_available(self):
        netlist = random_circuit(4, 6, seed=0)
        with pytest.raises(ValueError, match="polish"):
            make_representation("nope", netlist)


class TestBuiltRepresentations:
    @pytest.mark.parametrize("name", ["polish", "sp", "btree"])
    def test_triple_drives_to_a_floorplan(self, name):
        netlist = random_circuit(6, 12, seed=1)
        rep = make_representation(name, netlist)
        assert isinstance(rep, Representation)
        assert rep.name == name
        rng = random.Random(1)
        state = rep.initial(rng)
        for _ in range(5):
            state = rep.neighbor(state, rng)
        floorplan = rep.realize(state)
        assert len(floorplan.placements) == netlist.n_modules
        assert floorplan.chip.area > 0

    def test_polish_realize_uses_engine_cache(self):
        netlist = random_circuit(6, 12, seed=2)
        ctx = CacheContext()
        rep = make_representation("polish", netlist, cache_context=ctx)
        rng = random.Random(2)
        state = rep.initial(rng)
        rep.realize(state)
        rep.realize(state)
        s = ctx.subtree_shapes.stats()
        assert s.lookups > 0
        assert s.hits > 0

    @pytest.mark.parametrize("name", ["polish", "sp", "btree"])
    def test_same_seed_same_walk(self, name):
        netlist = random_circuit(6, 12, seed=3)
        rep = make_representation(name, netlist)

        def walk():
            rng = random.Random(7)
            state = rep.initial(rng)
            for _ in range(10):
                state = rep.neighbor(state, rng)
            return rep.realize(state)

        a, b = walk(), walk()
        assert a.chip.width == b.chip.width
        assert a.chip.height == b.chip.height
