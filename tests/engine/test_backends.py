"""The single numpy compute lane and its provenance record.

``repro.backend.make_backend`` survives only to name the lane that
produced a number (benchmarks record ``objective.backend.name``); any
other lane name is refused.  The memo property below is the numpy
lane's own: replaying per-net probability blocks from the cache is
bit-identical to computing them fresh.
"""

import numpy as np
import pytest

from repro.anneal.cost import FloorplanObjective
from repro.backend import make_backend
from repro.congestion.batched import batched_approx_mass
from repro.congestion.irgrid import build_irgrid
from repro.geometry import Point, Rect
from repro.netlist import TwoPinNet, random_circuit
from repro.perf import CacheContext

CHIP = Rect(0, 0, 600, 600)


def _random_nets(rng, n):
    nets = []
    for i in range(n):
        x1, y1, x2, y2 = rng.uniform(0, 600, 4)
        nets.append(TwoPinNet(f"n{i}", Point(x1, y1), Point(x2, y2)))
    return nets


class TestRegistry:
    def test_default_is_numpy(self):
        assert make_backend(None).name == "numpy"
        assert make_backend("numpy").name == "numpy"

    def test_unknown_backend_raises(self):
        for name in ("python", "cuda"):
            with pytest.raises(ValueError, match="unknown backend"):
                make_backend(name)

    def test_objective_reports_numpy_lane(self):
        objective = FloorplanObjective(random_circuit(6, 10, seed=1))
        assert objective.backend.name == "numpy"


class TestKernelProperties:
    def test_kernel_cached_equals_uncached_bitwise(self):
        # The net-mass memo stores the batch's probability vectors by
        # local signature; replaying from cache must be bit-identical
        # to computing fresh.
        rng = np.random.default_rng(5)
        nets = _random_nets(rng, 10)
        irgrid = build_irgrid(CHIP, nets, 30.0, 2.0)
        ctx = CacheContext()
        fresh = batched_approx_mass(irgrid, nets, 30.0)
        first = batched_approx_mass(
            irgrid, nets, 30.0,
            cache=ctx.net_mass, exact_cache=ctx.exact_prob,
        )
        replay = batched_approx_mass(
            irgrid, nets, 30.0,
            cache=ctx.net_mass, exact_cache=ctx.exact_prob,
        )
        assert (fresh == first).all()
        assert (first == replay).all()
        assert ctx.net_mass.stats().hits > 0
