"""Numeric fault injection: the congestion pipeline must detect NaN/inf
escaping the Theorem-1 normal approximation and fall back to the exact
Formula 3 evaluation, never returning a non-finite score.

:func:`~repro.testing.faults.poison_approx_mass` patches the batched
kernel to corrupt exactly one cell of one call, so each test proves a
specific guard fired -- and that the rescued score *equals* the exact
model's answer, not merely "something finite".
"""

import math
import random

import numpy as np
import pytest

import repro.congestion.model as model_mod
from repro.congestion.model import IrregularGridModel
from repro.congestion.irgrid import build_irgrid
from repro.engine.representation import make_representation
from repro.netlist import random_circuit, nets_to_arrays
from repro.obs import MetricsRegistry
from repro.pins import assign_pins
from repro.testing import poison_approx_mass


@pytest.fixture(scope="module")
def placed():
    """A realized floorplan's chip + placed 2-pin nets."""
    netlist = random_circuit(8, 20, seed=7)
    representation = make_representation("polish", netlist)
    state = representation.initial(random.Random(0))
    floorplan = representation.realize(state)
    assignment = assign_pins(floorplan, netlist, 30.0)
    return assignment.chip, assignment.two_pin_nets


def _models():
    approx = IrregularGridModel(30.0, method="approx", use_cache=False)
    exact = IrregularGridModel(30.0, method="exact", use_cache=False)
    return approx, exact


@pytest.mark.parametrize("poison", [float("nan"), float("inf")])
def test_poisoned_mass_rescued_by_exact_model(placed, poison):
    chip, nets = placed
    approx, exact = _models()
    perf = MetricsRegistry()
    approx.perf = perf

    with poison_approx_mass(at_call=1, value=poison) as state:
        score = approx.estimate(chip, nets)
    assert state["poisoned"]
    assert math.isfinite(score)
    assert score == exact.estimate(chip, nets)
    assert perf.counters.get("congestion_exact_rescue") == 1


def test_poisoned_arrays_path_rescued(placed):
    chip, nets = placed
    approx, exact = _models()
    arrays = nets_to_arrays(nets)

    with poison_approx_mass(at_call=1) as state:
        score = approx.estimate_arrays(chip, arrays)
    assert state["poisoned"]
    assert math.isfinite(score)
    assert score == exact.estimate(chip, nets)


def test_unpoisoned_calls_untouched(placed):
    chip, nets = placed
    approx, _ = _models()
    clean = approx.estimate(chip, nets)

    # Poison armed for a call that never happens: identical result,
    # and the patch is unwound on exit.
    with poison_approx_mass(at_call=99) as state:
        score = approx.estimate(chip, nets)
    assert not state["poisoned"]
    assert score == clean
    kernel = model_mod.batched_approx_mass_arrays
    assert kernel.__module__ == "repro.congestion.batched"


def test_add_net_matrix_guard_reroutes_non_finite_cells(placed):
    """The per-cell guard: a non-finite probability the domain guards
    missed is recomputed with exact Formula 3, cell by cell."""
    chip, nets = placed
    model = IrregularGridModel(30.0, method="approx", use_cache=False)
    irgrid = build_irgrid(chip, nets, 30.0, 2.0)
    wide = [
        n
        for n in nets
        if round(n.routing_range.width / 30.0) >= 3
        and round(n.routing_range.height / 30.0) >= 3
    ]
    assert wide, "fixture needs at least one net wide enough for Theorem 1"

    real = model_mod.approx_ir_matrix

    def corrupted(*args, **kwargs):
        probs, invalid = real(*args, **kwargs)
        probs = probs.copy()
        probs[probs.shape[0] // 2, probs.shape[1] // 2] = float("inf")
        return probs, invalid

    model_mod.approx_ir_matrix = corrupted
    try:
        mass = np.zeros((irgrid.n_columns, irgrid.n_rows))
        for net in wide:
            model._add_net(irgrid, net, mass)
    finally:
        model_mod.approx_ir_matrix = real
    assert np.isfinite(mass).all()


@pytest.mark.parametrize("circuit_seed", [3, 4, 5])
def test_batched_kernel_always_finite_on_messy_geometry(circuit_seed):
    """The kernel-level guard end to end: real placements mix thin,
    degenerate, and pin-flush routing ranges -- the exact inputs the
    Theorem-1 approximation mistrusts -- and the approx score must stay
    finite and agree with the exact model wherever the guards reroute."""
    netlist = random_circuit(12, 30, seed=circuit_seed)
    representation = make_representation("polish", netlist)
    state = representation.initial(random.Random(1))
    floorplan = representation.realize(state)
    assignment = assign_pins(floorplan, netlist, 30.0)
    approx, exact = _models()
    score = approx.estimate(assignment.chip, assignment.two_pin_nets)
    assert math.isfinite(score)
    exact_score = exact.estimate(assignment.chip, assignment.two_pin_nets)
    assert math.isfinite(exact_score)
    # The approximation tracks the exact model closely on small cases;
    # a guard failure shows up as a wild divergence, not a few percent.
    assert score == pytest.approx(exact_score, rel=0.25, abs=0.05)
