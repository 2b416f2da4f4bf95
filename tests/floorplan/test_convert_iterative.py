"""The iterative Polish conversion against the recursive reference.

``polish_from_floorplan`` builds its slicing tree and emits the postfix
with explicit stacks instead of recursion.  It must emit exactly the
tokens of the recursive walk kept in ``reference_convert.py``, and it
must handle floorplans nested deeper than any call stack: a "spiral"
that peels one module off per guillotine cut, alternating a left
column and a bottom row, nests as deep as it has modules.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_convert
from repro.engine.representation import make_representation
from repro.floorplan import (
    Floorplan,
    PolishExpression,
    SequencePair,
    pack_sequence_pair,
)
from repro.floorplan import convert
from repro.floorplan.convert import polish_from_floorplan
from repro.geometry import Rect
from repro.netlist import Module, random_circuit


def iterative_tokens(floorplan):
    rects = floorplan.placements
    names = sorted(rects)
    if len(names) == 1:
        return names
    return convert._emit_postfix(
        convert._polish_node(names, rects, prefer_vertical=True)
    )


def modules_of(floorplan):
    return {
        name: Module(name, rect.width, rect.height)
        for name, rect in floorplan.placements.items()
    }


def spiral(n):
    """``n`` unit-thick modules: even ones take the left column of the
    remaining region, odd ones its bottom row; the last one fills what
    is left."""
    x0 = y0 = 0.0
    side = float(n)
    placements = {}
    for i in range(n):
        name = f"m{i}"
        if i == n - 1:
            placements[name] = Rect(x0, y0, side, side)
        elif i % 2 == 0:
            placements[name] = Rect(x0, y0, x0 + 1.0, side)
            x0 += 1.0
        else:
            placements[name] = Rect(x0, y0, side, y0 + 1.0)
            y0 += 1.0
    return Floorplan(placements)


@pytest.mark.parametrize("source", ["polish", "sp", "btree"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_recursive_walk_on_seeded_floorplans(source, seed):
    netlist = random_circuit(30, 60, seed=seed)
    rep = make_representation(source, netlist)
    rng = random.Random(seed)
    state = rep.initial(rng)
    for _ in range(60):
        state = rep.neighbor(state, rng)
    floorplan = rep.realize(state)
    expected = reference_convert.polish_tokens(floorplan)
    assert iterative_tokens(floorplan) == expected
    assert list(polish_from_floorplan(floorplan, {}).tokens) == expected


@st.composite
def packed_sequence_pairs(draw):
    n = draw(st.integers(1, 30))
    side = st.sampled_from((1.0, 2.0, 3.0, 5.0))
    mods = {f"m{i}": Module(f"m{i}", draw(side), draw(side)) for i in range(n)}
    names = list(mods)
    pair = SequencePair(
        tuple(draw(st.permutations(names))),
        tuple(draw(st.permutations(names))),
    )
    return pack_sequence_pair(pair, mods)


@st.composite
def scattered_rects(draw):
    """Arbitrary, possibly overlapping boxes: the converter must still
    emit a tree for them."""
    n = draw(st.integers(1, 25))
    coord = st.integers(0, 12)
    placements = {}
    for i in range(n):
        x, y = draw(coord), draw(coord)
        w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        placements[f"m{i}"] = Rect.from_origin(x, y, w, h)
    return Floorplan(placements)


class TestHypothesis:
    @settings(max_examples=150, deadline=None)
    @given(packed_sequence_pairs())
    def test_packed_sequence_pairs(self, floorplan):
        assert iterative_tokens(floorplan) == reference_convert.polish_tokens(
            floorplan
        )

    @settings(max_examples=150, deadline=None)
    @given(scattered_rects())
    def test_scattered_rects(self, floorplan):
        assert iterative_tokens(floorplan) == reference_convert.polish_tokens(
            floorplan
        )


def test_matches_recursive_walk_on_400_module_spiral():
    floorplan = spiral(400)
    expected = reference_convert.polish_tokens(floorplan)
    assert len(expected) == 2 * 400 - 1
    assert iterative_tokens(floorplan) == expected


def test_3000_module_spiral_converts():
    floorplan = spiral(3000)
    expression = polish_from_floorplan(floorplan, modules_of(floorplan))
    assert isinstance(expression, PolishExpression)
    assert sorted(expression.operands) == sorted(floorplan.placements)
    assert expression.n_modules == 3000
