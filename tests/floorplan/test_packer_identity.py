"""The columnar packers against the Rect-building reference packers.

Packing changed algorithm and storage, not answer: the coordinate
columns (bit for bit), the module order, every placement and the chip
must equal what the O(m^2) sequence-pair walk, the scan-and-sort
contour and the Rect-building slicing walk produce.  Widths such as
0.1/0.2/0.3 make contour xs that differ by float dust (0.1 + 0.2 vs
0.3), which exercises the 1e-12 near-coincident-x merge.
"""

import dataclasses
import random

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_packers
from repro.floorplan import (
    BStarTree,
    SequencePair,
    evaluate_polish,
    initial_expression,
    pack_btree,
    pack_sequence_pair,
)
from repro.floorplan.btree import _Node
from repro.netlist import Module

# Small pools so modules share dimensions.  The float sides sum to
# values a few ulps apart; DUST alone makes such near-coincident
# contour xs several times more often than the mixed pool.
DUST = (0.1, 0.2, 0.3)
SIDES = DUST + (0.6, 0.7, 1.0, 1.1, 2.5, 3.0)


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_floorplan(got, expected):
    assert got.module_names == expected.module_names
    for column in ("x_lo", "y_lo", "x_hi", "y_hi"):
        assert getattr(got, column).dtype == np.float64
        assert bits(getattr(got, column)) == bits(getattr(expected, column))
    chip = dataclasses.astuple(got.chip)
    assert all(type(v) is float for v in chip)
    assert bits(chip) == bits(dataclasses.astuple(expected.chip))
    assert got.placements == expected.placements
    assert list(got.placements) == list(expected.placements)


@st.composite
def module_sets(draw, max_modules=24):
    n = draw(st.integers(1, max_modules))
    side = st.sampled_from(draw(st.sampled_from((DUST, SIDES))))
    return {
        f"m{i}": Module(f"m{i}", draw(side), draw(side)) for i in range(n)
    }


@st.composite
def sequence_pairs(draw):
    mods = draw(module_sets())
    names = list(mods)
    plus = draw(st.permutations(names))
    minus = draw(st.permutations(names))
    rotated = draw(st.frozensets(st.sampled_from(names)))
    return SequencePair(tuple(plus), tuple(minus), rotated), mods


def grow_tree(order, pick_slot, rotated=frozenset()):
    """Any tree shape: each module after the root takes the free child
    slot ``pick_slot(n_free)`` of the tree built so far."""
    children = {name: [None, None] for name in order}
    slots = [(order[0], 0), (order[0], 1)]
    for name in order[1:]:
        parent, side = slots.pop(pick_slot(len(slots)))
        children[parent][side] = name
        slots += [(name, 0), (name, 1)]
    nodes = {name: _Node(*kids) for name, kids in children.items()}
    return BStarTree(order[0], nodes, rotated)


@st.composite
def polish_expressions(draw):
    mods = draw(module_sets())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    expression = initial_expression(list(mods), rng)
    for _ in range(draw(st.integers(0, 40))):
        expression = expression.random_neighbor(rng)
    return expression, mods, draw(st.booleans())


def random_modules(n, rng):
    return {
        f"m{i}": Module(f"m{i}", rng.choice(SIDES) * rng.randint(1, 9),
                        rng.choice(SIDES) * rng.randint(1, 9))
        for i in range(n)
    }


def random_tree(names, rng):
    rotated = frozenset(name for name in names if rng.random() < 0.3)
    return grow_tree(names, rng.randrange, rotated)


@st.composite
def btrees(draw):
    mods = draw(module_sets())
    order = draw(st.permutations(list(mods)))
    rotated = draw(st.frozensets(st.sampled_from(order)))
    tree = grow_tree(order, lambda n: draw(st.integers(0, n - 1)), rotated)
    return tree, mods


class TestSequencePairIdentity:
    @settings(max_examples=200, deadline=None)
    @given(sequence_pairs())
    def test_matches_quadratic_walk(self, case):
        pair, mods = case
        assert_same_floorplan(
            pack_sequence_pair(pair, mods),
            reference_packers.pack_sequence_pair(pair, mods),
        )

    def test_2000_modules(self):
        rng = random.Random(11)
        mods = random_modules(2000, rng)
        pair = SequencePair.initial(list(mods), rng)
        for _ in range(50):
            pair = pair.random_neighbor(rng)
        assert_same_floorplan(
            pack_sequence_pair(pair, mods),
            reference_packers.pack_sequence_pair(pair, mods),
        )


class TestBTreeIdentity:
    @settings(max_examples=200, deadline=None)
    @given(btrees())
    def test_matches_scan_and_sort_contour(self, case):
        tree, mods = case
        assert_same_floorplan(
            pack_btree(tree, mods), reference_packers.pack_btree(tree, mods)
        )

    def test_2000_modules(self):
        rng = random.Random(12)
        mods = random_modules(2000, rng)
        tree = random_tree(list(mods), rng)
        assert_same_floorplan(
            pack_btree(tree, mods), reference_packers.pack_btree(tree, mods)
        )


class TestPolishIdentity:
    @settings(max_examples=200, deadline=None)
    @given(polish_expressions())
    def test_matches_rect_building_walk(self, case):
        expression, mods, allow_rotation = case
        assert_same_floorplan(
            evaluate_polish(expression, mods, allow_rotation),
            reference_packers.evaluate_polish(
                expression, mods, allow_rotation
            ),
        )

    def test_2000_modules(self):
        rng = random.Random(13)
        mods = random_modules(2000, rng)
        expression = initial_expression(list(mods), rng)
        for _ in range(200):
            expression = expression.random_neighbor(rng)
        assert_same_floorplan(
            evaluate_polish(expression, mods),
            reference_packers.evaluate_polish(expression, mods),
        )
