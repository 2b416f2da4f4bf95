"""FAST-SP and the indexed B*-tree contour against the reference packers.

Packing changed algorithm, not answer: every placement, the order the
placements are listed in, and the chip must equal what the O(m^2)
sequence-pair walk and the scan-and-sort contour produce.  Widths such
as 0.1/0.2/0.3 make contour xs that differ by float dust (0.1 + 0.2 vs
0.3), which exercises the 1e-12 near-coincident-x merge.
"""

import random

from hypothesis import given, settings, strategies as st

import reference_packers
from repro.floorplan import (
    BStarTree,
    SequencePair,
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


def assert_same_floorplan(got, expected):
    assert got.placements == expected.placements
    assert list(got.placements) == list(expected.placements)
    assert got.chip == expected.chip


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
        mods = {
            f"m{i}": Module(f"m{i}", rng.choice(SIDES) * rng.randint(1, 9),
                            rng.choice(SIDES) * rng.randint(1, 9))
            for i in range(2000)
        }
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
        mods = {
            f"m{i}": Module(f"m{i}", rng.choice(SIDES) * rng.randint(1, 9),
                            rng.choice(SIDES) * rng.randint(1, 9))
            for i in range(2000)
        }
        tree = random_tree(list(mods), rng)
        assert_same_floorplan(
            pack_btree(tree, mods), reference_packers.pack_btree(tree, mods)
        )
