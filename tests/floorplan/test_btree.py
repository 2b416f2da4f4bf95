"""Tests for the B*-tree representation and contour packing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.floorplan import BStarTree, pack_btree
from repro.floorplan.btree import _Node
from repro.geometry import Rect
from repro.netlist import Module


def modules(n, seed=0):
    rng = random.Random(seed)
    return {
        f"m{i}": Module(f"m{i}", rng.randint(1, 30), rng.randint(1, 30))
        for i in range(n)
    }


class TestConstruction:
    def test_initial_chain(self):
        t = BStarTree.initial(["a", "b", "c"])
        assert t.root == "a"
        assert t.nodes["a"].left == "b"
        assert t.nodes["b"].left == "c"
        assert t.nodes["c"].left is None

    def test_unknown_root_rejected(self):
        with pytest.raises(ValueError):
            BStarTree("zz", {"a": _Node()})

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            BStarTree("a", {"a": _Node(left="b"), "b": _Node(left="a")})

    def test_unreachable_rejected(self):
        with pytest.raises(ValueError):
            BStarTree("a", {"a": _Node(), "orphan": _Node()})

    def test_unknown_rotation_rejected(self):
        with pytest.raises(ValueError):
            BStarTree("a", {"a": _Node()}, frozenset({"zz"}))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BStarTree.initial([])


class TestPacking:
    def test_left_chain_is_row(self):
        mods = {n: Module(n, 2, 3) for n in "abc"}
        fp = pack_btree(BStarTree.initial(["a", "b", "c"]), mods)
        assert fp.chip.width == 6
        assert fp.chip.height == 3
        assert fp.placement("b").x_lo == 2

    def test_right_chain_is_column(self):
        mods = {n: Module(n, 2, 3) for n in "abc"}
        nodes = {
            "a": _Node(right="b"),
            "b": _Node(right="c"),
            "c": _Node(),
        }
        fp = pack_btree(BStarTree("a", nodes), mods)
        assert fp.chip.width == 2
        assert fp.chip.height == 9

    def test_right_child_drops_onto_contour(self):
        # A wide parent with a short left neighbour: the right child
        # rests on the parent's top, not floating.
        mods = {
            "base": Module("base", 6, 2),
            "cap": Module("cap", 3, 1),
        }
        nodes = {"base": _Node(right="cap"), "cap": _Node()}
        fp = pack_btree(BStarTree("base", nodes), mods)
        assert fp.placement("cap").y_lo == pytest.approx(2.0)
        assert fp.placement("cap").x_lo == 0.0

    def test_left_child_clears_taller_contour(self):
        # Module to the right must sit on the floor if the contour
        # there is flat, even when the parent is tall.
        mods = {"tall": Module("tall", 2, 9), "flat": Module("flat", 4, 1)}
        nodes = {"tall": _Node(left="flat"), "flat": _Node()}
        fp = pack_btree(BStarTree("tall", nodes), mods)
        assert fp.placement("flat").x_lo == 2.0
        assert fp.placement("flat").y_lo == 0.0

    def test_rotation_applied(self):
        mods = {"a": Module("a", 6, 2)}
        t = BStarTree("a", {"a": _Node()}, frozenset({"a"}))
        fp = pack_btree(t, mods)
        assert fp.placement("a").width == 2
        assert fp.placement("a").height == 6

    def test_unknown_module(self):
        t = BStarTree.initial(["zz"])
        with pytest.raises(KeyError):
            pack_btree(t, modules(2))


class TestMoves:
    def test_moves_preserve_node_set(self):
        rng = random.Random(5)
        mods = modules(10)
        t = BStarTree.initial(list(mods), rng)
        for _ in range(200):
            t = t.random_neighbor(rng)
            assert set(t.nodes) == set(mods)

    def test_swap_changes_packing(self):
        rng = random.Random(1)
        mods = modules(6, seed=2)
        t = BStarTree.initial(list(mods), rng)
        swapped = t.swap_nodes(rng)
        a = pack_btree(t, mods).placements
        b = pack_btree(swapped, mods).placements
        assert a != b

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2000), st.integers(0, 60))
    def test_random_trees_pack_without_overlap(self, n, seed, n_moves):
        rng = random.Random(seed)
        mods = modules(n, seed)
        t = BStarTree.initial(list(mods), rng)
        for _ in range(n_moves):
            t = t.random_neighbor(rng)
        fp = pack_btree(t, mods)
        fp.validate()
        assert set(fp.module_names) == set(mods)
        # Compaction invariant: the packing touches both axes' origins.
        assert min(r.x_lo for r in fp.placements.values()) == 0.0
        assert min(r.y_lo for r in fp.placements.values()) == 0.0


def recursive_pack(tree, mods):
    """Reference packer: the recursive preorder walk, with each module's
    y the top of the highest placed module overlapping its x span."""
    placed = {}

    def place(name, x):
        m = mods[name]
        w, h = (m.height, m.width) if name in tree.rotated else (m.width, m.height)
        y = max(
            (r.y_hi for r in placed.values() if r.x_lo < x + w and r.x_hi > x),
            default=0.0,
        )
        placed[name] = Rect.from_origin(x, y, w, h)
        node = tree.nodes[name]
        if node.left is not None:
            place(node.left, x + w)
        if node.right is not None:
            place(node.right, x)

    place(tree.root, 0.0)
    return placed


class TestIterativePacking:
    """``pack_btree`` walks the tree on an explicit stack: the initial
    left chain is as deep as the module count, so a recursive walk
    raised RecursionError from about 1000 modules."""

    def test_1200_module_initial_chain_packs(self):
        import sys

        n = 1200
        mods = modules(n, seed=3)
        limit = sys.getrecursionlimit()
        # Far below the chain depth: any per-node recursion fails here.
        sys.setrecursionlimit(500)
        try:
            fp = pack_btree(BStarTree.initial(list(mods)), mods)
        finally:
            sys.setrecursionlimit(limit)
        assert len(fp.placements) == n
        assert fp.chip.width == sum(m.width for m in mods.values())
        assert fp.chip.height == max(m.height for m in mods.values())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 14), st.integers(0, 2000), st.integers(0, 80))
    def test_small_trees_match_recursive_preorder(self, n, seed, n_moves):
        rng = random.Random(seed)
        mods = modules(n, seed)
        t = BStarTree.initial(list(mods), rng)
        for _ in range(n_moves):
            t = t.random_neighbor(rng)
        expected = recursive_pack(t, mods)
        got = pack_btree(t, mods).placements
        assert list(got) == list(expected)
        assert got == expected
