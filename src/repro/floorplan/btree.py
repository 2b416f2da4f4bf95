"""B*-tree floorplan representation (extension).

The third classic floorplan representation [Chang et al., DAC 2000],
completing the set next to slicing trees and sequence pairs: an ordered
binary tree over modules where

* the **left child** of a node is the lowest adjacent module to its
  *right* (``x = parent.x + parent.width``);
* the **right child** sits at the *same x* as its parent, above it.

Packing walks the tree in DFS order maintaining a *contour* -- the
skyline of placed modules -- so each module drops to the lowest legal
y at its x position.  B*-trees reach exactly the admissible compacted
placements.  The contour is a bisect-indexed step list, so packing is
O(m log m) plus the in-place list splices.

The perturbation set mirrors the literature: rotate a module, move a
node to a new parent, and swap two nodes.  Annealed through
:class:`repro.engine.AnnealEngine` (``representation="btree"``), this
gives the congestion model a third host floorplanner.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.floorplan.floorplan import Floorplan

__all__ = ["BStarTree", "pack_btree"]


@dataclass(frozen=True)
class _Node:
    """One tree node: a module name plus child slots (names or None)."""

    left: Optional[str] = None
    right: Optional[str] = None


@dataclass(frozen=True)
class BStarTree:
    """An immutable B*-tree over module names.

    ``root`` names the module at the origin; ``nodes`` maps every
    module to its child slots; ``rotated`` flags 90-degree rotations.
    """

    root: str
    nodes: Mapping[str, _Node]
    rotated: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        names = set(self.nodes)
        if self.root not in names:
            raise ValueError(f"root {self.root!r} is not a tree node")
        seen = set()
        stack = [self.root]
        while stack:
            name = stack.pop()
            if name in seen:
                raise ValueError(f"node {name!r} reachable twice (cycle/DAG)")
            seen.add(name)
            node = self.nodes[name]
            for child in (node.left, node.right):
                if child is not None:
                    if child not in names:
                        raise ValueError(f"child {child!r} is not a tree node")
                    stack.append(child)
        if seen != names:
            raise ValueError(
                f"unreachable nodes: {sorted(names - seen)}"
            )
        unknown = set(self.rotated) - names
        if unknown:
            raise ValueError(f"rotation flags for unknown modules {unknown}")

    # -- constructors ----------------------------------------------------

    @classmethod
    def initial(
        cls, names: List[str], rng: "random.Random | None" = None
    ) -> "BStarTree":
        """A left-skewed chain (modules in a row), optionally shuffled."""
        order = list(names)
        if not order:
            raise ValueError("need at least one module")
        if rng is not None:
            rng.shuffle(order)
        nodes: Dict[str, _Node] = {}
        for i, name in enumerate(order):
            left = order[i + 1] if i + 1 < len(order) else None
            nodes[name] = _Node(left=left, right=None)
        return cls(order[0], nodes)

    # -- moves -------------------------------------------------------------

    def toggle_rotation(self, rng: random.Random) -> "BStarTree":
        """Flip one random module's 90-degree rotation."""
        name = rng.choice(sorted(self.nodes))
        rotated = set(self.rotated)
        if name in rotated:
            rotated.remove(name)
        else:
            rotated.add(name)
        return replace(self, rotated=frozenset(rotated))

    def swap_nodes(self, rng: random.Random) -> "BStarTree":
        """Swap two modules' positions in the tree (names trade places)."""
        names = sorted(self.nodes)
        if len(names) < 2:
            return self
        a, b = rng.sample(names, 2)
        mapping = {a: b, b: a}

        def rename(x: Optional[str]) -> Optional[str]:
            return mapping.get(x, x) if x is not None else None

        nodes = {
            mapping.get(name, name): _Node(rename(n.left), rename(n.right))
            for name, n in self.nodes.items()
        }
        rotated = frozenset(mapping.get(n, n) for n in self.rotated)
        return BStarTree(mapping.get(self.root, self.root), nodes, rotated)

    def move_node(self, rng: random.Random) -> "BStarTree":
        """Detach a random leaf and re-attach it at a random free slot."""
        leaves = [
            name
            for name, n in self.nodes.items()
            if n.left is None and n.right is None and name != self.root
        ]
        if not leaves:
            return self
        mover = rng.choice(sorted(leaves))
        nodes = {k: v for k, v in self.nodes.items() if k != mover}
        # Detach from its parent.
        for name, n in list(nodes.items()):
            if n.left == mover:
                nodes[name] = replace(n, left=None)
            elif n.right == mover:
                nodes[name] = replace(n, right=None)
        # Free slots after detachment.
        slots: List[Tuple[str, str]] = []
        for name, n in nodes.items():
            if n.left is None:
                slots.append((name, "left"))
            if n.right is None:
                slots.append((name, "right"))
        parent, side = slots[rng.randrange(len(slots))]
        attached = replace(
            nodes[parent], **{side: mover}
        )
        nodes[parent] = attached
        nodes[mover] = _Node()
        return BStarTree(self.root, nodes, self.rotated)

    def random_neighbor(self, rng: random.Random) -> "BStarTree":
        """One uniformly-chosen perturbation (rotate/swap/move)."""
        choice = rng.randrange(3)
        if choice == 0:
            return self.toggle_rotation(rng)
        if choice == 1:
            return self.swap_nodes(rng)
        return self.move_node(rng)


def pack_btree(tree: BStarTree, modules: Mapping[str, object]) -> Floorplan:
    """Pack a B*-tree with the contour algorithm.

    DFS preorder; left children go right of their parent, right
    children share their parent's x.  Each module's y is the maximum
    contour height over its x span; the contour is then raised.

    The contour is two parallel lists: step ``i`` has height ``hs[i]``
    from ``xs[i]`` up to ``xs[i + 1]`` (the last step runs on forever).
    ``xs`` starts at 0.0 and is strictly increasing, consecutive steps
    at least 1e-12 apart (module widths are assumed to be at least
    that, a picometre).  A module over ``[x, x + w)`` bisects to the
    steps it covers and scans only those; the raise replaces them with
    at most three steps, so the scan is amortized O(1).
    """
    dims: Dict[str, Tuple[float, float]] = {}
    for name in tree.nodes:
        try:
            m = modules[name]
        except KeyError:
            raise KeyError(f"B*-tree names unknown module {name!r}")
        if name in tree.rotated:
            dims[name] = (m.height, m.width)
        else:
            dims[name] = (m.width, m.height)

    xs: List[float] = [0.0]
    hs: List[float] = [0.0]
    # Placement columns, in placement order.
    names: List[str] = []
    x_lo: List[float] = []
    y_lo: List[float] = []
    widths: List[float] = []
    heights: List[float] = []
    # Preorder DFS on an explicit stack (a left chain is as deep as the
    # module count): pushing right before left pops the left subtree
    # first, so modules are placed in the same order as a recursion.
    stack: List[Tuple[str, float]] = [(tree.root, 0.0)]
    while stack:
        name, x = stack.pop()
        w, h = dims[name]
        x_hi = x + w
        # Covered steps: first..stop-1, from the one holding x to the
        # last one starting before x_hi.
        first = bisect_right(xs, x) - 1
        stop = bisect_left(xs, x_hi, first)
        y = max(hs[first:stop])
        names.append(name)
        x_lo.append(x)
        y_lo.append(y)
        widths.append(w)
        heights.append(h)

        steps: List[Tuple[float, float]] = []
        if xs[first] < x:
            steps.append((xs[first], hs[first]))
        steps.append((x, y + h))
        if stop == len(xs) or xs[stop] > x_hi:
            steps.append((x_hi, hs[stop - 1]))
        if stop < len(xs):
            steps.append((xs[stop], hs[stop]))
            stop += 1
        # Steps closer than 1e-12 in x collapse onto the later one.
        merged = [steps[0]]
        for step in steps[1:]:
            if abs(merged[-1][0] - step[0]) < 1e-12:
                merged[-1] = step
            else:
                merged.append(step)
        xs[first:stop] = [sx for sx, _ in merged]
        hs[first:stop] = [sh for _, sh in merged]

        node = tree.nodes[name]
        if node.right is not None:
            stack.append((node.right, x))
        if node.left is not None:
            stack.append((node.left, x_hi))
    return Floorplan.from_origins(names, x_lo, y_lo, widths, heights)
