"""Reference packers: the O(m^2) sequence-pair walk, the
scan-and-sort B*-tree contour and the Rect-building slicing
placement walk, kept verbatim as identity oracles.

``repro.floorplan`` packs with FAST-SP and an indexed contour, and
every packer writes coordinate columns instead of ``Rect`` objects;
the tests in ``test_packer_identity.py`` require all three to return
exactly these placements, in the same order, with the same chip.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.floorplan import (
    BStarTree,
    Floorplan,
    PolishExpression,
    SequencePair,
    build_slicing_tree,
)
from repro.floorplan.polish import OP_ABOVE
from repro.floorplan.slicing import SlicingNode
from repro.geometry import Rect
from repro.netlist import Module
from repro.perf.cache import BoundedCache

__all__ = ["pack_sequence_pair", "pack_btree", "evaluate_polish"]


def pack_sequence_pair(
    pair: SequencePair, modules: Mapping[str, Module]
) -> Floorplan:
    """Pack a sequence pair into the lower-left-justified floorplan."""
    dims: Dict[str, Tuple[float, float]] = {}
    for name in pair.gamma_plus:
        try:
            m = modules[name]
        except KeyError:
            raise KeyError(f"sequence pair names unknown module {name!r}")
        if name in pair.rotated:
            dims[name] = (m.height, m.width)
        else:
            dims[name] = (m.width, m.height)

    pos_plus = {name: i for i, name in enumerate(pair.gamma_plus)}
    order = pair.gamma_minus  # both relations imply gamma_minus precedence
    x: Dict[str, float] = {}
    y: Dict[str, float] = {}
    for j, b in enumerate(order):
        bx = by = 0.0
        pb = pos_plus[b]
        for a in order[:j]:
            if pos_plus[a] < pb:  # a left of b
                bx = max(bx, x[a] + dims[a][0])
            else:  # a below b
                by = max(by, y[a] + dims[a][1])
        x[b], y[b] = bx, by

    placements = {
        name: Rect.from_origin(x[name], y[name], *dims[name])
        for name in pair.gamma_plus
    }
    return Floorplan(placements)


def pack_btree(tree: BStarTree, modules: Mapping[str, object]) -> Floorplan:
    """Pack a B*-tree with the contour algorithm.

    DFS preorder; left children go right of their parent, right
    children share their parent's x.  Each module's y is the maximum
    contour height over its x span; the contour is then raised.
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

    # Contour as a sorted list of (x, height) steps; height applies
    # from this x to the next step's x.
    contour: List[Tuple[float, float]] = [(0.0, 0.0)]
    placements: Dict[str, Rect] = {}

    def contour_max(x_lo: float, x_hi: float) -> float:
        top = 0.0
        for i, (x, h) in enumerate(contour):
            seg_end = contour[i + 1][0] if i + 1 < len(contour) else float("inf")
            if x < x_hi and seg_end > x_lo:
                top = max(top, h)
        return top

    def contour_raise(x_lo: float, x_hi: float, new_h: float) -> None:
        # Rebuild the step list with [x_lo, x_hi) at new_h.
        new: List[Tuple[float, float]] = []
        inserted = False
        tail_height = 0.0
        for i, (x, h) in enumerate(contour):
            seg_end = contour[i + 1][0] if i + 1 < len(contour) else float("inf")
            if seg_end <= x_lo or x >= x_hi:
                new.append((x, h))
                if x < x_hi:
                    tail_height = h
                continue
            # Overlapping segment: keep the uncovered prefix/suffix.
            if x < x_lo:
                new.append((x, h))
            if not inserted:
                new.append((x_lo, new_h))
                inserted = True
            if seg_end > x_hi:
                new.append((x_hi, h))
            tail_height = h
        if not inserted:
            new.append((x_lo, new_h))
            new.append((x_hi, tail_height))
        elif all(abs(x - x_hi) > 1e-12 for x, _ in new):
            new.append((x_hi, tail_height))
        # Normalize: sort, drop duplicate xs (keep the later entry).
        new.sort(key=lambda s: s[0])
        dedup: List[Tuple[float, float]] = []
        for x, h in new:
            if dedup and abs(dedup[-1][0] - x) < 1e-12:
                dedup[-1] = (x, h)
            else:
                dedup.append((x, h))
        contour[:] = dedup

    # Preorder DFS on an explicit stack (a left chain is as deep as the
    # module count): pushing right before left pops the left subtree
    # first, so modules are placed in the same order as a recursion.
    stack: List[Tuple[str, float]] = [(tree.root, 0.0)]
    while stack:
        name, x = stack.pop()
        w, h = dims[name]
        y = contour_max(x, x + w)
        placements[name] = Rect.from_origin(x, y, w, h)
        contour_raise(x, x + w, y + h)
        node = tree.nodes[name]
        if node.right is not None:
            stack.append((node.right, x))
        if node.left is not None:
            stack.append((node.left, x + w))
    return Floorplan(placements)


def _place(
    node: SlicingNode,
    shape_index: int,
    x: float,
    y: float,
    out: Dict[str, Rect],
) -> None:
    """Place every module of the chosen realization, iteratively."""
    stack = [(node, shape_index, x, y)]
    while stack:
        node, shape_index, x, y = stack.pop()
        shape = node.shapes[shape_index]
        if node.is_leaf:
            out[node.module_name] = Rect.from_origin(
                x, y, shape.width, shape.height
            )
            continue
        left_shape = node.left.shapes[shape.left_index]
        if node.op == OP_ABOVE:
            stack.append(
                (node.right, shape.right_index, x, y + left_shape.height)
            )
        else:
            stack.append(
                (node.right, shape.right_index, x + left_shape.width, y)
            )
        stack.append((node.left, shape.left_index, x, y))


def evaluate_polish(
    expression: PolishExpression,
    modules: Mapping[str, Module],
    allow_rotation: bool = True,
    cache: Optional[BoundedCache] = None,
) -> Floorplan:
    """Pack a Polish expression into the minimum-area floorplan."""
    root = build_slicing_tree(expression, modules, allow_rotation, cache=cache)
    best = root.shapes.min_area_index()
    placements: Dict[str, Rect] = {}
    _place(root, best, 0.0, 0.0, placements)
    chip_shape = root.shapes[best]
    chip = Rect.from_origin(0.0, 0.0, chip_shape.width, chip_shape.height)
    return Floorplan(placements, chip=chip)
