"""Slicing-tree evaluation: Polish expression -> placed floorplan.

The evaluator builds the slicing tree from the postfix expression,
computes each node's non-dominated shape list bottom-up, picks the
minimum-area root outline, then walks back down the recorded child
choices assigning coordinates:

* ``*`` (beside): left child at ``(x, y)``, right child at
  ``(x + w_left, y)``;
* ``+`` (above): left child at ``(x, y)``, right child at
  ``(x, y + h_left)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.floorplan.floorplan import Floorplan
from repro.floorplan.packing import (
    ShapeList,
    combine,
    leaf_shapes_for_module,
)
from repro.floorplan.polish import OP_ABOVE, OPERATORS, PolishExpression
from repro.geometry import Rect
from repro.netlist import Module
from repro.perf.cache import BoundedCache

__all__ = [
    "SlicingNode",
    "build_slicing_tree",
    "evaluate_polish",
]

# Shape lists are pure functions of a subtree: ``combine`` over the same
# operator and child lists always yields the same (immutable) result.
# Annealing moves perturb a couple of tokens, so almost every subtree of
# a candidate expression was already evaluated in a recent state -- the
# ``cache`` argument (an engine-owned ``BoundedCache``, typically
# ``CacheContext.subtree_shapes``) turns the bottom-up Stockmeyer pass
# into mostly lookups.  Leaf keys are grounded in the module objects
# themselves (frozen dataclasses), so identically named modules with
# different dimensions -- or rotation settings -- never collide.
# Interior keys are ``(op, left_id, right_id)`` over *interned* child
# ids (each cache entry carries a unique id from ``_SUBTREE_IDS``)
# rather than nested child keys: hashing a nested key would walk the
# whole subtree at every level, turning the pass quadratic.  Ids come
# from a process-wide counter and are never reused, so distinct
# subtrees can't collide even across separate caches; an
# evicted-and-reinterned subtree merely strands its parents' old
# entries until they age out.
_SUBTREE_IDS = itertools.count()


@dataclass
class SlicingNode:
    """A slicing-tree node with its computed shape list."""

    shapes: ShapeList
    op: Optional[str] = None  # None for leaves
    module_name: Optional[str] = None
    left: "SlicingNode | None" = None
    right: "SlicingNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.op is None


def build_slicing_tree(
    expression: PolishExpression,
    modules: Mapping[str, Module],
    allow_rotation: bool = True,
    cache: Optional[BoundedCache] = None,
) -> SlicingNode:
    """Build the tree and compute every node's shape list bottom-up.

    ``cache`` memoizes per-subtree shape lists (the default ``None``
    recomputes everything); cached or not, the lists are identical
    objects' worth of identical values, so packing results do not
    depend on the cache state.
    """
    if cache is None:
        stack: list[SlicingNode] = []
        for token in expression.tokens:
            if token in OPERATORS:
                right = stack.pop()
                left = stack.pop()
                stack.append(
                    SlicingNode(
                        shapes=combine(token, left.shapes, right.shapes),
                        op=token,
                        left=left,
                        right=right,
                    )
                )
            else:
                try:
                    module = modules[token]
                except KeyError:
                    raise KeyError(
                        f"expression operand {token!r} has no module definition"
                    )
                stack.append(
                    SlicingNode(
                        shapes=leaf_shapes_for_module(module, allow_rotation),
                        module_name=token,
                    )
                )
        # PolishExpression validity guarantees exactly one tree remains.
        return stack[0]

    # Memoized pass: stack entries are (node, interned subtree id).
    mstack: list[tuple[SlicingNode, int]] = []
    for token in expression.tokens:
        if token in OPERATORS:
            right, right_id = mstack.pop()
            left, left_id = mstack.pop()
            key = (token, left_id, right_id)
            entry = cache.get(key)
            if entry is None:
                shapes = combine(token, left.shapes, right.shapes)
                entry = (next(_SUBTREE_IDS), shapes)
                cache.put(key, entry)
            node = SlicingNode(
                shapes=entry[1],
                op=token,
                left=left,
                right=right,
            )
            mstack.append((node, entry[0]))
        else:
            try:
                module = modules[token]
            except KeyError:
                raise KeyError(
                    f"expression operand {token!r} has no module definition"
                )
            key = (module, allow_rotation)
            entry = cache.get(key)
            if entry is None:
                entry = (
                    next(_SUBTREE_IDS),
                    leaf_shapes_for_module(module, allow_rotation),
                )
                cache.put(key, entry)
            mstack.append(
                (SlicingNode(shapes=entry[1], module_name=token), entry[0])
            )
    return mstack[0][0]


def _place(
    node: SlicingNode,
    shape_index: int,
    x: float,
    y: float,
    out: Tuple[List[str], List[float], List[float], List[float], List[float]],
) -> None:
    """Place every module of the chosen realization, iteratively,
    appending its name, origin and size to the ``out`` columns.

    An explicit work stack instead of recursion: a pathological but
    perfectly legal expression (``m0 m1 * m2 * ...``, one long
    left-deep chain) nests as deep as the module count, and annealing
    near 1k modules used to blow CPython's recursion limit here.  The
    right child is pushed first so the left subtree is walked -- and
    ``out`` is filled -- in exactly the order the recursive version
    used, keeping placement order (and therefore downstream
    order-sensitive consumers) bit-identical.
    """
    names, xs, ys, widths, heights = out
    stack = [(node, shape_index, x, y)]
    while stack:
        node, shape_index, x, y = stack.pop()
        shape = node.shapes[shape_index]
        if node.is_leaf:
            names.append(node.module_name)
            xs.append(x)
            ys.append(y)
            widths.append(shape.width)
            heights.append(shape.height)
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
    """Pack a Polish expression into the minimum-area floorplan.

    The chip outline is the chosen root shape (modules may leave
    whitespace inside it wherever a cut's two sides differ in extent).
    ``cache`` is the subtree shape memo (the default ``None`` disables
    it; the packing is identical either way).
    """
    root = build_slicing_tree(expression, modules, allow_rotation, cache=cache)
    best = root.shapes.min_area_index()
    columns = ([], [], [], [], [])
    _place(root, best, 0.0, 0.0, columns)
    chip_shape = root.shapes[best]
    chip = Rect.from_origin(0.0, 0.0, chip_shape.width, chip_shape.height)
    return Floorplan.from_origins(*columns, chip=chip)
