"""Reference Polish conversion: the recursive slicing-tree walk and
postfix emission, kept verbatim as identity oracles.

``repro.floorplan.convert`` builds and emits the tree iteratively, so
its depth is not bounded by the call stack; the tests in
``test_convert_iterative.py`` require it to emit exactly these tokens.
These functions recurse once per guillotine level and fail on
floorplans that nest deeper than the recursion limit allows.
"""

from __future__ import annotations

from typing import List

from repro.floorplan.convert import _flatten, _guillotine_parts
from repro.floorplan.polish import OP_ABOVE, OP_BESIDE

__all__ = ["polish_tokens"]


def _polish_node(names: List[str], rects, prefer_vertical: bool):
    """A slicing-tree node (leaf name, or ``(op, children)``) for one
    group, recursing through guillotine cuts.

    ``prefer_vertical`` picks which axis to try first and which
    operator a cutless (non-slicing) cluster is forced apart with;
    alternating it per level keeps fallback splits balanced.
    """
    if len(names) == 1:
        return names[0]
    for vertical in (True, False) if prefer_vertical else (False, True):
        parts = _guillotine_parts(names, rects, vertical)
        if parts is not None:
            # OP_BESIDE places the second operand right of the first,
            # OP_ABOVE above it; parts come ordered along the axis, so
            # an in-order combine reproduces the spatial order.
            op = OP_BESIDE if vertical else OP_ABOVE
            return _flatten(
                op, [_polish_node(p, rects, not vertical) for p in parts]
            )
    # No guillotine cut exists (a non-slicing wheel): split the group
    # in half along the preferred axis by rect centers and force the
    # corresponding operator.
    key = (
        (lambda n: (rects[n].x_lo + rects[n].x_hi, n))
        if prefer_vertical
        else (lambda n: (rects[n].y_lo + rects[n].y_hi, n))
    )
    ordered = sorted(names, key=key)
    half = len(ordered) // 2
    op = OP_BESIDE if prefer_vertical else OP_ABOVE
    return _flatten(
        op,
        [
            _polish_node(ordered[:half], rects, not prefer_vertical),
            _polish_node(ordered[half:], rects, not prefer_vertical),
        ],
    )


def _emit_postfix(node) -> List[str]:
    """Left-deep postfix of a slicing tree.

    Flattening guarantees no child shares its parent's operator, so
    every emitted operator is preceded by tokens ending in either an
    operand or a *different* operator -- the expression is normalized
    by construction.
    """
    if isinstance(node, str):
        return [node]
    op, children = node
    tokens = _emit_postfix(children[0])
    for child in children[1:]:
        tokens += _emit_postfix(child)
        tokens.append(op)
    return tokens


def polish_tokens(floorplan) -> List[str]:
    """The postfix tokens ``polish_from_floorplan`` validates, from the
    recursive walk."""
    rects = floorplan.placements
    names = sorted(rects)
    if len(names) == 1:
        return names
    return _emit_postfix(_polish_node(names, rects, prefer_vertical=True))
