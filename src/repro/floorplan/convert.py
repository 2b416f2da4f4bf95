"""Representation conversion: a placed floorplan -> any representation.

The portfolio search driver races Polish-expression, sequence-pair and
B*-tree annealers against each other and migrates *elite* solutions
across representations: the best floorplan found under one
representation becomes the starting state of a restart under another.
That needs the inverse of ``realize`` -- given a placed
:class:`~repro.floorplan.floorplan.Floorplan`, reconstruct a state in
the target representation whose packing resembles it.

Exactness is impossible in general (slicing trees cannot express every
packing; B*-trees reach only left-bottom-compacted ones), so each
converter is a *structure-preserving heuristic*: the reconstructed
state packs to a floorplan with the same neighborhood relations where
the representation can express them, and the migrated run re-anneals
from there.  All three converters are deterministic -- identical
inputs produce identical states, which the driver parity tests rely
on -- and always return a *valid* state (validation failures fall back
to a deterministic placement-ordered chain, never an exception).

Rotation flags are recovered per module by comparing the placed
rectangle's dimensions against the module's nominal ``width x height``
(ties -- squares -- are never flagged).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.floorplan.btree import BStarTree, _Node
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.polish import (
    OP_ABOVE,
    OP_BESIDE,
    PolishExpression,
    initial_expression,
)
from repro.floorplan.sequence_pair import SequencePair
from repro.netlist import Module

__all__ = [
    "polish_from_floorplan",
    "sequence_pair_from_floorplan",
    "btree_from_floorplan",
]


def _rotated_names(
    floorplan: Floorplan, modules: Mapping[str, Module]
) -> frozenset:
    """Modules whose placed rect matches the rotated outline better."""
    rotated = set()
    for name, rect in floorplan.placements.items():
        m = modules.get(name)
        if m is None or m.width == m.height:
            continue
        upright = abs(rect.width - m.width) + abs(rect.height - m.height)
        turned = abs(rect.width - m.height) + abs(rect.height - m.width)
        if turned < upright:
            rotated.add(name)
    return frozenset(rotated)


def _sweep_order(floorplan: Floorplan, names: Sequence[str]) -> List[str]:
    """Deterministic placement sweep: left-to-right, bottom-to-top."""
    rects = floorplan.placements
    return sorted(
        names, key=lambda n: (rects[n].x_lo, rects[n].y_lo, n)
    )


# -- Polish expressions (slicing) ------------------------------------------


def _guillotine_parts(
    names: List[str], rects: Mapping[str, "object"], vertical: bool
) -> Optional[List[List[str]]]:
    """Split ``names`` at every full guillotine cut along one axis.

    Returns the maximal list of parts (>= 2) ordered along the axis, or
    ``None`` when no cut line spans the whole group.  Parts are maximal
    slices, so no part admits another top-level cut in the *same*
    direction -- which is what keeps the emitted postfix normalized
    (no two consecutive identical operators).
    """
    if vertical:
        lo = lambda n: rects[n].x_lo  # noqa: E731
        hi = lambda n: rects[n].x_hi  # noqa: E731
    else:
        lo = lambda n: rects[n].y_lo  # noqa: E731
        hi = lambda n: rects[n].y_hi  # noqa: E731
    ordered = sorted(names, key=lambda n: (lo(n), hi(n), n))
    spans = [hi(n) - lo(n) for n in ordered]
    tol = 1e-9 * max(max(spans), 1.0)
    parts: List[List[str]] = []
    part: List[str] = []
    reach = None
    for n in ordered:
        if part and reach is not None and lo(n) >= reach - tol:
            parts.append(part)
            part = []
            reach = None
        part.append(n)
        reach = hi(n) if reach is None else max(reach, hi(n))
    parts.append(part)
    return parts if len(parts) >= 2 else None


def _flatten(op: str, children: List[object]) -> Tuple[str, List[object]]:
    """Merge same-operator children into one n-ary combine.

    Same-direction slicing combines are associative (``(a b *) c *``
    and ``a (b c *) *`` pack identically), so a child whose top-level
    operator equals the parent's dissolves into the parent's operand
    list.  After flattening, no direct child carries the parent's
    operator -- the property that makes the emitted postfix normalized.
    """
    out: List[object] = []
    for child in children:
        if isinstance(child, tuple) and child[0] == op:
            out.extend(child[1])
        else:
            out.append(child)
    return (op, out)


def _split(names: List[str], rects, prefer_vertical: bool):
    """One slicing-tree level: ``(op, [(part, prefer_vertical), ...])``.

    ``prefer_vertical`` picks which axis to try first and which
    operator a cutless (non-slicing) cluster is forced apart with;
    alternating it per level keeps fallback splits balanced.
    """
    for vertical in (True, False) if prefer_vertical else (False, True):
        parts = _guillotine_parts(names, rects, vertical)
        if parts is not None:
            # OP_BESIDE places the second operand right of the first,
            # OP_ABOVE above it; parts come ordered along the axis, so
            # an in-order combine reproduces the spatial order.
            op = OP_BESIDE if vertical else OP_ABOVE
            return op, [(p, not vertical) for p in parts]
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
    return op, [
        (ordered[:half], not prefer_vertical),
        (ordered[half:], not prefer_vertical),
    ]


def _polish_node(names: List[str], rects, prefer_vertical: bool):
    """A slicing-tree node (leaf name, or ``(op, children)``) for one
    group, built through guillotine cuts.

    Iterative post-order over an explicit stack of open groups, each
    ``(op, parts, built children)``: a spiral floorplan that peels off
    one module per cut nests as deep as it has modules, which no call
    stack can follow.
    """
    if len(names) == 1:
        return names[0]
    stack = [(*_split(names, rects, prefer_vertical), [])]
    while True:
        op, parts, built = stack[-1]
        if len(built) < len(parts):
            part, prefer = parts[len(built)]
            if len(part) == 1:
                built.append(part[0])
            else:
                stack.append((*_split(part, rects, prefer), []))
            continue
        stack.pop()
        node = _flatten(op, built)
        if not stack:
            return node
        stack[-1][2].append(node)


def _emit_postfix(node) -> List[str]:
    """Left-deep postfix of a slicing tree.

    Flattening guarantees no child shares its parent's operator, so
    every emitted operator is preceded by tokens ending in either an
    operand or a *different* operator -- the expression is normalized
    by construction.  Iterative: the stack holds what is still to be
    emitted, last item first, and operators are plain tokens on it.
    """
    tokens: List[str] = []
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            tokens.append(item)
            continue
        op, children = item
        pending = [children[0]]
        for child in children[1:]:
            pending += [child, op]
        stack.extend(reversed(pending))
    return tokens


def polish_from_floorplan(
    floorplan: Floorplan, modules: Mapping[str, Module]
) -> PolishExpression:
    """Reconstruct a normalized Polish expression from a placement.

    Guillotine extraction: wherever a vertical or horizontal
    cut line spans the whole group the group splits there (multi-way,
    combined left-deep so the postfix stays normalized); clusters with
    no guillotine cut fall back to center-median splits with
    alternating cut direction.  A slicing placement round-trips to an
    expression that packs to the same adjacency structure; any
    placement yields *some* valid expression.
    """
    rects = floorplan.placements
    names = sorted(rects)
    if len(names) == 1:
        return PolishExpression(names)
    tokens = _emit_postfix(_polish_node(names, rects, prefer_vertical=True))
    try:
        return PolishExpression(tokens)
    except ValueError:
        # Defensive fallback: a deterministic alternating chain over
        # the placement sweep order is always valid.
        return initial_expression(_sweep_order(floorplan, names))


# -- Sequence pairs --------------------------------------------------------


def sequence_pair_from_floorplan(
    floorplan: Floorplan, modules: Mapping[str, Module]
) -> SequencePair:
    """Reconstruct a sequence pair from a placement.

    The classic center-sort construction: ``gamma_plus`` orders modules
    from top-left to bottom-right (key ``x - y``), ``gamma_minus`` from
    bottom-left to top-right (key ``x + y``).  For modules whose rects
    strictly dominate each other horizontally or vertically this
    reproduces the exact left-of / below relations; diagonal neighbors
    resolve by center geometry.  Rotation flags are recovered from the
    placed dimensions.
    """
    rects = floorplan.placements
    names = sorted(rects)

    def center(n: str) -> Tuple[float, float]:
        r = rects[n]
        return (r.x_lo + r.x_hi) / 2.0, (r.y_lo + r.y_hi) / 2.0

    gamma_plus = tuple(
        sorted(names, key=lambda n: (center(n)[0] - center(n)[1], n))
    )
    gamma_minus = tuple(
        sorted(names, key=lambda n: (center(n)[0] + center(n)[1], n))
    )
    return SequencePair(
        gamma_plus, gamma_minus, _rotated_names(floorplan, modules)
    )


# -- B*-trees --------------------------------------------------------------


def btree_from_floorplan(
    floorplan: Floorplan, modules: Mapping[str, Module]
) -> BStarTree:
    """Reconstruct a B*-tree from a placement.

    Modules attach in placement sweep order (x, then y): each module
    picks the already-placed module whose free child slot best matches
    the B*-tree geometry -- a **left child** sits at its parent's right
    edge (``x = parent.x_hi, y ~ parent.y_lo``), a **right child**
    stacks above at the same x (``x = parent.x_lo, y ~ parent.y_hi``).
    The closest geometric fit wins (ties break on parent name, left
    slot first); a binary tree over ``k`` placed nodes always has a
    free slot, so every module attaches and the result is always a
    valid tree.
    """
    rects = floorplan.placements
    order = _sweep_order(floorplan, list(rects))
    root = order[0]
    children: Dict[str, List[Optional[str]]] = {root: [None, None]}
    for name in order[1:]:
        r = rects[name]
        best = None  # (score, parent_name, slot_index)
        for parent in sorted(children):
            p = rects[parent]
            slots = children[parent]
            if slots[0] is None:
                score = abs(p.x_hi - r.x_lo) + abs(p.y_lo - r.y_lo)
                cand = (score, parent, 0)
                if best is None or cand < best:
                    best = cand
            if slots[1] is None:
                score = abs(p.x_lo - r.x_lo) + abs(p.y_hi - r.y_lo)
                cand = (score, parent, 1)
                if best is None or cand < best:
                    best = cand
        assert best is not None  # k placed nodes expose k+1 free slots
        _, parent, slot = best
        children[parent][slot] = name
        children[name] = [None, None]
    nodes = {
        name: _Node(left=slots[0], right=slots[1])
        for name, slots in children.items()
    }
    return BStarTree(root, nodes, _rotated_names(floorplan, modules))
