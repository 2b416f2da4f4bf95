"""Flat array representation of placed 2-pin nets.

The annealing hot loop evaluates congestion thousands of times per
second; materializing a :class:`~repro.netlist.net.TwoPinNet` object
per edge per evaluation (plus re-reading its attributes inside the
congestion kernels) costs more than the kernels' arithmetic.
:class:`TwoPinArrays` is the struct-of-arrays equivalent: endpoint
coordinate vectors plus weights, in edge order.  Endpoints need *not*
be in the lexicographic ``p1 <= p2`` order :class:`TwoPinNet` enforces
-- every consumer normalizes internally (see :func:`classify_edges`),
so producers can fill the arrays straight from pin coordinates.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.geometry import Point
from repro.netlist.net import TwoPinNet

__all__ = [
    "TwoPinArrays",
    "nets_to_arrays",
    "arrays_to_nets",
    "classify_edges",
]


class TwoPinArrays(NamedTuple):
    """Placed 2-pin nets as parallel coordinate/weight vectors.

    ``p1x[k], p1y[k]`` and ``p2x[k], p2y[k]`` are edge ``k``'s pin
    coordinates (in either order) and ``weights[k]`` its net weight.
    """

    p1x: np.ndarray
    p1y: np.ndarray
    p2x: np.ndarray
    p2y: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.p1x)


def nets_to_arrays(nets: Sequence[TwoPinNet]) -> TwoPinArrays:
    """Unpack :class:`TwoPinNet` objects into a :class:`TwoPinArrays`."""
    n = len(nets)
    p1x = np.empty(n)
    p1y = np.empty(n)
    p2x = np.empty(n)
    p2y = np.empty(n)
    weights = np.empty(n)
    for k, net in enumerate(nets):
        p1 = net.p1
        p2 = net.p2
        p1x[k] = p1.x
        p1y[k] = p1.y
        p2x[k] = p2.x
        p2y[k] = p2.y
        weights[k] = net.weight
    return TwoPinArrays(p1x, p1y, p2x, p2y, weights)


def arrays_to_nets(arr: TwoPinArrays) -> List[TwoPinNet]:
    """Materialize anonymous :class:`TwoPinNet` objects (``e0``,
    ``e1``, ...) from a :class:`TwoPinArrays`, for consumers that only
    read net objects (the exact Formula-3 loop, models without an
    array kernel).  The hot path never calls this."""
    return [
        TwoPinNet(
            name=f"e{k}",
            p1=Point(float(arr.p1x[k]), float(arr.p1y[k])),
            p2=Point(float(arr.p2x[k]), float(arr.p2y[k])),
            weight=float(arr.weights[k]),
        )
        for k in range(len(arr))
    ]


def classify_edges(arr: TwoPinArrays) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :attr:`TwoPinNet.net_type`: ``(type_two, degenerate)``.

    Replicates the scalar classification exactly: an edge is degenerate
    when its pins share an x or y coordinate; otherwise, after ordering
    the pins lexicographically (x then y, as ``TwoPinNet.__post_init__``
    does), type II means the first pin sits *above* the second.
    """
    degenerate = (arr.p1x == arr.p2x) | (arr.p1y == arr.p2y)
    swap = (arr.p1x > arr.p2x) | ((arr.p1x == arr.p2x) & (arr.p1y > arr.p2y))
    lo_y = np.where(swap, arr.p2y, arr.p1y)
    hi_y = np.where(swap, arr.p1y, arr.p2y)
    type_two = ~degenerate & (lo_y > hi_y)
    return type_two, degenerate
