"""Reference overlap check: the O(m^2) Python pair loop that
``Floorplan.overlapping_pairs`` used before it swept numpy blocks,
kept verbatim as the identity oracle for ``test_columnar.py``.
"""

from __future__ import annotations

from typing import Iterable, Tuple

__all__ = ["overlapping_pairs"]


def overlapping_pairs(floorplan) -> Iterable[Tuple[str, str]]:
    """All pairs of modules whose interiors intersect materially."""
    placements = floorplan.placements
    tolerance = 1e-9 * max(floorplan.chip.width, floorplan.chip.height, 1.0)
    names = list(placements)
    for i, a in enumerate(names):
        ra = placements[a]
        for b in names[i + 1 :]:
            rb = placements[b]
            depth_x = min(ra.x_hi, rb.x_hi) - max(ra.x_lo, rb.x_lo)
            depth_y = min(ra.y_hi, rb.y_hi) - max(ra.y_lo, rb.y_lo)
            if depth_x > tolerance and depth_y > tolerance:
                yield (a, b)
