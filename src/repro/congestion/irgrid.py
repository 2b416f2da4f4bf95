"""Irregular-Grid construction (Section 4.2 + Algorithm steps 1-2).

Every net's routing range contributes its four boundary lines as cut
lines; together with the chip boundary they partition the chip into
IR-grids.  Step 2 of the paper's algorithm merges cut lines closer than
twice the unit-grid pitch ("Remove any two lines whose interval is
smaller than the double of the width/length of a grid and modify the
corresponding routing ranges"), which bounds the IR-grid count and
removes sliver cells; the affected routing ranges are then *snapped*
onto the surviving lines.

The result, :class:`IRGrid`, answers the two queries the model needs:

* the rectangle and area of each IR-cell;
* for a routing range, the index span of the IR-cells it covers (an
  exact cover -- ranges are snapped onto cut lines, so "every net will
  pass through several entire IR-grids").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.geometry import CutLines, Rect, merge_close_lines
from repro.netlist import TwoPinArrays, TwoPinNet, nets_to_arrays

__all__ = ["IRGrid", "build_irgrid", "build_irgrid_arrays"]


@dataclass(frozen=True)
class IRGrid:
    """The merged cut-line partition of a chip."""

    chip: Rect
    x_lines: CutLines
    y_lines: CutLines

    @property
    def n_columns(self) -> int:
        return self.x_lines.n_cells

    @property
    def n_rows(self) -> int:
        return self.y_lines.n_cells

    @property
    def n_cells(self) -> int:
        return self.n_columns * self.n_rows

    def cell_rect(self, i: int, j: int) -> Rect:
        """Rectangle of IR-cell in column ``i``, row ``j``."""
        x_lo, x_hi = self.x_lines.cell_bounds(i)
        y_lo, y_hi = self.y_lines.cell_bounds(j)
        return Rect(x_lo, y_lo, x_hi, y_hi)

    def cells(self) -> Iterable[Tuple[int, int, Rect]]:
        """All cells as ``(column, row, rect)`` in row-major order."""
        for i in range(self.n_columns):
            for j in range(self.n_rows):
                yield i, j, self.cell_rect(i, j)

    def snap_range(self, rect: Rect) -> Rect:
        """A routing range snapped onto the nearest cut lines.

        This is the Algorithm's "modify the corresponding routing
        ranges": after merging, a range boundary may sit between lines;
        the evaluated range is the snapped one.  Snapping may collapse a
        thin range onto a single line (degenerate), which the model
        treats like an aligned-pin net.
        """
        return Rect(
            self.x_lines.snap(rect.x_lo),
            self.y_lines.snap(rect.y_lo),
            self.x_lines.snap(rect.x_hi),
            self.y_lines.snap(rect.y_hi),
        )

    def cell_span(self, snapped: Rect) -> Tuple[int, int, int, int]:
        """Inclusive IR-cell index span covered by a *snapped* range:
        ``(col_lo, col_hi, row_lo, row_hi)``.

        A degenerate snapped range (zero width/height) still covers the
        single line of cells it lies on; a range collapsed onto the
        chip's top/right boundary folds into the last cell.
        """
        col_lo = self.x_lines.nearest_line_index(snapped.x_lo)
        col_hi = self.x_lines.nearest_line_index(snapped.x_hi) - 1
        row_lo = self.y_lines.nearest_line_index(snapped.y_lo)
        row_hi = self.y_lines.nearest_line_index(snapped.y_hi) - 1
        col_hi = max(col_hi, col_lo)
        row_hi = max(row_hi, row_lo)
        col_lo = min(col_lo, self.n_columns - 1)
        col_hi = min(col_hi, self.n_columns - 1)
        row_lo = min(row_lo, self.n_rows - 1)
        row_hi = min(row_hi, self.n_rows - 1)
        return col_lo, col_hi, row_lo, row_hi


def build_irgrid(
    chip: Rect,
    nets: Sequence[TwoPinNet],
    grid_size: float,
    merge_factor: float = 2.0,
) -> IRGrid:
    """Build the Irregular-Grid for a set of placed 2-pin nets.

    Parameters
    ----------
    chip:
        Chip outline; its boundaries are always cut lines and survive
        merging unmoved.
    nets:
        Placed 2-pin nets; each contributes its routing range's four
        boundary lines (degenerate ranges contribute their segment's
        lines too -- they still occupy track capacity).
    grid_size:
        The unit-grid pitch (paper: 30 or 60 um).  Governs both the
        merge threshold and the per-net unit-grid resolution used by the
        probability formulas.
    merge_factor:
        Lines closer than ``merge_factor * grid_size`` merge (paper
        step 2 uses "double", i.e. 2.0; the ablation bench sweeps this).
    """
    return build_irgrid_arrays(
        chip, nets_to_arrays(nets), grid_size, merge_factor
    )


def build_irgrid_arrays(
    chip: Rect,
    arr: TwoPinArrays,
    grid_size: float,
    merge_factor: float = 2.0,
) -> IRGrid:
    """:func:`build_irgrid` over a :class:`TwoPinArrays` batch -- the
    one cut-line builder; the net-object entry point unpacks its nets
    into arrays and calls this."""
    if grid_size <= 0:
        raise ValueError(f"grid_size must be positive, got {grid_size}")
    if merge_factor < 0:
        raise ValueError(f"merge_factor must be >= 0, got {merge_factor}")
    xs: Sequence[float] = [chip.x_lo, chip.x_hi]
    ys: Sequence[float] = [chip.y_lo, chip.y_hi]
    if len(arr):
        # The chip bounds ride along through the clip (clipping them to
        # themselves is exact), and the merge pass sorts its input, so
        # the candidates' order is irrelevant: the lines equal a
        # per-net loop's (the test suite keeps one as the reference).
        x_pairs = np.concatenate(
            [xs, np.minimum(arr.p1x, arr.p2x), np.maximum(arr.p1x, arr.p2x)]
        )
        y_pairs = np.concatenate(
            [ys, np.minimum(arr.p1y, arr.p2y), np.maximum(arr.p1y, arr.p2y)]
        )
        np.clip(x_pairs, chip.x_lo, chip.x_hi, out=x_pairs)
        np.clip(y_pairs, chip.y_lo, chip.y_hi, out=y_pairs)
        xs = x_pairs
        ys = y_pairs
    return _merge_and_assemble(chip, xs, ys, grid_size, merge_factor)


def _merge_and_assemble(
    chip: Rect,
    xs: Sequence[float],
    ys: Sequence[float],
    grid_size: float,
    merge_factor: float,
) -> IRGrid:
    """Merge clamped cut-line candidates and build the grid."""
    keep_x = (chip.x_lo, chip.x_hi)
    keep_y = (chip.y_lo, chip.y_hi)
    min_gap = merge_factor * grid_size
    merged_x = merge_close_lines(xs, min_gap, keep=keep_x)
    merged_y = merge_close_lines(ys, min_gap, keep=keep_y)
    # A chip edge shorter than the merge threshold can collapse both of
    # its boundary lines into one cluster; fall back to the bare chip
    # boundaries so the partition always has at least one cell.
    if len(merged_x) < 2:
        merged_x = [chip.x_lo, chip.x_hi]
    if len(merged_y) < 2:
        merged_y = [chip.y_lo, chip.y_hi]
    return IRGrid(chip, CutLines(merged_x), CutLines(merged_y))
