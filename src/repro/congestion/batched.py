"""Whole-floorplan batched evaluation of the approximate IR model.

The per-net kernels in :mod:`repro.congestion.vectorized` still pay
tens of numpy-dispatch overheads per net; inside an annealing loop that
dominates the actual arithmetic.  This module flattens *every covered
(net, IR-cell) pair of the whole floorplan* into parallel parameter
vectors and evaluates all Theorem-1 Simpson integrals in one chunked
pass -- a constant number of numpy operations per 4096 integrals, on
per-thread scratch buffers reused across calls.

:func:`batched_approx_mass_arrays` is the one mass kernel:
:class:`~repro.congestion.model.IrregularGridModel` routes every
approximate evaluation through it, and :func:`batched_approx_mass` only
unpacks net objects for callers that hold them (hotspot attribution,
tests).

On top of the batch kernel sits a per-net memo (a
:class:`~repro.perf.BoundedCache` from the caller's
:class:`~repro.perf.CacheContext`): a net's probability block depends only
on its *local signature* -- net type, unit-grid dimensions ``(g1, g2)``
and the unit-grid offsets of the cut lines crossing its snapped routing
range -- which is exactly the information Formula 3 / Theorem 1
consume.  Inside an annealing run most nets keep that signature between
consecutive states (one move perturbs a handful of modules), so most
blocks come out of the cache and the Simpson pass runs only over
the nets whose local geometry actually changed.

Every step of the framing (range clipping, cut-line snapping,
``(g1, g2)`` quantization, covered-cell spans) is elementwise per edge,
so the same pipeline evaluates an arbitrary *subset* of the edge rows
-- the congestion ledger's O(dirty) delta path
(:mod:`repro.congestion.ledger`) frames only a move's dirty edges and
gets values identical to the full batch restricted to those rows.
:func:`batched_edge_contributions` is that entry point; it returns the
covered flat cell indices and weighted probabilities of the requested
edges, back to back in row order.  The ledger calls it twice per
delta: on the dirty edges' new geometry and on their previous one.

The semantics are identical to the scalar Algorithm:

* degenerate nets / ranges spread weight 1 over their covered cells;
* pin-covering cells get probability 1 (step 3.1);
* thin ranges (g1 or g2 < 3) and cells whose Simpson nodes leave the
  approximation's domain fall back to the exact Formula 3 (Section 4.5);
* everything else gets the Theorem-1 integral (step 3.2).

Tests assert cell-level agreement with the scalar reference pipeline
and cached-vs-uncached agreement on randomized netlists.
"""

from __future__ import annotations

import threading
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.congestion.exact_ir import exact_ir_probability
from repro.congestion.irgrid import IRGrid
from repro.netlist import (
    NetType,
    TwoPinArrays,
    TwoPinNet,
    classify_edges,
    nets_to_arrays,
)
from repro.perf import BoundedCache

__all__ = [
    "batched_approx_mass",
    "batched_approx_mass_arrays",
    "batched_edge_contributions",
    "EdgeContributions",
]


class EdgeContributions(NamedTuple):
    """Congestion contributions of a batch of edges, edge after edge.

    ``cells`` are flat ``col * n_rows + row`` indices and ``values``
    the matching weight-scaled probabilities; each edge's block is
    contiguous and the blocks follow the requested row order.
    Scattering every value into a zeroed mass array reproduces the
    batched mass evaluation of the same edges (to float-summation
    order)."""

    cells: np.ndarray
    values: np.ndarray


def _nearest_indices(lines: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`CutLines.nearest_line_index`."""
    pos = np.searchsorted(lines, coords)
    pos = np.clip(pos, 0, len(lines) - 1)
    before = np.clip(pos - 1, 0, len(lines) - 1)
    use_before = (pos > 0) & (
        (coords - lines[before]) <= (lines[pos] - coords)
    )
    return np.where(use_before, before, pos)


class _Frame:
    """Snapped per-edge framing of an edge batch against one IR-grid.

    Holds the elementwise quantities every downstream stage consumes:
    snapped routing ranges, unit-grid dimensions, covered cell spans
    and the degenerate/type-II classification.  Built either for the
    whole edge array or for a row subset (``rows``); because every
    framing operation is elementwise per edge, the subset frame's
    values equal the full frame's restricted to those rows.
    """

    __slots__ = (
        "x_lines",
        "y_lines",
        "n_cols",
        "n_rows",
        "weights",
        "type_two",
        "degenerate",
        "g1",
        "g2",
        "sx_lo",
        "sx_hi",
        "sy_lo",
        "sy_hi",
        "col_lo",
        "col_hi",
        "row_lo",
        "row_hi",
    )


def _frame_edges(
    irgrid: IRGrid,
    arr: TwoPinArrays,
    grid_size: float,
    rows: Optional[np.ndarray] = None,
) -> _Frame:
    """Frame ``arr`` (or the subset ``rows`` of it) against ``irgrid``."""
    x_lines = np.asarray(irgrid.x_lines.lines)
    y_lines = np.asarray(irgrid.y_lines.lines)
    chip = irgrid.chip

    p1x, p1y, p2x, p2y, weights = arr
    if rows is not None:
        p1x = p1x[rows]
        p1y = p1y[rows]
        p2x = p2x[rows]
        p2y = p2y[rows]
        weights = weights[rows]
        arr = TwoPinArrays(p1x, p1y, p2x, p2y, weights)
    type_two, degenerate_type = classify_edges(arr)

    # Routing ranges (the pins' bounding boxes) clipped into the chip,
    # all in one broadcast -- no per-net Rect construction.
    rx_lo = np.clip(np.minimum(p1x, p2x), chip.x_lo, chip.x_hi)
    rx_hi = np.clip(np.maximum(p1x, p2x), chip.x_lo, chip.x_hi)
    ry_lo = np.clip(np.minimum(p1y, p2y), chip.y_lo, chip.y_hi)
    ry_hi = np.clip(np.maximum(p1y, p2y), chip.y_lo, chip.y_hi)

    # Snap routing ranges onto the merged cut lines (Algorithm step 2's
    # "modify the corresponding routing ranges").  Both ends of an axis
    # go through one fused searchsorted.
    n = len(rx_lo)
    ix_lo, ix_hi = np.split(
        _nearest_indices(x_lines, np.concatenate([rx_lo, rx_hi])), [n]
    )
    iy_lo, iy_hi = np.split(
        _nearest_indices(y_lines, np.concatenate([ry_lo, ry_hi])), [n]
    )

    f = _Frame()
    f.x_lines = x_lines
    f.y_lines = y_lines
    f.n_cols = irgrid.n_columns
    f.n_rows = irgrid.n_rows
    f.weights = weights
    f.type_two = type_two
    f.sx_lo = x_lines[ix_lo]
    f.sx_hi = x_lines[ix_hi]
    f.sy_lo = y_lines[iy_lo]
    f.sy_hi = y_lines[iy_hi]

    f.g1 = np.maximum(1, np.rint((f.sx_hi - f.sx_lo) / grid_size).astype(int))
    f.g2 = np.maximum(1, np.rint((f.sy_hi - f.sy_lo) / grid_size).astype(int))
    f.degenerate = (
        degenerate_type
        | (ix_hi <= ix_lo)
        | (iy_hi <= iy_lo)
        | (f.g1 == 1)
        | (f.g2 == 1)
    )

    # Covered cell index spans (inclusive); a collapsed axis still
    # covers the single line of cells it lies on.
    f.col_lo = np.minimum(ix_lo, f.n_cols - 1)
    f.col_hi = np.minimum(np.maximum(ix_hi - 1, f.col_lo), f.n_cols - 1)
    f.row_lo = np.minimum(iy_lo, f.n_rows - 1)
    f.row_hi = np.minimum(np.maximum(iy_hi - 1, f.row_lo), f.n_rows - 1)
    return f


def _cell_enumeration(frame: _Frame, sub: np.ndarray):
    """Flat enumeration of every cell covered by the edges in ``sub``
    (column-fastest per net, nets in ``sub`` order).

    Returns ``(counts, offsets, rep_nc, ci, ri, col, row)``: per-net
    cell counts and flat offsets, plus per-cell within-net ordinals
    and absolute cell indices -- all by integer arithmetic on
    repeated per-net quantities, no per-cell Python.
    """
    n_c = frame.col_hi[sub] - frame.col_lo[sub] + 1
    n_r = frame.row_hi[sub] - frame.row_lo[sub] + 1
    counts = n_c * n_r
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    total_cells = int(counts.sum())
    e = np.arange(total_cells) - np.repeat(offsets, counts)  # within-net
    rep_nc = np.repeat(n_c, counts)
    # Within-net row/column ordinals in one pass.
    ri, ci = np.divmod(e, rep_nc)
    col = np.repeat(frame.col_lo[sub], counts) + ci
    row = np.repeat(frame.row_lo[sub], counts) + ri
    return counts, offsets, rep_nc, ci, ri, col, row


def _exact_fallback(
    exact_cache: Optional[BoundedCache],
    prob: np.ndarray,
    fb: np.ndarray,
    gg1: np.ndarray,
    gg2: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
) -> None:
    """Batched exact Formula-3 fallback for the cells in ``fb``.

    Inputs are *type-I-frame* spans (the batch kernel mirrors type II
    nets first).  Formula 3 is symmetric under transposing the grid --
    ``P(g1, g2, x, y) == P(g2, g1, y, x)`` -- so every cell's frame is
    put into a canonical orientation in one vectorized pass before
    keying *and* evaluating: mirror- and transpose-equivalent cells
    share one cache entry, and cached and uncached calls agree
    bit-for-bit.  All keys resolve through one ``get_many`` and only
    the misses are computed -- deduplicated within the batch, so a
    configuration that appears on several cells of one evaluation is
    evaluated once.
    """
    fg1 = gg1[fb].astype(np.int64)
    fg2 = gg2[fb].astype(np.int64)
    fx1 = x1[fb].astype(np.int64)
    fx2 = x2[fb].astype(np.int64)
    fy1 = y1[fb].astype(np.int64)
    fy2 = y2[fb].astype(np.int64)
    swap = (fg2 < fg1) | (
        (fg2 == fg1) & ((fy1 < fx1) | ((fy1 == fx1) & (fy2 < fx2)))
    )
    cg1 = np.where(swap, fg2, fg1)
    cg2 = np.where(swap, fg1, fg2)
    cx1 = np.where(swap, fy1, fx1)
    cx2 = np.where(swap, fy2, fx2)
    cy1 = np.where(swap, fx1, fy1)
    cy2 = np.where(swap, fx2, fy2)
    keys = list(
        zip(
            cg1.tolist(), cg2.tolist(),
            cx1.tolist(), cx2.tolist(),
            cy1.tolist(), cy2.tolist(),
        )
    )
    if exact_cache is None:
        values: List[Optional[float]] = [None] * len(keys)
    else:
        values = exact_cache.get_many(keys)
    fresh = []
    local = {}
    for t, v in enumerate(values):
        if v is None:
            k = keys[t]
            v = local.get(k)
            if v is None:
                v = exact_ir_probability(
                    k[0], k[1], NetType.TYPE_I, k[2], k[3], k[4], k[5]
                )
                local[k] = v
                fresh.append((k, v))
            values[t] = v
    if exact_cache is not None and fresh:
        exact_cache.put_many(fresh)
    prob[fb] = values


# Integrals per pass of the chunked Simpson kernel.  Each pass works on
# (panels + 1, rows) scratch arrays, ~300 KB apiece at 8 panels, so the
# kernel's working set stays in cache and does not grow with the batch.
_CHUNK_ROWS = 4096

# Band cutoff: an integral whose two end nodes both sit more than this
# many standard deviations on the same side of the route-mass band is
# dropped.  z keeps one sign along an integral (its numerator
# x - count * p is linear in x), so such an integral lies wholly off
# the band, where the normal density is exponentially small.
_BAND_Z = 8.0

_SCRATCH = threading.local()


class _SimpsonScratch:
    """One thread's reusable buffers for :func:`_simpson_side`, node-
    major: row ``j`` holds Simpson node ``j`` of every integral in the
    chunk, so per-integral quantities broadcast along contiguous rows."""

    __slots__ = (
        "rows", "panels", "last", "k", "w", "a", "b", "c", "good", "bad"
    )

    def __init__(self, rows: int, panels: int):
        # Row ``last`` holds the range end the band test reads.  With a
        # power-of-two panel count the last Simpson node is that end
        # exactly; otherwise the end gets a row of its own.
        self.last = panels if panels & (panels - 1) == 0 else panels + 1
        shape = (self.last + 1, rows)
        self.rows = rows
        self.panels = panels
        self.k = np.arange(panels + 1, dtype=float)[:, None]
        self.w = np.ones((panels + 1, 1))
        self.w[1:-1:2] = 4.0
        self.w[2:-1:2] = 2.0
        self.a = np.empty(shape)
        self.b = np.empty(shape)
        self.c = np.empty(shape)
        self.good = np.empty(shape, dtype=bool)
        self.bad = np.empty(shape, dtype=bool)


def _simpson_scratch(panels: int) -> _SimpsonScratch:
    """The calling thread's scratch, rebuilt when the chunk size or the
    panel count differs from its last call's.  Buffers live per thread
    because engines may run in threads; reusing them across calls
    keeps the allocator from mapping fresh pages on every call."""
    scratch = getattr(_SCRATCH, "buffers", None)
    if (
        scratch is None
        or scratch.rows != _CHUNK_ROWS
        or scratch.panels != panels
    ):
        scratch = _SCRATCH.buffers = _SimpsonScratch(_CHUNK_ROWS, panels)
    return scratch


def _pairwise_rows(x: np.ndarray) -> np.ndarray:
    """Sum the rows of ``x`` into ``x[0]`` in place, in numpy's
    pairwise order for one contiguous run (eight interleaved partial
    sums per block of up to 128, halved recursively above that).  It is
    the order ``(integrals, nodes).sum(axis=1)`` adds a row's nodes in,
    made explicit so the node-major layout sums them identically."""
    n = len(x)
    if n < 8:
        for i in range(1, n):
            x[0] += x[i]
    elif n <= 128:
        blocks = n - n % 8
        for i in range(8, blocks, 8):
            x[:8] += x[i : i + 8]
        x[0:8:2] += x[1:8:2]
        x[0:8:4] += x[2:8:4]
        x[0] += x[4]
        for i in range(blocks, n):
            x[0] += x[i]
    else:
        half = n // 2 - (n // 2) % 8
        _pairwise_rows(x[:half])
        x[0] += _pairwise_rows(x[half:])
    return x[0]


def _simpson_side(
    scratch: _SimpsonScratch,
    prob: np.ndarray,
    invalid: np.ndarray,
    cells: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    offset: np.ndarray,
    along: np.ndarray,
    across: np.ndarray,
    half: float,
) -> None:
    """Add one boundary's Theorem-1 integrals to ``prob[cells]``.

    Each integral runs over ``[start - half, end + half]`` of its cell's
    unit-grid span; ``offset`` is the exit's fixed coordinate and
    ``along``/``across`` the net's unit-grid size along and across the
    integration axis.  Cells whose Simpson nodes leave the normal
    approximation's domain are flagged in ``invalid`` for the exact
    fallback.  The cells are walked in ``_CHUNK_ROWS`` slices and every
    per-node quantity is written into the thread's scratch with
    ``out=``; each integral goes through the same operations in the
    same order whatever the slice size, so the result does not depend
    on the chunking.

    The band test reads z at the range ends ``lo`` and ``hi``.  Node 0
    is ``lo``.  The ends are half-integers (integers under
    ``paper_bounds``), so with a power-of-two panel count the last node
    ``lo + panels * ((hi - lo) / panels)`` is ``hi`` exactly; any other
    panel count can miss ``hi`` by an ulp, and ``hi`` is then evaluated
    in an extra scratch row after the nodes.  The band drops few
    integrals: 0.16 % of a 1000-module sequence-pair run's, 1.7 % of an
    ami49 Polish run's and at most 0.2 % of its sequence-pair and
    B*-tree runs' (38 % only from a 1000-module Polish chain start).
    So every node is evaluated and a negligible integral's sum is
    discarded afterwards, which costs less than a separate end-node
    pre-pass and its compaction gathers.
    """
    panels = scratch.panels
    last = scratch.last
    n = panels + 1
    for first in range(0, len(cells), scratch.rows):
        c = cells[first : first + scratch.rows]
        m = len(c)
        a = scratch.a[:, :m]
        b = scratch.b[:, :m]
        tmp = scratch.c[:, :m]
        good = scratch.good[:, :m]
        bad = scratch.bad[:, :m]

        lo = start[c] - half
        h = (end[c] + half - lo) / panels
        g_along = along[c]
        g_across = across[c]
        count = g_along - 1.0
        span = g_along + g_across
        big_r = span - 3.0
        denom = span - 2.0
        coef = (g_across - 2.0) / (big_r - 1.0) * count

        np.multiply(scratch.k, h, out=a[:n])
        np.add(a[:n], lo, out=a[:n])  # a: nodes
        if last > panels:
            np.add(end[c], half, out=a[last])  # a[last]: hi
        np.add(a, offset[c], out=b)
        np.divide(b, big_r, out=b)  # b: p
        np.greater(b, 0.0, out=good)
        np.less(b, 1.0, out=bad)
        good &= bad
        np.multiply(b, count, out=tmp)
        np.subtract(a, tmp, out=a)  # a: nodes - count * p
        np.subtract(1.0, b, out=tmp)
        np.multiply(b, coef, out=b)
        np.multiply(b, tmp, out=b)  # b: variance
        np.greater(b, 0.0, out=bad)
        good &= bad
        np.logical_not(good, out=bad)
        b[bad] = 1.0  # b: variance, 1 where not good
        np.sqrt(b, out=tmp)
        np.divide(a, tmp, out=a)  # a: z

        z0 = a[0]
        z1 = a[last]
        negligible = (
            good[0]
            & good[last]
            & (
                ((z0 > _BAND_Z) & (z1 > _BAND_Z))
                | ((z0 < -_BAND_Z) & (z1 < -_BAND_Z))
            )
        )

        np.multiply(a, -0.5, out=tmp)
        np.multiply(tmp, a, out=tmp)
        np.exp(tmp, out=tmp)
        np.multiply(b, 2 * np.pi, out=b)
        np.sqrt(b, out=b)
        np.divide(tmp, b, out=tmp)
        tmp[bad] = 0.0  # tmp: density
        np.multiply(tmp[:n], scratch.w, out=tmp[:n])
        # The prefactor of the axis across the integration is
        # (g_across - 1) / (g1 + g2 - 2).
        integral = (
            ((denom - count) / denom) * _pairwise_rows(tmp[:n]) * h / 3.0
        )

        flagged = np.logical_or.reduce(bad[:n], axis=0)
        if negligible.any():
            keep = ~negligible
            c = c[keep]
            integral = integral[keep]
            flagged = flagged[keep]
        # Cells are unique within one side, so fancy += is exact.
        prob[c] += integral
        invalid[c[flagged]] = True


def _flat_probabilities(
    frame: _Frame,
    sub: np.ndarray,
    panels: int,
    paper_bounds: bool,
    exact_cache: Optional[BoundedCache],
):
    """Crossing probabilities of every cell covered by the edges in
    ``sub``, flattened column-fastest per net.

    Returns ``(prob, col, row, counts, offsets)``: flat probability
    / cell-index vectors plus per-net cell counts and flat offsets
    (for carving the flat vector back into per-net slices).
    """
    counts, offsets, rep_nc, ci, ri, col, row = _cell_enumeration(frame, sub)
    x_lines = frame.x_lines
    y_lines = frame.y_lines
    g1 = frame.g1
    g2 = frame.g2

    gg1 = np.repeat(g1[sub].astype(float), counts)
    gg2 = np.repeat(g2[sub].astype(float), counts)
    thin = np.repeat((g1[sub] < 3) | (g2[sub] < 3), counts)
    two = np.repeat(frame.type_two[sub], counts)

    base_x = np.repeat(frame.sx_lo[sub], counts)
    base_y = np.repeat(frame.sy_lo[sub], counts)
    x_unit = np.repeat((frame.sx_hi[sub] - frame.sx_lo[sub]) / g1[sub], counts)
    y_unit = np.repeat((frame.sy_hi[sub] - frame.sy_lo[sub]) / g2[sub], counts)

    # Unit-grid spans of each cell in its net's routing range.
    x1 = np.rint((x_lines[col] - base_x) / x_unit)
    x2 = np.rint((x_lines[col + 1] - base_x) / x_unit) - 1.0
    x1 = np.clip(x1, 0.0, gg1 - 1.0)
    x2 = np.clip(np.maximum(x2, x1), 0.0, gg1 - 1.0)
    y1 = np.rint((y_lines[row] - base_y) / y_unit)
    y2 = np.rint((y_lines[row + 1] - base_y) / y_unit) - 1.0
    y1 = np.clip(y1, 0.0, gg2 - 1.0)
    y2 = np.clip(np.maximum(y2, y1), 0.0, gg2 - 1.0)
    # Vertical mirror: type II becomes type I with flipped rows.
    y1_m = np.where(two, gg2 - 1.0 - y2, y1)
    y2_m = np.where(two, gg2 - 1.0 - y1, y2)
    y1, y2 = y1_m, y2_m

    # Pin-covering cells: the snapped range's corners on the net's
    # pin diagonal (step 3.1).
    first_c = ci == 0
    last_c = ci == rep_nc - 1
    first_r = ri == 0
    last_r = row == np.repeat(frame.row_hi[sub], counts)
    pin = np.where(
        two,
        (last_c & first_r) | (first_c & last_r),
        (first_c & first_r) | (last_c & last_r),
    )

    prob = np.zeros(len(col))
    invalid = thin.copy()

    # ---- Simpson integrals -----------------------------------------
    # Top-boundary exits integrate over x with Q = x + y2 (binomial
    # count along x g1-1, variance numerator g2-2); right-boundary
    # exits integrate over y with Q = y + x2.  All top integrals are
    # accumulated before any right one, so a cell active in both adds
    # its two integrals in a fixed order.
    compute = ~pin & ~thin
    if compute.any():
        half = 0.0 if paper_bounds else 0.5
        scratch = _simpson_scratch(panels)
        with np.errstate(invalid="ignore", divide="ignore"):
            top = np.nonzero(compute & (y2 + 1.0 < gg2))[0]
            _simpson_side(
                scratch, prob, invalid, top, x1, x2, y2, gg1, gg2, half
            )
            right = np.nonzero(compute & (x2 + 1.0 < gg1))[0]
            _simpson_side(
                scratch, prob, invalid, right, y1, y2, x2, gg2, gg1, half
            )

        # Cells flush with both far edges but not flagged as pins
        # cannot be trusted to an empty integral.
        invalid |= compute & (y2 + 1.0 >= gg2) & (x2 + 1.0 >= gg1)

    # Theorem 1's normal approximation is not trusted to stay
    # finite for every input (degenerate variance, overflow in the
    # density): a NaN/inf cell is rerouted to the exact Formula 3
    # fallback instead of being clipped into plausible garbage.
    non_finite = ~np.isfinite(prob)
    if non_finite.any():
        prob[non_finite] = 0.0
        invalid |= non_finite

    prob = np.clip(prob, 0.0, 1.0)
    prob[pin] = 1.0

    # ---- exact fallback (thin ranges + domain failures) ------------
    # The spans are already mirrored into the type-I frame, which is
    # exactly the frame the fallback canonicalizes from.
    fallback = np.nonzero(invalid & ~pin)[0]
    if len(fallback):
        _exact_fallback(exact_cache, prob, fallback, gg1, gg2, x1, x2, y1, y2)
    return prob, col, row, counts, offsets


def _axis_offsets(
    lines: np.ndarray,
    cell_lo: np.ndarray,
    cell_hi: np.ndarray,
    origin: np.ndarray,
    unit: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-net unit-grid offsets of one axis' covered boundary lines.

    The offsets are the ``rint``-quantized positions the batch kernel
    itself consumes, so two nets sharing these values (plus type and
    ``(g1, g2)``) provably share their probability block.  Returns the
    flat ``int32`` offset vector (all nets back to back) and the
    per-net line counts -- built with a repeat/cumsum enumeration, no
    per-line Python.
    """
    n_lines = cell_hi - cell_lo + 2  # cells + 1 boundary lines
    offsets = np.concatenate([[0], np.cumsum(n_lines)[:-1]])
    total = int(n_lines.sum())
    e = np.arange(total) - np.repeat(offsets, n_lines)
    line_idx = np.repeat(cell_lo, n_lines) + e
    vals = (lines[line_idx] - np.repeat(origin, n_lines)) / np.repeat(
        unit, n_lines
    )
    return np.rint(vals).astype(np.int32), n_lines


def _signature_keys(
    panels: int,
    paper_bounds: bool,
    type_two: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    x_vals: np.ndarray,
    nx: np.ndarray,
    y_vals: np.ndarray,
    ny: np.ndarray,
) -> List[bytes]:
    """One ``bytes`` signature per net: a fixed header (panels,
    paper_bounds, net type, ``g1``, ``g2``, ``nx`` -- the last making
    the x/y split unambiguous) followed by both axes' quantized line
    offsets.  A single flat ``int32`` buffer is assembled with a
    handful of scatters and sliced per net, so key construction does
    one hash-friendly allocation per net instead of a 7-tuple."""
    n = len(nx)
    header = 6
    lens = header + nx + ny
    offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
    out = np.empty(int(lens.sum()), dtype=np.int32)
    out[offs] = panels
    out[offs + 1] = paper_bounds
    out[offs + 2] = type_two
    out[offs + 3] = g1
    out[offs + 4] = g2
    out[offs + 5] = nx
    cum_x = np.concatenate([[0], np.cumsum(nx)[:-1]])
    e_x = np.arange(int(nx.sum())) - np.repeat(cum_x, nx)
    out[np.repeat(offs + header, nx) + e_x] = x_vals
    cum_y = np.concatenate([[0], np.cumsum(ny)[:-1]])
    e_y = np.arange(int(ny.sum())) - np.repeat(cum_y, ny)
    out[np.repeat(offs + header + nx, ny) + e_y] = y_vals
    buf = out.tobytes()
    starts = (4 * offs).tolist()
    ends = (4 * (offs + lens)).tolist()
    return [buf[starts[t] : ends[t]] for t in range(n)]


def _memo_probabilities(
    frame: _Frame,
    idx: np.ndarray,
    panels: int,
    paper_bounds: bool,
    cache: BoundedCache,
    exact_cache: Optional[BoundedCache],
):
    """Memoized probabilities of the regular edges in ``idx``.

    Cached values are the nets' flat probability vectors exactly as
    :func:`_flat_probabilities` emits them (column-fastest); the
    signature build and the cache lookups are batched (`get_many` /
    `put_many` take the cache lock once), and only the missing nets
    re-enter the Simpson pass.  Returns
    ``(prob, counts, offsets)`` in ``idx`` order.
    """
    g1 = frame.g1
    g2 = frame.g2
    x_unit_all = (frame.sx_hi - frame.sx_lo) / g1
    y_unit_all = (frame.sy_hi - frame.sy_lo) / g2
    x_vals, nx = _axis_offsets(
        frame.x_lines,
        frame.col_lo[idx],
        frame.col_hi[idx],
        frame.sx_lo[idx],
        x_unit_all[idx],
    )
    y_vals, ny = _axis_offsets(
        frame.y_lines,
        frame.row_lo[idx],
        frame.row_hi[idx],
        frame.sy_lo[idx],
        y_unit_all[idx],
    )
    keys = _signature_keys(
        panels, paper_bounds, frame.type_two[idx], g1[idx], g2[idx],
        x_vals, nx, y_vals, ny,
    )
    vectors: List[Optional[np.ndarray]] = cache.get_many(keys)
    miss_pos = [t for t, v in enumerate(vectors) if v is None]
    if miss_pos:
        sub = idx[miss_pos]
        prob_m, _, _, counts_m, offsets_m = _flat_probabilities(
            frame, sub, panels, paper_bounds, exact_cache
        )
        fresh = []
        for s, t in enumerate(miss_pos):
            vec = prob_m[offsets_m[s] : offsets_m[s] + int(counts_m[s])].copy()
            vec.setflags(write=False)
            fresh.append((keys[t], vec))
            vectors[t] = vec
        cache.put_many(fresh)
    prob = np.concatenate(vectors) if len(vectors) > 1 else vectors[0]
    n_c = frame.col_hi[idx] - frame.col_lo[idx] + 1
    n_r = frame.row_hi[idx] - frame.row_lo[idx] + 1
    counts = n_c * n_r
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return prob, counts, offsets


def _edge_blocks(
    frame: _Frame,
    panels: int,
    paper_bounds: bool,
    cache: Optional[BoundedCache],
    exact_cache: Optional[BoundedCache],
):
    """Weighted per-cell contributions of every edge in ``frame``.

    Returns a list of ``(edges, counts, flat_cells, values)`` groups:
    the degenerate edges first, then the regular ones, each group only
    when nonempty.  ``edges`` are frame row indices, ``counts`` their
    covered-cell counts, ``values`` already weight-scaled; flat cell
    indices are ``col * n_rows + row``.
    """
    n_rows_total = frame.n_rows
    groups = []
    deg = np.nonzero(frame.degenerate)[0]
    if len(deg):
        counts_d, _, _, _, _, col_d, row_d = _cell_enumeration(frame, deg)
        groups.append((
            deg,
            counts_d,
            col_d * n_rows_total + row_d,
            np.repeat(frame.weights[deg], counts_d),
        ))
    idx = np.nonzero(~frame.degenerate)[0]
    if len(idx):
        if cache is not None:
            prob, counts, _ = _memo_probabilities(
                frame, idx, panels, paper_bounds, cache, exact_cache
            )
            _, _, _, _, _, col, row = _cell_enumeration(frame, idx)
        else:
            prob, col, row, counts, _ = _flat_probabilities(
                frame, idx, panels, paper_bounds, exact_cache
            )
        groups.append((
            idx,
            counts,
            col * n_rows_total + row,
            np.repeat(frame.weights[idx], counts) * prob,
        ))
    return groups


def batched_approx_mass(
    irgrid: IRGrid,
    nets: Sequence[TwoPinNet],
    grid_size: float,
    panels: int = 8,
    paper_bounds: bool = False,
    cache: Optional[BoundedCache] = None,
    exact_cache: Optional[BoundedCache] = None,
) -> np.ndarray:
    """:func:`batched_approx_mass_arrays` over :class:`TwoPinNet`
    objects (unpacked with :func:`~repro.netlist.nets_to_arrays`)."""
    if not nets:
        return np.zeros((irgrid.n_columns, irgrid.n_rows))
    return batched_approx_mass_arrays(
        irgrid,
        nets_to_arrays(nets),
        grid_size,
        panels=panels,
        paper_bounds=paper_bounds,
        cache=cache,
        exact_cache=exact_cache,
    )


def batched_approx_mass_arrays(
    irgrid: IRGrid,
    arr: TwoPinArrays,
    grid_size: float,
    panels: int = 8,
    paper_bounds: bool = False,
    cache: Optional[BoundedCache] = None,
    exact_cache: Optional[BoundedCache] = None,
):
    """Congestion mass per IR-cell, shape ``(n_columns, n_rows)``.

    Endpoint arrays go straight into the batch kernel with no per-net
    attribute reads.  ``cache`` memoizes per-net probability blocks by
    local signature and ``exact_cache`` the Formula-3 fallback cells;
    both come from the caller's :class:`~repro.perf.CacheContext`.
    ``None`` forces the pure batch path (identical results -- cached
    blocks are bit-for-bit the kernel's output for the same signature).
    """
    mass = np.zeros((irgrid.n_columns, irgrid.n_rows))
    if not len(arr):
        return mass

    frame = _frame_edges(irgrid, arr, grid_size)
    # ``bincount`` over flattened indices is several times faster than
    # ``np.add.at`` for this scatter; both paths (cached and not) use
    # it, so their summation order -- hence every last bit -- agrees.
    # Degenerate nets accumulate first into the zeroed array, then the
    # regular nets: the same order the per-net adds it replaced used.
    for _, _, cells, values in _edge_blocks(
        frame, panels, paper_bounds, cache, exact_cache
    ):
        mass.ravel()[:] += np.bincount(
            cells, weights=values, minlength=mass.size
        )
    return mass


def batched_edge_contributions(
    irgrid: IRGrid,
    arr: TwoPinArrays,
    grid_size: float,
    rows: Optional[np.ndarray] = None,
    panels: int = 8,
    paper_bounds: bool = False,
    cache: Optional[BoundedCache] = None,
    exact_cache: Optional[BoundedCache] = None,
) -> EdgeContributions:
    """Contributions of the edge rows ``rows`` of ``arr`` (all of them
    when ``None``), one block per edge in row order.

    The congestion ledger's O(dirty) lane: frames only the requested
    edge rows against ``irgrid``.  Because every framing operation is
    elementwise per edge, the values equal what a full-batch
    evaluation would assign those same edges -- the property the
    ledger's subtract-old/add-new delta depends on, asserted to 1e-12
    by strict mode and the property suite.
    """
    frame = _frame_edges(irgrid, arr, grid_size, rows=rows)
    groups = _edge_blocks(frame, panels, paper_bounds, cache, exact_cache)
    if not groups:
        return EdgeContributions(np.empty(0, dtype=np.int64), np.empty(0))
    # The degenerate and regular edges come back as two groups; a
    # stable sort on the owning row interleaves their blocks into row
    # order while keeping each block's cells in kernel order.
    owner = np.concatenate([np.repeat(e, n) for e, n, _, _ in groups])
    order = np.argsort(owner, kind="stable")
    cells = np.concatenate([c for _, _, c, _ in groups])[order]
    values = np.concatenate([v for _, _, _, v in groups])[order]
    return EdgeContributions(cells, values)
