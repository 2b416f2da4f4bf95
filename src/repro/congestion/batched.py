"""Whole-floorplan batched evaluation of the approximate IR model.

The per-net kernels in :mod:`repro.congestion.vectorized` still pay
tens of numpy-dispatch overheads per net; inside an annealing loop that
dominates the actual arithmetic.  This module flattens *every covered
(net, IR-cell) pair of the whole floorplan* into parallel parameter
vectors and evaluates all Theorem-1 Simpson integrals in one broadcast
-- a constant number of numpy operations per floorplan evaluation.

On top of the batch kernel sits a per-net memo (see
:mod:`repro.congestion.cache`): a net's probability block depends only
on its *local signature* -- net type, unit-grid dimensions ``(g1, g2)``
and the unit-grid offsets of the cut lines crossing its snapped routing
range -- which is exactly the information Formula 3 / Theorem 1
consume.  Inside an annealing run most nets keep that signature between
consecutive states (one move perturbs a handful of modules), so most
blocks come out of the cache and the Simpson broadcast runs only over
the nets whose local geometry actually changed.

Every step of the framing (range clipping, cut-line snapping,
``(g1, g2)`` quantization, covered-cell spans) is elementwise per edge,
so the same pipeline evaluates an arbitrary *subset* of the edge rows
-- the congestion ledger's O(dirty) delta path
(:mod:`repro.congestion.ledger`) frames only a move's dirty edges and
gets values identical to the full batch restricted to those rows.
:func:`batched_edge_contributions` is that entry point; it returns each
edge's covered flat cell indices and weighted probabilities in CSR
layout.

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

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.congestion.cache import BoundedCache
from repro.congestion.exact_ir import exact_ir_probability
from repro.congestion.irgrid import IRGrid
from repro.netlist import (
    NetType,
    TwoPinArrays,
    TwoPinNet,
    classify_edges,
    nets_to_arrays,
)

__all__ = [
    "batched_approx_mass",
    "batched_approx_mass_arrays",
    "batched_edge_contributions",
    "EdgeContributions",
]


class EdgeContributions(NamedTuple):
    """Per-edge congestion contributions in CSR layout.

    ``counts[e]`` cells belong to edge ``e`` (0 for edges covering
    nothing), stored at ``cells[offsets[e] : offsets[e] + counts[e]]``
    as flat ``col * n_rows + row`` indices with the matching
    weight-scaled probabilities in ``values``.  Scattering every value
    into a zeroed mass array reproduces the batched mass evaluation of
    the same edges (to float-summation order)."""

    counts: np.ndarray
    offsets: np.ndarray
    cells: np.ndarray
    values: np.ndarray


def _exact_cached(
    cache: Optional[BoundedCache],
    g1: int,
    g2: int,
    x1: int,
    x2: int,
    y1: int,
    y2: int,
) -> float:
    """Formula 3 in the canonical frame, memoized in the caller's
    exact-probability store.

    Inputs are *type-I-frame* spans (the batch kernel mirrors type II
    nets before falling back here).  Formula 3 is symmetric under
    transposing the grid -- ``P(g1, g2, x, y) == P(g2, g1, y, x)`` --
    so arguments are put into a canonical orientation before keying
    *and* evaluating: mirror-equivalent and transpose-equivalent cells
    share one cache entry (the same small configurations recur
    constantly across an annealing run, and an ami33-scale run's hit
    rate roughly doubles), and because evaluation itself happens in the
    canonical frame, cached and uncached calls agree bit-for-bit.
    ``cache=None`` computes directly."""
    if g2 < g1 or (g2 == g1 and (y1 < x1 or (y1 == x1 and y2 < x2))):
        g1, g2 = g2, g1
        x1, x2, y1, y2 = y1, y2, x1, x2
    if cache is None:
        return exact_ir_probability(g1, g2, NetType.TYPE_I, x1, x2, y1, y2)
    key = (g1, g2, x1, x2, y1, y2)
    value = cache.get(key)
    if value is None:
        value = exact_ir_probability(g1, g2, NetType.TYPE_I, x1, x2, y1, y2)
        cache.put(key, value)
    return value


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

    Canonicalizes every cell's frame in one vectorized pass (the same
    transpose symmetry :func:`_exact_cached` applies scalar-wise), then
    resolves all keys through one ``get_many`` and computes only the
    misses -- deduplicated within the batch, so a configuration that
    appears on several cells of one evaluation is evaluated once.
    Values are identical to the scalar per-cell path: evaluation always
    happens in the canonical frame.
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

    # ---- Simpson integrals, band-filtered --------------------------
    # The integrand is (normal-like) exponentially small away from
    # the route-mass band along the net's pin diagonal; on sprawling
    # floorplans the overwhelming majority of covered cells sit far
    # outside it.  A two-endpoint z test finds them (z has constant
    # sign across a cell: x - mu(x) is linear in x with positive
    # slope (g2-2)/R), and the full 9-node broadcast runs only on
    # the surviving band cells.  Both boundary integrals (top exits
    # over x, right exits over y) are concatenated into ONE broadcast:
    # half the numpy dispatches of evaluating them separately, with
    # top cells ordered before right cells so a cell active in both
    # accumulates its two integrals in the same order as two separate
    # passes would -- bit-identical results.
    compute = ~pin & ~thin
    if compute.any():
        big_r = gg1 + gg2 - 3.0
        half = 0.0 if paper_bounds else 0.5
        k_nodes = np.arange(panels + 1)
        weights_s = np.ones(panels + 1)
        weights_s[1:-1:2] = 4.0
        weights_s[2:-1:2] = 2.0

        # Top-boundary exits: integrate over x; Q = x + y2; the
        # binomial count along x is g1-1, variance numerator g2-2.
        # Right-boundary exits: integrate over y; Q = y + x2.
        ta = np.nonzero(compute & (y2 + 1.0 < gg2))[0]
        ra = np.nonzero(compute & (x2 + 1.0 < gg1))[0]
        cells_idx = np.concatenate([ta, ra])
        if len(cells_idx):
            lo = np.concatenate([x1[ta] - half, y1[ra] - half])
            hi = np.concatenate([x2[ta] + half, y2[ra] + half])
            offset = np.concatenate([y2[ta], x2[ra]])
            count_par = np.concatenate([gg1[ta] - 1.0, gg2[ra] - 1.0])
            spread_par = np.concatenate([gg2[ta] - 2.0, gg1[ra] - 2.0])
            br = big_r[cells_idx]
            denom = (gg1 + gg2 - 2.0)[cells_idx]
            with np.errstate(invalid="ignore", divide="ignore"):
                # Endpoint pre-pass (2 nodes).
                ends = np.stack([lo, hi], axis=1)  # (cells, 2)
                p_e = (ends + offset[:, None]) / br[:, None]
                ok_e = (p_e > 0.0) & (p_e < 1.0)
                var_e = (
                    (spread_par / (br - 1.0))[:, None]
                    * count_par[:, None]
                    * p_e
                    * (1.0 - p_e)
                )
                good_e = ok_e & (var_e > 0.0)
                safe_e = np.where(good_e, var_e, 1.0)
                z_e = (ends - count_par[:, None] * p_e) / np.sqrt(safe_e)
                both_good = good_e.all(axis=1)
                negligible = both_good & (
                    ((z_e > 8.0).all(axis=1)) | ((z_e < -8.0).all(axis=1))
                )
                live = np.nonzero(~negligible)[0]
                if len(live):
                    lo_c = lo[live]
                    hi_c = hi[live]
                    off_c = offset[live]
                    cnt_c = count_par[live]
                    spr_c = spread_par[live]
                    br_c = br[live]
                    h = (hi_c - lo_c) / panels
                    nodes = lo_c[:, None] + h[:, None] * k_nodes
                    p_n = (nodes + off_c[:, None]) / br_c[:, None]
                    ok = (p_n > 0.0) & (p_n < 1.0)
                    var = (
                        (spr_c / (br_c - 1.0))[:, None]
                        * cnt_c[:, None]
                        * p_n
                        * (1.0 - p_n)
                    )
                    good = ok & (var > 0.0)
                    safe = np.where(good, var, 1.0)
                    z = (nodes - cnt_c[:, None] * p_n) / np.sqrt(safe)
                    dens = np.where(
                        good,
                        np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi * safe),
                        0.0,
                    )
                    # count_par is g-1 along the integration axis; the
                    # prefactor of the *other* axis is (g_other - 1):
                    other = denom[live] - cnt_c
                    integral = (
                        (other / denom[live])
                        * (dens * weights_s).sum(axis=1)
                        * h
                        / 3.0
                    )
                    # Split the joint live set back at the top/right
                    # seam: within each part the cell indices are
                    # unique, so fancy += is the (much faster)
                    # equivalent of np.add.at, and adding the top part
                    # first preserves the separate-pass summation
                    # order for cells active in both.
                    seam = int(np.searchsorted(live, len(ta)))
                    prob[cells_idx[live[:seam]]] += integral[:seam]
                    prob[cells_idx[live[seam:]]] += integral[seam:]
                    bad = (~good).any(axis=1)
                    if bad.any():
                        invalid[cells_idx[live[bad]]] = True

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
    re-enter the Simpson broadcast.  Returns
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

    Returns ``(deg, deg_data, idx, reg_data)``: the degenerate and
    regular edge index sets with their ``(counts, flat_cells, values)``
    triples (``None`` when the set is empty).  ``values`` are already
    weight-scaled; flat cell indices are ``col * n_rows + row``.
    """
    n_rows_total = frame.n_rows
    deg = np.nonzero(frame.degenerate)[0]
    deg_data = None
    if len(deg):
        counts_d, _, _, _, _, col_d, row_d = _cell_enumeration(frame, deg)
        deg_data = (
            counts_d,
            col_d * n_rows_total + row_d,
            np.repeat(frame.weights[deg], counts_d),
        )
    idx = np.nonzero(~frame.degenerate)[0]
    reg_data = None
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
        reg_data = (
            counts,
            col * n_rows_total + row,
            np.repeat(frame.weights[idx], counts) * prob,
        )
    return deg, deg_data, idx, reg_data


def _assemble_contributions(
    n_edges: int, deg, deg_data, idx, reg_data
) -> EdgeContributions:
    """Merge the degenerate/regular blocks into edge-order CSR arrays."""
    counts_all = np.zeros(n_edges, dtype=np.int64)
    if deg_data is not None:
        counts_all[deg] = deg_data[0]
    if reg_data is not None:
        counts_all[idx] = reg_data[0]
    offsets_all = np.concatenate(
        [[0], np.cumsum(counts_all)[:-1]]
    ).astype(np.int64)
    total = int(counts_all.sum())
    cells_all = np.empty(total, dtype=np.int64)
    values_all = np.empty(total)
    for sub, data in ((deg, deg_data), (idx, reg_data)):
        if data is None:
            continue
        counts, flat, vals = data
        inner = np.concatenate([[0], np.cumsum(counts)[:-1]])
        within = np.arange(len(flat)) - np.repeat(inner, counts)
        dest = np.repeat(offsets_all[sub], counts) + within
        cells_all[dest] = flat
        values_all[dest] = vals
    return EdgeContributions(counts_all, offsets_all, cells_all, values_all)


def batched_approx_mass(
    irgrid: IRGrid,
    nets: Sequence[TwoPinNet],
    grid_size: float,
    panels: int = 8,
    paper_bounds: bool = False,
    cache: Optional[BoundedCache] = None,
    exact_cache: Optional[BoundedCache] = None,
) -> np.ndarray:
    """Congestion mass per IR-cell, shape ``(n_columns, n_rows)``.

    ``cache`` memoizes per-net probability blocks by local signature
    and ``exact_cache`` the scalar Formula-3 fallback cells; both come
    from the caller's :class:`~repro.perf.context.CacheContext`.
    ``None`` forces the pure batch path (identical results -- cached
    blocks are bit-for-bit the kernel's output for the same signature).
    """
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
    want_contributions: bool = False,
):
    """:func:`batched_approx_mass` over a :class:`TwoPinArrays` batch.

    The annealer's fast lane: endpoint arrays go straight into the
    broadcast kernel with no per-net attribute reads.  Identical output
    to the net-object entry point for the same edge geometry.

    ``want_contributions=True`` additionally returns the per-edge
    :class:`EdgeContributions` CSR the congestion ledger records --
    assembled from the very flat vectors the mass scatter consumed, so
    the extra cost is a few gathers, not a recomputation.  The return
    value is then ``(mass, contributions)``.
    """
    mass = np.zeros((irgrid.n_columns, irgrid.n_rows))
    if not len(arr):
        if want_contributions:
            return mass, _assemble_contributions(0, None, None, None, None)
        return mass

    frame = _frame_edges(irgrid, arr, grid_size)
    deg, deg_data, idx, reg_data = _edge_blocks(
        frame, panels, paper_bounds, cache, exact_cache
    )

    # ``bincount`` over flattened indices is several times faster than
    # ``np.add.at`` for this scatter; both paths (cached and not) use
    # it, so their summation order -- hence every last bit -- agrees.
    # Degenerate nets accumulate first into the zeroed array, then the
    # regular nets: the same order the per-net adds it replaced used.
    if deg_data is not None:
        mass.ravel()[:] += np.bincount(
            deg_data[1], weights=deg_data[2], minlength=mass.size
        )
    if reg_data is not None:
        mass.ravel()[:] += np.bincount(
            reg_data[1], weights=reg_data[2], minlength=mass.size
        )
    if want_contributions:
        return mass, _assemble_contributions(
            len(arr), deg, deg_data, idx, reg_data
        )
    return mass


def batched_edge_contributions(
    irgrid: IRGrid,
    arr: TwoPinArrays,
    rows: np.ndarray,
    grid_size: float,
    panels: int = 8,
    paper_bounds: bool = False,
    cache: Optional[BoundedCache] = None,
    exact_cache: Optional[BoundedCache] = None,
) -> EdgeContributions:
    """Per-edge contributions of the subset ``rows`` of ``arr``.

    The congestion ledger's O(dirty) lane: frames only the requested
    edge rows against ``irgrid`` and returns their CSR contribution
    blocks (in ``rows`` order).  Because every framing operation is
    elementwise per edge, the values equal what a full-batch
    evaluation would assign those same edges -- the property the
    ledger's subtract-old/add-new delta depends on, asserted to 1e-12
    by strict mode and the property suite.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if not len(rows):
        return _assemble_contributions(0, None, None, None, None)
    frame = _frame_edges(irgrid, arr, grid_size, rows=rows)
    deg, deg_data, idx, reg_data = _edge_blocks(
        frame, panels, paper_bounds, cache, exact_cache
    )
    return _assemble_contributions(len(rows), deg, deg_data, idx, reg_data)
