"""The Irregular-Grid congestion model (Algorithm, Section 4.6).

Given a chip and its placed 2-pin nets, the model:

1. collects the nets' routing-range boundaries as cut lines and merges
   lines closer than twice the unit-grid pitch (steps 1-2, in
   :mod:`repro.congestion.irgrid`);
2. for every net, assigns probability 1 to the IR-grids covering its
   pins (step 3.1) and computes every other covered IR-grid's crossing
   probability with the Theorem-1 approximation (step 3.2), falling
   back to the exact Formula 3 where the approximation's domain guards
   fire (Section 4.5) or the range is too thin for the normal
   approximation (g1 or g2 < 3);
3. accumulates the per-net probabilities into each IR-grid's congestion
   record (step 3.3) and derives per-area-unit densities (step 4);
4. scores the floorplan as the area-weighted average density of the top
   10 % most congested area units (step 5).

Steps 1-3 run through one private method, whatever the entry point:
net objects are unpacked into :class:`~repro.netlist.TwoPinArrays`
first, the cut lines come from
:func:`~repro.congestion.irgrid.build_irgrid_arrays`, and the mass from
the batched Theorem-1 kernel of :mod:`repro.congestion.batched` (or the
per-net Formula-3 loop for ``method="exact"``).  The scalar reference
formulas in :mod:`repro.congestion.exact_ir` /
:mod:`repro.congestion.approx` remain the ground truth the kernels are
tested against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.congestion.base import CongestionCell, CongestionMap, CongestionModel
from repro.congestion.batched import (
    batched_approx_mass_arrays,
    batched_edge_contributions,
)
from repro.congestion.ledger import CongestionLedger
from repro.congestion.exact_ir import exact_ir_probability
from repro.congestion.irgrid import IRGrid, build_irgrid_arrays
from repro.congestion.vectorized import approx_ir_matrix, exact_ir_matrix
from repro.geometry import Rect
from repro.netlist import (
    NetType,
    TwoPinArrays,
    TwoPinNet,
    arrays_to_nets,
    nets_to_arrays,
)
from repro.obs.metrics import NULL_METRICS
from repro.perf import CacheContext

__all__ = ["IrregularGridModel"]

_METHODS = ("approx", "exact")


class IrregularGridModel(CongestionModel):
    """The paper's congestion model.

    Parameters
    ----------
    grid_size:
        Unit-grid pitch in micrometres (paper: 30x30; 60x60 for apte).
        Sets the route-model resolution and the cut-line merge
        threshold.
    merge_factor:
        Cut lines closer than ``merge_factor * grid_size`` are merged
        (Algorithm step 2; paper value 2.0).
    method:
        ``"approx"`` (Theorem 1 + exact fallback; the paper's model) or
        ``"exact"`` (Formula 3 everywhere via prefix sums).
    panels:
        Simpson panels per integral for the approximation (a positive
        even integer).
    paper_bounds:
        Integrate over the paper's literal ``[x1, x2]`` bounds instead
        of the midpoint-corrected ``[x1-1/2, x2+1/2]``.
    top_fraction:
        Chip-area fraction whose densest cells form the score.
    use_cache:
        Memoize per-net probability results in the model's
        :class:`~repro.perf.context.CacheContext`.  Identical results
        either way; disable for cache-free timing baselines.
    use_ledger:
        Let :meth:`estimate_arrays_ledger` take the O(dirty) delta path
        when the caller supplies a committed-grid ledger whose merged
        cut lines match the candidate's (see
        :mod:`repro.congestion.ledger`).  Disable for ablation runs; the
        plain :meth:`estimate_arrays` never uses a ledger either way.
    ledger_refresh:
        Delta evaluations allowed before a full rebuild is forced.
        Each delta reorders float additions relative to a from-scratch
        scatter (agreement to ~1e-14 per step); the periodic rebuild
        bounds accumulated drift far inside the strict-mode 1e-12
        contract.
    cache_context:
        The cache fleet to memoize into.  Normally injected by the
        owning engine/objective so all of a run's caches share one
        accountable context; when ``None`` and ``use_cache`` is true, a
        private context is created on first use, so standalone models
        still never share state with one another.

    The ``perf`` attribute may be set to a
    :class:`~repro.obs.MetricsRegistry` to time the evaluation phases
    (``congestion.irgrid_build`` / ``congestion.mass_eval`` /
    ``congestion.scoring``).
    """

    def __init__(
        self,
        grid_size: float,
        merge_factor: float = 2.0,
        method: str = "approx",
        panels: int = 8,
        paper_bounds: bool = False,
        top_fraction: float = 0.1,
        use_cache: bool = True,
        cache_context: Optional[CacheContext] = None,
        use_ledger: bool = True,
        ledger_refresh: int = 64,
    ):
        if grid_size <= 0:
            raise ValueError(f"grid_size must be positive, got {grid_size}")
        if method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
        if panels <= 0 or panels % 2:
            raise ValueError(
                f"panels must be a positive even integer, got {panels}"
            )
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError(f"top_fraction must be in (0, 1], got {top_fraction}")
        if ledger_refresh < 1:
            raise ValueError(
                f"ledger_refresh must be >= 1, got {ledger_refresh}"
            )
        self.grid_size = float(grid_size)
        self.merge_factor = float(merge_factor)
        self.method = method
        self.panels = int(panels)
        self.paper_bounds = bool(paper_bounds)
        self.top_fraction = float(top_fraction)
        self.use_cache = bool(use_cache)
        self.use_ledger = bool(use_ledger)
        self.ledger_refresh = int(ledger_refresh)
        self.cache_context = cache_context
        self.perf = NULL_METRICS
        self._exact_twin_model: Optional["IrregularGridModel"] = None

    def _context(self) -> Optional[CacheContext]:
        """The cache fleet to memoize into, or ``None`` when disabled.

        Lazily creates a private context for standalone models so two
        models never share mutable state unless a caller injected the
        same context into both.
        """
        if not self.use_cache:
            return None
        if self.cache_context is None:
            self.cache_context = CacheContext()
        return self.cache_context

    # -- public API ---------------------------------------------------

    def evaluate(self, chip: Rect, nets: Sequence[TwoPinNet]) -> CongestionMap:
        """Build the IR congestion map of ``nets`` over ``chip``."""
        congestion_map, _ = self.evaluate_with_grid(chip, nets)
        return congestion_map

    def evaluate_with_grid(
        self, chip: Rect, nets: Sequence[TwoPinNet]
    ) -> Tuple[CongestionMap, IRGrid]:
        """Like :meth:`evaluate`, also returning the IR-grid (Experiment
        3 reports its cell count)."""
        irgrid, mass, _ = self._mass(chip, nets_to_arrays(nets))
        cells = [
            CongestionCell(rect, float(mass[i, j]))
            for i, j, rect in irgrid.cells()
        ]
        return CongestionMap(chip, cells), irgrid

    def score(self, congestion_map: CongestionMap) -> float:
        """Step 5: area-weighted mean density of the densest
        ``top_fraction`` of the chip."""
        return congestion_map.top_density_score(self.top_fraction)

    def estimate(self, chip: Rect, nets: Sequence[TwoPinNet]) -> float:
        """Scalar congestion cost without materializing cell objects:
        :meth:`estimate_arrays` over the nets' coordinate arrays
        (identical result to ``score(evaluate(...))``, covered by
        tests)."""
        return self.estimate_arrays(chip, nets_to_arrays(nets))

    def estimate_arrays(self, chip: Rect, arr) -> float:
        """Scalar congestion cost straight from edge coordinate arrays.

        Scores the mass array directly from the cut-line geometry; no
        :class:`TwoPinNet` or cell object is built on the approximate
        path.
        """
        irgrid, mass, _ = self._mass(chip, arr)
        return self._score_mass(irgrid, mass)

    def estimate_arrays_ledger(
        self, chip: Rect, arr, ledger=None, dirty=None, old=None
    ) -> Tuple[float, Optional[CongestionLedger]]:
        """:meth:`estimate_arrays` with the committed-grid delta path.

        ``ledger`` is the previously evaluated state's
        :class:`~repro.congestion.ledger.CongestionLedger`, ``dirty``
        the indices (into ``arr``) of the edges whose geometry changed
        since it was recorded, and ``old`` those edges' previous
        geometry (a :class:`~repro.netlist.TwoPinArrays` whose row
        ``k`` is edge ``dirty[k]`` as the ledger saw it).  The caller
        guarantees an unchanged chip.  When the candidate's merged cut
        lines equal the ledger's (the ``np.array_equal`` fingerprint)
        and the ledger has delta budget left, the new mass is
        ``committed_mass - old blocks + new blocks`` over only the
        dirty edges, both framed against the same grid -- O(dirty),
        counted as ``congestion_delta``/``ledger_hits``.  Otherwise the
        full batch runs and, when the Theorem-1 kernel produced its
        mass, records a fresh ledger (``congestion_grid_rebuilt``).
        Returns ``(score, new_ledger)``; the committed ledger is never
        mutated, so a rejected candidate rolls back by dropping the
        returned one.
        """
        with self.perf.timeit("congestion.irgrid_build"):
            irgrid = build_irgrid_arrays(
                chip, arr, self.grid_size, self.merge_factor
            )
        x_lines = np.asarray(irgrid.x_lines.lines)
        y_lines = np.asarray(irgrid.y_lines.lines)
        if (
            self.use_ledger
            and ledger is not None
            and dirty is not None
            and old is not None
            and ledger.age < self.ledger_refresh
            and ledger.matches(x_lines, y_lines)
        ):
            self.perf.count("ledger_hits")
            with self.perf.timeit("congestion.mass_eval"):
                kernel_args = self._kernel_args()
                fresh = batched_edge_contributions(
                    irgrid, arr, self.grid_size, rows=dirty, **kernel_args
                )
                stale = batched_edge_contributions(
                    irgrid, old, self.grid_size, **kernel_args
                )
                # The old blocks are finite: a ledger is only recorded
                # over a finite mass.
                if np.isfinite(fresh.values).all():
                    mass = ledger.mass.copy()
                    flat = mass.ravel()
                    np.add.at(flat, stale.cells, np.negative(stale.values))
                    np.add.at(flat, fresh.cells, fresh.values)
                    self.perf.count("congestion_delta")
                    return self._score_mass(irgrid, mass), CongestionLedger(
                        ledger.x_lines, ledger.y_lines, mass, ledger.age + 1
                    )
            # Non-finite dirty contributions: fall through to the full
            # batch, whose exact rescue knows how to recover.
        self.perf.count("congestion_grid_rebuilt")
        _, mass, kernel_mass = self._mass(chip, arr, irgrid)
        new_ledger = None
        if kernel_mass and self.use_ledger:
            new_ledger = CongestionLedger(x_lines, y_lines, mass)
        return self._score_mass(irgrid, mass), new_ledger

    def densities_arrays(self, chip: Rect, arr) -> np.ndarray:
        """Per-cell densities straight from edge coordinate arrays.

        The progress-snapshot path (``repro.obs``): observers sample the
        committed floorplan's hottest densities between moves, and
        recomputing pins/nets from scratch there costs a full scalar
        evaluation per sample.  This reuses the array kernels and the
        memo caches the walk itself populates, so a cache-warm snapshot
        costs one batched mass call plus the IR-grid build.  Values
        match :meth:`evaluate`'s ``CongestionMap.densities()`` over the
        same edge geometry.
        """
        irgrid, mass, _ = self._mass(chip, arr)
        density, _ = self._densities(irgrid, mass)
        return density

    def _densities(
        self, irgrid: IRGrid, mass: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(density, areas)`` flat vectors of a computed mass array.

        The one shared density derivation (step 4) behind both the
        scoring hot path and the observability snapshot path: per-cell
        areas from the cut-line diffs, density = mass / area with
        zero-area cells scored 0.
        """
        widths = np.diff(np.asarray(irgrid.x_lines.lines))
        heights = np.diff(np.asarray(irgrid.y_lines.lines))
        areas = np.outer(widths, heights).ravel()
        flat = mass.ravel()
        with np.errstate(invalid="ignore", divide="ignore"):
            density = np.where(areas > 0, flat / areas, 0.0)
        return density, areas

    def _score_mass(self, irgrid: IRGrid, mass: np.ndarray) -> float:
        """Step 5 scoring of a computed mass array (shared hot path)."""
        with self.perf.timeit("congestion.scoring"):
            density, areas = self._densities(irgrid, mass)
            return self._top_density_score(density, areas)

    def _top_density_score(
        self, density: np.ndarray, areas: np.ndarray
    ) -> float:
        """Area-weighted mean density of the densest ``top_fraction``.

        Selection-based: a quickselect-style partition loop consumes or
        descends into the cells above the running median until the pool
        is small, then finishes with the argsort greedy -- O(C) expected
        work instead of the full sort's O(C log C).  Equal to the
        argsort greedy to float-summation dust (<= 1e-12, property
        tested): full cells contribute ``density * area`` regardless of
        visit order, and when the area target lands inside a group of
        equal-density cells the partial take contributes the tied
        density per unit area no matter which tied cells are chosen, so
        tie order cannot change the score.
        """
        total_area = float(areas.sum())
        if total_area <= 0:
            return 0.0
        target = self.top_fraction * total_area
        num = 0.0  # density-times-area mass of the cells taken so far
        taken = 0.0  # area taken so far (always < target in the loop)
        d = density
        a = areas
        while len(d) > 32:
            v = float(np.partition(d, len(d) // 2)[len(d) // 2])
            hi = d > v
            area_hi = float(a[hi].sum())
            if taken + area_hi >= target:
                # Boundary inside the upper half: discard the rest.
                d = d[hi]
                a = a[hi]
                continue
            eq = d == v
            area_eq = float(a[eq].sum())
            num += float((d[hi] * a[hi]).sum())
            if taken + area_hi + area_eq >= target:
                # Boundary inside the tie group at density v: the
                # partial take contributes v per unit area whichever
                # tied cells are "chosen", so the score is tie-order
                # independent.
                num += v * (target - taken - area_hi)
                return float(num / target)
            num += v * area_eq
            taken += area_hi + area_eq
            lo = d < v
            d = d[lo]
            a = a[lo]
        if len(d) == 0:
            # Float dust in the subset sums can exhaust the pool a hair
            # before `taken` reaches `target` (only when top_fraction
            # covers the whole chip): everything is taken.
            return float(num / taken) if taken > 0 else 0.0
        # Small-pool finish: the seed path's argsort greedy.
        order = np.argsort(d)[::-1]
        a_s = a[order]
        d_s = d[order]
        ca = np.cumsum(a_s)
        rem = target - taken
        j = min(int(np.searchsorted(ca, rem, side="left")), len(a_s) - 1)
        prev_area = float(ca[j - 1]) if j > 0 else 0.0
        prev_mass = (
            float(np.cumsum(d_s[: j + 1] * a_s[: j + 1])[j - 1])
            if j > 0
            else 0.0
        )
        take = min(float(a_s[j]), rem - prev_area)
        mass_sum = num + prev_mass + float(d_s[j]) * take
        covered = taken + prev_area + take
        return float(mass_sum / covered) if covered > 0 else 0.0

    # -- internals -----------------------------------------------------

    def _kernel_args(self) -> dict:
        """Keyword arguments of the batched Theorem-1 kernels."""
        ctx = self._context()
        return dict(
            panels=self.panels,
            paper_bounds=self.paper_bounds,
            cache=ctx.net_mass if ctx else None,
            exact_cache=ctx.exact_prob if ctx else None,
        )

    def _mass(
        self, chip: Rect, arr: TwoPinArrays, irgrid: Optional[IRGrid] = None
    ) -> Tuple[IRGrid, np.ndarray, bool]:
        """Algorithm steps 1-3: the IR-grid and its mass array.

        The one mass evaluation behind every public entry point.
        Builds the merged cut lines of ``arr`` over ``chip`` (unless
        ``irgrid`` is given), then fills the ``(n_columns, n_rows)``
        mass array: the batched Theorem-1 kernel for ``"approx"``, with
        the exact rescue behind it, or the per-net Formula-3 loop for
        ``"exact"``.  Returns ``(irgrid, mass, kernel_mass)``, where
        ``kernel_mass`` is true when the approximate kernel's own
        (finite) output is the mass -- the only mass a ledger may be
        recorded over.
        """
        if irgrid is None:
            with self.perf.timeit("congestion.irgrid_build"):
                irgrid = build_irgrid_arrays(
                    chip, arr, self.grid_size, self.merge_factor
                )
        with self.perf.timeit("congestion.mass_eval"):
            if self.method == "exact":
                mass = np.zeros((irgrid.n_columns, irgrid.n_rows))
                for net in arrays_to_nets(arr):
                    self._add_net(irgrid, net, mass)
                return irgrid, mass, False
            mass = batched_approx_mass_arrays(
                irgrid, arr, self.grid_size, **self._kernel_args()
            )
            if not np.isfinite(mass).all():
                return irgrid, self._exact_rescue(irgrid, arr), False
        return irgrid, mass, True

    def _exact_rescue(self, irgrid: IRGrid, arr: TwoPinArrays) -> np.ndarray:
        """Recompute a non-finite mass array with the exact model.

        The last line of NaN/inf defense: the cell-level guards already
        reroute individual failed approximations to Formula 3, so a
        non-finite *mass* means something upstream is feeding the
        kernel garbage the guards cannot see.  The whole floorplan is
        re-evaluated exactly (cache-free -- the twin must not launder
        poisoned entries back in), which is slow but always finite, and
        the rescue is counted so tests and perf reports can see it
        fired.
        """
        self.perf.count("congestion_exact_rescue")
        if self._exact_twin_model is None:
            self._exact_twin_model = IrregularGridModel(
                self.grid_size,
                merge_factor=self.merge_factor,
                method="exact",
                top_fraction=self.top_fraction,
                use_cache=False,
            )
        _, mass, _ = self._exact_twin_model._mass(irgrid.chip, arr, irgrid)
        return mass

    def _add_net(
        self,
        irgrid: IRGrid,
        net: TwoPinNet,
        mass: np.ndarray,
    ) -> None:
        snapped = irgrid.snap_range(net.routing_range)
        col_lo, col_hi, row_lo, row_hi = irgrid.cell_span(snapped)
        g1 = max(1, round(snapped.width / self.grid_size))
        g2 = max(1, round(snapped.height / self.grid_size))
        net_type = net.net_type
        if (
            net_type is NetType.DEGENERATE
            or snapped.is_degenerate
            or g1 == 1
            or g2 == 1
        ):
            # Point/segment ranges: every shortest route crosses every
            # covered IR-grid (Section 2), probability 1.
            mass[col_lo : col_hi + 1, row_lo : row_hi + 1] += net.weight
            return

        col_spans = self._unit_spans(
            irgrid.x_lines, col_lo, col_hi, snapped.x_lo, snapped.width, g1
        )
        row_spans = self._unit_spans(
            irgrid.y_lines, row_lo, row_hi, snapped.y_lo, snapped.height, g2
        )

        # The probability matrix depends only on this local signature
        # (the spans are already unit-grid integers), so it is reusable
        # across moves and floorplans whenever the geometry recurs.
        ctx = self._context()
        key = None
        if ctx is not None:
            key = (
                self.method,
                self.panels,
                self.paper_bounds,
                net_type,
                g1,
                g2,
                tuple(col_spans),
                tuple(row_spans),
            )
            cached = ctx.net_matrix.get(key)
            if cached is not None:
                mass[col_lo : col_hi + 1, row_lo : row_hi + 1] += (
                    net.weight * cached
                )
                return

        if self.method == "exact" or g1 < 3 or g2 < 3:
            probs = exact_ir_matrix(g1, g2, net_type, col_spans, row_spans)
        else:
            probs, invalid = approx_ir_matrix(
                g1,
                g2,
                net_type,
                col_spans,
                row_spans,
                panels=self.panels,
                paper_bounds=self.paper_bounds,
            )
            # A non-finite probability is a failed approximation the
            # domain guards missed; send it to the exact fallback too.
            invalid = invalid | ~np.isfinite(probs)
            if invalid.any():
                # Section 4.5: the approximation fails only next to the
                # pins; the exact boundary sum there is short and valid.
                for j, i in zip(*np.nonzero(invalid)):
                    x1, x2 = col_spans[i]
                    y1, y2 = row_spans[j]
                    probs[j, i] = exact_ir_probability(
                        g1, g2, net_type, x1, x2, y1, y2
                    )

        # Step 3.1: IR-grids covering a pin are certain.
        if net_type is NetType.TYPE_I:
            probs[0, 0] = 1.0
            probs[-1, -1] = 1.0
        else:
            probs[-1, 0] = 1.0
            probs[0, -1] = 1.0

        block = np.ascontiguousarray(probs.T)
        if key is not None:
            block.setflags(write=False)
            ctx.net_matrix.put(key, block)
        mass[col_lo : col_hi + 1, row_lo : row_hi + 1] += net.weight * block

    def _unit_spans(
        self,
        lines,
        cell_lo: int,
        cell_hi: int,
        origin: float,
        extent: float,
        count: int,
    ) -> List[Tuple[int, int]]:
        """Unit-grid index spans of the covered IR-cells along one axis."""
        unit = extent / count
        spans: List[Tuple[int, int]] = []
        for c in range(cell_lo, cell_hi + 1):
            lo, hi = lines.cell_bounds(c)
            i1 = _unit_index(lo, origin, unit, count)
            i2 = max(i1, _unit_index(hi, origin, unit, count, upper=True))
            spans.append((i1, i2))
        return spans


def _unit_index(
    coord: float,
    origin: float,
    unit: float,
    count: int,
    upper: bool = False,
) -> int:
    """Map an IR-cell boundary coordinate to a unit-grid index.

    Lower boundaries map to the unit column they start, upper
    boundaries to the last unit column they cover (exclusive boundary
    minus one).  Clamped into ``[0, count-1]``.
    """
    t = (coord - origin) / unit
    idx = round(t) - 1 if upper else round(t)
    return min(max(idx, 0), count - 1)
