"""Staged evaluation pipeline behind the floorplan objective.

:class:`~repro.anneal.cost.FloorplanObjective` is a thin facade; the
work happens here, split into four explicit stages that share one
columnar :class:`EvalState`:

1. :class:`PinStage` -- perimeter pin placement and lattice snapping,
   vectorized over every (net, terminal) pair at once;
2. :class:`MstStage` -- MST decomposition of every net into flat placed
   2-pin edge arrays (and the weighted wirelength over them);
3. :class:`CongestionStage` -- congestion estimation over the placed
   edges via any :class:`~repro.congestion.base.CongestionModel`;
4. :class:`CostAggregator` -- normalization and the weighted
   ``alpha * Area + beta * Wirelength + gamma * Congestion`` combine.

:class:`EvaluationPipeline` wires the stages together and owns the
*dirty-net delta* state machine: it diffs snapped pins against the last
evaluated state, rewrites only the edge slots of nets owning a moved
pin, and skips congestion entirely when neither the chip outline nor
any placed edge changed.  The annealer's transaction protocol
(:meth:`EvaluationPipeline.commit` / :meth:`EvaluationPipeline.reject`)
keeps the accepted state's arrays immutable so a refused move rolls
back by reference swap, and ``strict_incremental`` re-runs the full
path after every delta evaluation, asserting agreement to 1e-12.

The pipeline holds no module-global mutable state: memoization lives in
the :class:`~repro.perf.context.CacheContext` owned by the objective
(or the engine above it) and injected into the congestion model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.congestion.base import CongestionModel
from repro.floorplan import Floorplan
from repro.metrics import total_two_pin_length
from repro.netlist import Netlist, TwoPinArrays, batched_mst_edges
from repro.perf import NULL_RECORDER, PerfRecorder
from repro.pins import assign_pins, perimeter_fractions

__all__ = [
    "CostBreakdown",
    "PinTopology",
    "EvalState",
    "PinStage",
    "MstStage",
    "CongestionStage",
    "CostAggregator",
    "EvaluationPipeline",
]


@dataclass(frozen=True)
class CostBreakdown:
    """One floorplan's objective terms and the combined scalar cost."""

    area: float
    wirelength: float
    congestion: float
    cost: float

    def to_json(self) -> dict:
        """A JSON-serializable image (trace events, progress lines)."""
        return {
            "area": self.area,
            "wirelength": self.wirelength,
            "congestion": self.congestion,
            "cost": self.cost,
        }


class PinTopology:
    """Per-circuit pin and edge topology, flattened for vectorization.

    Pins: one row per (net, terminal) pair, in netlist order -- the
    terminal's module index and its perimeter-walk fraction, with
    ``starts`` delimiting each net's rows.  Edges: a net of ``k`` pins
    always decomposes into exactly ``k - 1`` MST edges, so the flat
    edge layout (``edge_starts``, ``edge_weights``) is fixed too, and
    a dirty net rewrites its slots in place.  2-pin nets (``simple_*``)
    fill their single edge by pure array gather; only nets of 3+ pins
    (``multi``) need a per-net MST.  Everything here is
    floorplan-invariant.
    """

    __slots__ = (
        "module_names",
        "key_set",
        "term_idx",
        "frac",
        "starts",
        "n_edges_total",
        "edge_weights",
        "edge_owner",
        "simple_pin_a",
        "simple_slot",
        "simple_mask",
        "multi_groups",
    )

    def __init__(self, netlist: Netlist, module_names):
        self.module_names = list(module_names)
        self.key_set = set(self.module_names)
        fractions = perimeter_fractions(netlist, self.module_names)
        index = {name: i for i, name in enumerate(self.module_names)}
        term_idx: List[int] = []
        frac: List[float] = []
        starts = [0]
        edge_weights: List[float] = []
        edge_owner: List[int] = []
        simple_pin_a: List[int] = []
        simple_slot: List[int] = []
        simple_mask: List[bool] = []
        # (net index, first pin row, first edge slot) of each 3+-pin
        # net, bucketed by pin count so all same-size MSTs batch.
        by_k: dict = {}
        for i, net in enumerate(netlist.nets):
            pin_s = len(term_idx)
            for t in net.terminals:
                term_idx.append(index[t])
                frac.append(fractions[(net.name, t)] % 1.0)
            starts.append(len(term_idx))
            k = len(net.terminals)
            slot = len(edge_weights)
            edge_weights.extend([net.weight] * max(k - 1, 0))
            edge_owner.extend([i] * max(k - 1, 0))
            if k == 2:
                simple_pin_a.append(pin_s)
                simple_slot.append(slot)
                simple_mask.append(True)
            else:
                by_k.setdefault(k, []).append((i, pin_s, slot))
                simple_mask.append(False)
        self.term_idx = np.asarray(term_idx, dtype=np.intp)
        self.frac = np.asarray(frac)
        self.starts = np.asarray(starts, dtype=np.intp)
        self.n_edges_total = len(edge_weights)
        self.edge_weights = np.asarray(edge_weights)
        # Owning net of each flat edge slot: composing with a per-net
        # dirty mask yields the dirty *edge* rows the congestion
        # ledger's O(dirty) delta path consumes.
        self.edge_owner = np.asarray(edge_owner, dtype=np.intp)
        self.simple_pin_a = np.asarray(simple_pin_a, dtype=np.intp)
        self.simple_slot = np.asarray(simple_slot, dtype=np.intp)
        self.simple_mask = np.asarray(simple_mask, dtype=bool)
        self.multi_groups = [
            (
                k,
                np.asarray([g[0] for g in group], dtype=np.intp),
                np.asarray([g[1] for g in group], dtype=np.intp),
                np.asarray([g[2] for g in group], dtype=np.intp),
            )
            for k, group in sorted(by_k.items())
        ]


class EvalState:
    """The previously evaluated floorplan, decomposed for delta reuse.

    Columnar: holds the snapped pin coordinate arrays (for dirty
    detection) and the flat placed-edge arrays the congestion /
    wirelength kernels consume directly -- no :class:`TwoPinNet`
    objects anywhere in the hot loop.
    """

    __slots__ = (
        "placements",
        "chip",
        "pins_x",
        "pins_y",
        "edges",
        "wirelength",
        "congestion",
        "congestion_ledger",
    )

    def __init__(
        self,
        placements,
        chip,
        pins_x: np.ndarray,
        pins_y: np.ndarray,
        edges: TwoPinArrays,
        wirelength: float,
        congestion: float,
        congestion_ledger=None,
    ):
        self.placements = placements
        self.chip = chip
        self.pins_x = pins_x
        self.pins_y = pins_y
        self.edges = edges
        self.wirelength = wirelength
        self.congestion = congestion
        # The committed-grid CongestionLedger recorded by the last
        # congestion evaluation of this state (None when the model
        # carries none).  Ledgers are immutable by convention, so
        # states share them by reference.
        self.congestion_ledger = congestion_ledger

    def clone_arrays(self) -> "EvalState":
        """A state whose pin/edge arrays are private copies.

        The delta path mutates edge slots in place; cloning first keeps
        the committed state intact so a rejected move can roll back.
        """
        e = self.edges
        return EvalState(
            placements=self.placements,
            chip=self.chip,
            pins_x=self.pins_x.copy(),
            pins_y=self.pins_y.copy(),
            edges=TwoPinArrays(
                e.p1x.copy(), e.p1y.copy(), e.p2x.copy(), e.p2y.copy(),
                e.weights,
            ),
            wirelength=self.wirelength,
            congestion=self.congestion,
            congestion_ledger=self.congestion_ledger,
        )


class PinStage:
    """Stage 1: perimeter pin placement and lattice snapping.

    Vectorized replica of ``perimeter_point`` + ``snap_to_lattice``
    over all pins at once -- each arithmetic step mirrors the scalar
    helpers operation-for-operation, so the coordinates are
    bit-identical to the seed pipeline's (``strict_incremental``
    checks this every evaluation).
    """

    __slots__ = ("pin_grid_size",)

    def __init__(self, pin_grid_size: float):
        if pin_grid_size <= 0:
            raise ValueError(
                f"pin_grid_size must be positive, got {pin_grid_size}"
            )
        self.pin_grid_size = float(pin_grid_size)

    def compute(
        self, floorplan: Floorplan, topology: PinTopology
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every (net, terminal) pin of ``floorplan``, as flat arrays."""
        placements = floorplan.placements
        chip = floorplan.chip
        n = len(topology.module_names)
        mx_lo = np.empty(n)
        my_lo = np.empty(n)
        mx_hi = np.empty(n)
        my_hi = np.empty(n)
        for i, name in enumerate(topology.module_names):
            r = placements[name]
            mx_lo[i] = r.x_lo
            my_lo[i] = r.y_lo
            mx_hi[i] = r.x_hi
            my_hi[i] = r.y_hi
        w = mx_hi - mx_lo
        h = my_hi - my_lo
        per = 2.0 * (w + h)

        idx = topology.term_idx
        x_lo = mx_lo[idx]
        x_hi = mx_hi[idx]
        y_lo = my_lo[idx]
        y_hi = my_hi[idx]
        w_g = w[idx]
        h_g = h[idx]

        # Walk the perimeter: the scalar code subtracts each traversed
        # side in sequence, branching on <=; np.where chains replicate
        # the branch outcomes exactly.  A zero-perimeter module lands in
        # the first branch at its lower-left corner, which equals its
        # center.
        d1 = topology.frac * per[idx]
        c1 = d1 <= w_g
        d2 = d1 - w_g
        c2 = d2 <= h_g
        d3 = d2 - h_g
        c3 = d3 <= w_g
        d4 = d3 - w_g
        px = np.where(
            c1, x_lo + d1, np.where(c2, x_hi, np.where(c3, x_hi - d3, x_lo))
        )
        py = np.where(
            c1, y_lo, np.where(c2, y_lo + d2, np.where(c3, y_hi, y_hi - d4))
        )

        # Snap to the chip-anchored lattice, then clamp on-chip.
        # np.rint rounds half-to-even exactly like Python's round().
        gs = self.pin_grid_size
        sx = chip.x_lo + np.rint((px - chip.x_lo) / gs) * gs
        sy = chip.y_lo + np.rint((py - chip.y_lo) / gs) * gs
        np.clip(sx, chip.x_lo, chip.x_hi, out=sx)
        np.clip(sy, chip.y_lo, chip.y_hi, out=sy)
        return sx, sy


class MstStage:
    """Stage 2: MST decomposition into flat placed 2-pin edge arrays.

    Also owns the weighted Manhattan wirelength over those arrays --
    wirelength is a pure reduction of the stage's output, not a stage
    of its own.
    """

    __slots__ = ()

    def fill_simple(
        self, topology: PinTopology, edges: TwoPinArrays, sx, sy, which=None
    ) -> None:
        """Write 2-pin nets' edges straight from the pin arrays.

        ``which`` selects a subset of the simple nets (positions into
        ``topology.simple_pin_a``); ``None`` fills them all.  Pure
        array gather/scatter -- no per-net Python.
        """
        pa = topology.simple_pin_a
        slot = topology.simple_slot
        if which is not None:
            pa = pa[which]
            slot = slot[which]
        edges.p1x[slot] = sx[pa]
        edges.p1y[slot] = sy[pa]
        edges.p2x[slot] = sx[pa + 1]
        edges.p2y[slot] = sy[pa + 1]

    def fill_multi_group(
        self, edges: TwoPinArrays, sx, sy, k: int, pin_s: np.ndarray, slot: np.ndarray
    ) -> None:
        """Write a batch of k-pin nets' MST edges into their flat slots.

        :func:`batched_mst_edges` reproduces ``mst_edges``' arithmetic
        and tie-breaking bit-for-bit, so the edge set is identical to
        the object pipeline's ``decompose_to_two_pin``.
        """
        rows = pin_s[:, None] + np.arange(k)
        xs = sx[rows]
        ys = sy[rows]
        i, j = batched_mst_edges(xs, ys)
        m = np.arange(len(pin_s))[:, None]
        slots = slot[:, None] + np.arange(k - 1)
        edges.p1x[slots] = xs[m, i]
        edges.p1y[slots] = ys[m, i]
        edges.p2x[slots] = xs[m, j]
        edges.p2y[slots] = ys[m, j]

    def fill_all(
        self, topology: PinTopology, edges: TwoPinArrays, sx, sy
    ) -> None:
        """Decompose every net of the circuit into its edge slots."""
        self.fill_simple(topology, edges, sx, sy)
        for k, _, pin_s, slot in topology.multi_groups:
            self.fill_multi_group(edges, sx, sy, k, pin_s, slot)

    def fill_dirty(
        self, topology: PinTopology, edges: TwoPinArrays, sx, sy, dirty
    ) -> int:
        """Rewrite exactly the edge slots of nets owning a moved pin.

        ``dirty`` is a per-net boolean mask; a net none of whose pins
        moved keeps its placed edge coordinates verbatim.  Returns the
        number of nets redone (the ``nets_redone`` perf counter).
        """
        simple_dirty = np.nonzero(dirty[topology.simple_mask])[0]
        if simple_dirty.size:
            self.fill_simple(topology, edges, sx, sy, simple_dirty)
        redone = int(simple_dirty.size)
        for k, net_idx, pin_s, slot in topology.multi_groups:
            sel = np.nonzero(dirty[net_idx])[0]
            if sel.size:
                self.fill_multi_group(edges, sx, sy, k, pin_s[sel], slot[sel])
                redone += int(sel.size)
        return redone

    def wirelength(self, topology: PinTopology, edges: TwoPinArrays) -> float:
        """Weighted Manhattan length of every placed edge."""
        return float(
            (
                topology.edge_weights
                * (
                    np.abs(edges.p2x - edges.p1x)
                    + np.abs(edges.p2y - edges.p1y)
                )
            ).sum()
        )


class CongestionStage:
    """Stage 3: congestion estimation over the placed edges.

    Thin adapter over any :class:`~repro.congestion.base.CongestionModel`;
    ``model is None`` means the objective's ``gamma`` is zero and the
    stage is inert (``enabled`` is False, estimates are never asked
    for).  The model's memoization comes from the
    :class:`~repro.perf.context.CacheContext` the objective injected
    into it -- the stage itself is stateless.
    """

    __slots__ = ("model",)

    def __init__(self, model: Optional[CongestionModel] = None):
        self.model = model

    @property
    def enabled(self) -> bool:
        """Whether congestion participates in the objective."""
        return self.model is not None

    def estimate_arrays(self, chip, edges: TwoPinArrays) -> float:
        """Congestion cost of flat placed-edge arrays (the hot path)."""
        return self.model.estimate_arrays(chip, edges)

    def estimate_arrays_ledger(self, chip, edges: TwoPinArrays, ledger, dirty):
        """Ledger-carrying congestion cost: ``(score, new_ledger)``.

        ``ledger`` / ``dirty`` describe the previously evaluated state
        (see :meth:`CongestionModel.estimate_arrays_ledger`); models
        without a delta path return ``(score, None)``.
        """
        return self.model.estimate_arrays_ledger(chip, edges, ledger, dirty)

    def estimate(self, chip, two_pin_nets) -> float:
        """Congestion cost of ``TwoPinNet`` objects (the seed path and
        the ``strict_incremental`` reference)."""
        return self.model.estimate(chip, two_pin_nets)


class CostAggregator:
    """Stage 4: normalization and the weighted cost combine.

    Each term is divided by its calibrated magnitude over random
    floorplans so ``alpha`` / ``beta`` / ``gamma`` express relative
    importance rather than unit conversions; norms default to 1.0 until
    :meth:`set_norms` runs.
    """

    __slots__ = ("alpha", "beta", "gamma", "area_norm", "wl_norm", "cgt_norm")

    def __init__(self, alpha: float, beta: float, gamma: float):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.area_norm = 1.0
        self.wl_norm = 1.0
        self.cgt_norm = 1.0

    def set_norms(self, area: float, wl: float, cgt: float) -> None:
        """Install calibrated per-term magnitudes (floored at 1e-12)."""
        self.area_norm = max(area, 1e-12)
        self.wl_norm = max(wl, 1e-12)
        self.cgt_norm = max(cgt, 1e-12)

    def combine(self, area: float, wl: float, cgt: float) -> CostBreakdown:
        """Normalize, weight and sum the three terms."""
        cost = (
            self.alpha * area / self.area_norm
            + self.beta * wl / self.wl_norm
            + self.gamma * cgt / self.cgt_norm
        )
        return CostBreakdown(area=area, wirelength=wl, congestion=cgt, cost=cost)


class EvaluationPipeline:
    """Stages 1-4 plus the dirty-net delta state machine.

    Owns the columnar :class:`EvalState` pair behind the annealer's
    transaction protocol: ``state`` is the last evaluated floorplan,
    ``committed`` the last accepted one.  The delta path never mutates
    the committed state's arrays (candidates evaluate into a private
    clone), so :meth:`reject` rolls back by reference swap.

    The ``perf`` attribute accepts a :class:`~repro.perf.PerfRecorder`;
    phases ``pin_assignment`` / ``wirelength`` / ``congestion`` and the
    ``eval_full`` / ``eval_delta`` / ``eval_unchanged`` /
    ``congestion_skipped`` / ``nets_redone`` counters feed the
    annealing perf report.
    """

    def __init__(
        self,
        netlist: Netlist,
        pins: PinStage,
        mst: MstStage,
        congestion: CongestionStage,
        aggregator: CostAggregator,
        incremental: bool = True,
        strict_incremental: bool = False,
    ):
        self.netlist = netlist
        self.pins = pins
        self.mst = mst
        self.congestion = congestion
        self.aggregator = aggregator
        self.incremental = bool(incremental)
        self.strict_incremental = bool(strict_incremental)
        self.perf: PerfRecorder = NULL_RECORDER
        self.state: Optional[EvalState] = None
        self.committed: Optional[EvalState] = None
        self.topology: Optional[PinTopology] = None
        # Retired EvalState recycled as the next candidate's scratch
        # buffers: the annealing loop then allocates zero edge arrays
        # per move in steady state (the pair just alternates roles).
        self._spare: Optional[EvalState] = None

    # -- annealer transaction protocol ---------------------------------

    def invalidate(self) -> None:
        """Drop the delta-path state (force the next evaluation full)."""
        self.state = None
        self.committed = None
        self._spare = None

    def commit(self) -> None:
        """Mark the last evaluated floorplan as the annealer's accepted
        state.  Subsequent delta evaluations diff against it without
        mutating its arrays, so :meth:`reject` can roll back."""
        old = self.committed
        if old is not None and old is not self.state:
            self._spare = old
        self.committed = self.state

    def reject(self) -> None:
        """The last evaluated floorplan was refused: restore the
        accepted state so the next delta diffs against it (one move's
        worth of dirty nets, not two)."""
        if self.state is not None and self.state is not self.committed:
            self._spare = self.state
        self.state = self.committed

    # -- evaluation -----------------------------------------------------

    def floorplan_terms(
        self, floorplan: Floorplan
    ) -> Tuple[float, float, float]:
        """``(area, wirelength, congestion)`` of a placed floorplan,
        via the delta path when enabled."""
        agg = self.aggregator
        area = floorplan.area
        if agg.beta == 0 and agg.gamma == 0:
            return area, 0.0, 0.0
        if not self.incremental:
            wl, cgt = self.full_terms(floorplan)
            return area, wl, cgt
        wl, cgt = self._delta_terms(floorplan)
        if self.strict_incremental:
            self._assert_delta_matches_full(floorplan, wl, cgt)
        # The delta path maintains wirelength partials regardless of
        # beta (they cost nothing extra); the reported term honours the
        # seed behaviour of beta == 0 -> 0.0.
        return area, (wl if agg.beta > 0 else 0.0), cgt

    def full_terms(self, floorplan: Floorplan) -> Tuple[float, float]:
        """Wirelength and congestion from scratch (seed behaviour),
        through the object pin/net pipeline; leaves no delta state."""
        with self.perf.timeit("pin_assignment"):
            assignment = assign_pins(
                floorplan, self.netlist, self.pins.pin_grid_size
            )
        wl = 0.0
        cgt = 0.0
        if self.aggregator.beta > 0:
            with self.perf.timeit("wirelength"):
                wl = total_two_pin_length(assignment.two_pin_nets)
        if self.aggregator.gamma > 0:
            with self.perf.timeit("congestion"):
                cgt = self.congestion.estimate(
                    floorplan.chip, assignment.two_pin_nets
                )
        return wl, cgt

    # -- delta path -----------------------------------------------------

    def _topology_for(self, floorplan: Floorplan) -> PinTopology:
        topology = self.topology
        if topology is None or floorplan.placements.keys() != topology.key_set:
            topology = PinTopology(self.netlist, floorplan.module_names)
            self.topology = topology
            self.state = None
            self.committed = None
            self._spare = None
        return topology

    def _acquire_candidate(self, prev: EvalState) -> EvalState:
        """A candidate state whose edge arrays are private copies of
        ``prev``'s -- recycled from the spare when one fits.

        Only the four edge-coordinate arrays are copied (``np.copyto``
        into the spare's buffers): the pin arrays are replaced wholesale
        by the freshly computed snap results before ``_delta_terms``
        returns, so copying them -- as :meth:`EvalState.clone_arrays`
        must for the general case -- would be pure churn.
        """
        spare = self._spare
        if (
            spare is None
            or spare is prev
            or len(spare.edges.p1x) != len(prev.edges.p1x)
        ):
            return prev.clone_arrays()
        self._spare = None
        src = prev.edges
        dst = spare.edges
        np.copyto(dst.p1x, src.p1x)
        np.copyto(dst.p1y, src.p1y)
        np.copyto(dst.p2x, src.p2x)
        np.copyto(dst.p2y, src.p2y)
        spare.placements = prev.placements
        spare.chip = prev.chip
        spare.pins_x = prev.pins_x
        spare.pins_y = prev.pins_y
        spare.wirelength = prev.wirelength
        spare.congestion = prev.congestion
        spare.congestion_ledger = prev.congestion_ledger
        return spare

    def _full_state(self, floorplan: Floorplan) -> Tuple[float, float]:
        """Full evaluation that also (re)builds the delta-path state."""
        topology = self._topology_for(floorplan)
        n_edges = topology.n_edges_total
        edges = TwoPinArrays(
            np.empty(n_edges),
            np.empty(n_edges),
            np.empty(n_edges),
            np.empty(n_edges),
            topology.edge_weights,
        )
        with self.perf.timeit("pin_assignment"):
            sx, sy = self.pins.compute(floorplan, topology)
            self.mst.fill_all(topology, edges, sx, sy)
        with self.perf.timeit("wirelength"):
            wl = self.mst.wirelength(topology, edges)
        cgt = 0.0
        ledger = None
        if self.aggregator.gamma > 0:
            with self.perf.timeit("congestion"):
                cgt, ledger = self.congestion.estimate_arrays_ledger(
                    floorplan.chip, edges, None, None
                )
        self.state = EvalState(
            placements=floorplan.placements,
            chip=floorplan.chip,
            pins_x=sx,
            pins_y=sy,
            edges=edges,
            wirelength=wl,
            congestion=cgt,
            congestion_ledger=ledger,
        )
        self.perf.count("eval_full")
        return wl, cgt

    def _delta_terms(self, floorplan: Floorplan) -> Tuple[float, float]:
        prev = self.state
        topology = self.topology
        placements = floorplan.placements
        if (
            prev is None
            or topology is None
            or placements.keys() != topology.key_set
        ):
            # Different module set: the flattened pin topology no longer
            # lines up -- restart.
            return self._full_state(floorplan)

        chip = floorplan.chip
        chip_changed = chip != prev.chip
        with self.perf.timeit("pin_assignment"):
            sx, sy = self.pins.compute(floorplan, topology)
            changed = (sx != prev.pins_x) | (sy != prev.pins_y)
            pins_changed = bool(changed.any())
            if not pins_changed and not chip_changed:
                # Every snapped pin and the outline held still (modules
                # may have shifted by less than the snap resolution):
                # wirelength and congestion are untouched.
                self.perf.count("eval_unchanged")
                if self.aggregator.gamma > 0:
                    self.perf.count("congestion_skipped")
                return prev.wirelength, prev.congestion
            if prev is self.committed:
                # Never mutate the accepted state's arrays: evaluate the
                # candidate into a private copy (recycled from the spare
                # buffers when possible) so reject() rolls back by
                # reference swap.
                state = self._acquire_candidate(prev)
            else:
                state = prev
            edges = state.edges
            if pins_changed:
                dirty = np.logical_or.reduceat(changed, topology.starts[:-1])
                self.perf.count(
                    "nets_redone",
                    self.mst.fill_dirty(topology, edges, sx, sy, dirty),
                )
        self.perf.count("eval_delta")

        with self.perf.timeit("wirelength"):
            wl = (
                self.mst.wirelength(topology, edges)
                if pins_changed
                else prev.wirelength
            )

        if self.aggregator.gamma == 0:
            cgt = 0.0
        else:
            # A changed pin always changes its net's edge geometry, and
            # a changed outline moves the routing-range clamp, so any
            # fall-through here must re-estimate.  The dirty *edge* set
            # (every edge owned by a dirty net) plus the previously
            # evaluated state's ledger lets the model take its O(dirty)
            # delta path when the merged grid held still; a chip change
            # invalidates every edge's clamp, so it forces the full
            # path by withholding the dirty set.
            if pins_changed and not chip_changed:
                dirty_edges = np.nonzero(dirty[topology.edge_owner])[0]
            else:
                dirty_edges = None
            with self.perf.timeit("congestion"):
                cgt, ledger = self.congestion.estimate_arrays_ledger(
                    chip, edges, prev.congestion_ledger, dirty_edges
                )
            state.congestion_ledger = ledger

        state.placements = placements
        state.chip = chip
        state.pins_x = sx
        state.pins_y = sy
        state.wirelength = wl
        state.congestion = cgt
        self.state = state
        return wl, cgt

    def _assert_delta_matches_full(
        self, floorplan: Floorplan, wl: float, cgt: float
    ) -> None:
        assignment = assign_pins(
            floorplan, self.netlist, self.pins.pin_grid_size
        )
        full_wl = total_two_pin_length(assignment.two_pin_nets)
        if not math.isclose(wl, full_wl, rel_tol=1e-12, abs_tol=1e-12):
            raise AssertionError(
                f"incremental wirelength {wl!r} != full {full_wl!r}"
            )
        if self.aggregator.gamma > 0:
            full_cgt = self.congestion.estimate(
                floorplan.chip, assignment.two_pin_nets
            )
            if not math.isclose(cgt, full_cgt, rel_tol=1e-12, abs_tol=1e-12):
                raise AssertionError(
                    f"incremental congestion {cgt!r} != full {full_cgt!r}"
                )
