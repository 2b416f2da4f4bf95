"""The floorplanner's multi-objective cost (Section 5).

``cost = alpha * Area + beta * Wirelength + gamma * Congestion``, with
each term normalized by its magnitude over a sample of random
floorplans so the weights express *relative importance* rather than
unit conversions (areas are in mm^2-scale um^2, wirelengths in um,
congestion costs in probability mass per um^2 -- raw magnitudes differ
by orders of magnitude).

:class:`FloorplanObjective` is a facade over the staged evaluation
pipeline in :mod:`repro.anneal.pipeline` (pin assignment -> MST
decomposition -> congestion -> cost aggregation, sharing one columnar
:class:`~repro.anneal.pipeline.EvalState`).  Annealing evaluates the
objective thousands of times on floorplans that differ by a single
move, so the pipeline keeps a *dirty-net delta path*: it diffs module
rectangles against the previously evaluated state, re-pins and
re-decomposes only the nets touching moved modules (plus, when the chip
outline changed, the nets of modules within one lattice pitch of its hi
edges, whose snapped pins the into-chip clamp may shift), and skips
congestion re-evaluation entirely when neither the chip outline nor any
net's placed 2-pin geometry changed.  Only a different module set falls
back to the full path.  ``strict_incremental`` re-runs the full
pipeline after every delta evaluation and asserts agreement to 1e-12 --
the debugging net for the invariants above.

All memoization is scoped to the objective's
:class:`~repro.perf.context.CacheContext` (engine-supplied, or private
to the objective): the subtree-shape memo behind expression packing and
-- when the congestion model has no context of its own yet -- the
model's per-net caches.  Two objectives in one process never share
cache state.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.anneal.pipeline import (
    CongestionStage,
    CostAggregator,
    CostBreakdown,
    EvalState,
    EvaluationPipeline,
    MstStage,
    PinStage,
)
from repro.backend import make_backend
from repro.congestion.base import CongestionModel
from repro.floorplan import Floorplan, evaluate_polish, initial_expression
from repro.netlist import Netlist
from repro.obs.metrics import MetricsRegistry
from repro.perf.context import CacheContext

__all__ = ["CostBreakdown", "FloorplanObjective"]

_DEFAULT_PIN_GRID = 30.0


class FloorplanObjective:
    """Weighted, normalized floorplan cost.

    Parameters
    ----------
    netlist:
        The circuit being floorplanned.
    alpha, beta, gamma:
        Weights of area, wirelength, and congestion.  ``gamma == 0``
        skips congestion evaluation entirely (Experiment 1's first
        floorplanner); ``alpha == beta == 0`` with ``gamma > 0`` is the
        congestion-only objective of Experiments 2-3.
    congestion_model:
        Any :class:`~repro.congestion.base.CongestionModel`; required
        when ``gamma > 0``.
    pin_grid_size:
        Lattice pitch for intersection-to-intersection pin snapping.
        Defaults to the congestion model's ``grid_size`` when it has
        one, else 30 um.
    allow_rotation:
        Whether packing may rotate modules.
    incremental:
        Enable the dirty-net delta path (see the module docstring).
        Results agree with the full path to float-summation dust; pass
        ``False`` for the always-from-scratch seed behaviour.
    strict_incremental:
        Debug mode: after every delta evaluation, re-run the full
        pipeline and raise :class:`AssertionError` unless both agree to
        1e-12.
    cache_context:
        The :class:`~repro.perf.context.CacheContext` scoping every
        memo this objective uses.  The engine passes its own so all
        restarts' caches report in one place; standalone objectives get
        a private context.  If the congestion model has a
        ``cache_context`` slot that is still unset, the objective's
        context is injected into it.

    The ``perf`` attribute accepts a
    :class:`~repro.obs.MetricsRegistry`; phases ``packing`` /
    ``pin_assignment`` / ``mst`` / ``wirelength`` / ``congestion`` and
    the ``eval_full`` / ``eval_delta`` / ``eval_unchanged`` /
    ``congestion_skipped`` / ``nets_redone`` counters feed the
    annealing perf report.
    """

    def __init__(
        self,
        netlist: Netlist,
        alpha: float = 1.0,
        beta: float = 1.0,
        gamma: float = 0.0,
        congestion_model: Optional[CongestionModel] = None,
        pin_grid_size: Optional[float] = None,
        allow_rotation: bool = True,
        incremental: bool = True,
        strict_incremental: bool = False,
        cache_context: Optional[CacheContext] = None,
    ):
        if min(alpha, beta, gamma) < 0:
            raise ValueError("objective weights must be non-negative")
        if alpha == beta == gamma == 0:
            raise ValueError("at least one objective weight must be positive")
        if gamma > 0 and congestion_model is None:
            raise ValueError("gamma > 0 requires a congestion model")
        self.netlist = netlist
        self._modules = {m.name: m for m in netlist.modules}
        self.congestion_model = congestion_model
        if pin_grid_size is None:
            pin_grid_size = getattr(congestion_model, "grid_size", _DEFAULT_PIN_GRID)
        if pin_grid_size <= 0:
            raise ValueError(f"pin_grid_size must be positive, got {pin_grid_size}")
        self.allow_rotation = bool(allow_rotation)
        self.cache_context = (
            cache_context if cache_context is not None else CacheContext()
        )
        # Inject the objective's context into a context-less congestion
        # model so its per-net memos are scoped with everything else;
        # a model arriving with its own context keeps it.
        if (
            congestion_model is not None
            and getattr(congestion_model, "cache_context", False) is None
        ):
            congestion_model.cache_context = self.cache_context
        # Provenance only: numpy is the one compute lane.
        self.backend = make_backend()
        self._pipeline = EvaluationPipeline(
            netlist,
            pins=PinStage(float(pin_grid_size)),
            mst=MstStage(),
            congestion=CongestionStage(congestion_model if gamma > 0 else None),
            aggregator=CostAggregator(alpha, beta, gamma),
            incremental=incremental,
            strict_incremental=strict_incremental,
        )

    # -- facade plumbing ------------------------------------------------

    @property
    def pipeline(self) -> EvaluationPipeline:
        """The staged evaluation pipeline doing the actual work."""
        return self._pipeline

    @property
    def alpha(self) -> float:
        """Area weight."""
        return self._pipeline.aggregator.alpha

    @property
    def beta(self) -> float:
        """Wirelength weight."""
        return self._pipeline.aggregator.beta

    @property
    def gamma(self) -> float:
        """Congestion weight."""
        return self._pipeline.aggregator.gamma

    @property
    def pin_grid_size(self) -> float:
        """Lattice pitch of the pin snap."""
        return self._pipeline.pins.pin_grid_size

    @property
    def incremental(self) -> bool:
        """Whether the dirty-net delta path is enabled."""
        return self._pipeline.incremental

    @property
    def strict_incremental(self) -> bool:
        """Whether every delta evaluation is checked against the full
        path."""
        return self._pipeline.strict_incremental

    @property
    def perf(self) -> MetricsRegistry:
        """The registry receiving phase timings and counters."""
        return self._pipeline.perf

    @perf.setter
    def perf(self, registry: MetricsRegistry) -> None:
        self._pipeline.perf = registry

    @property
    def _state(self) -> Optional[EvalState]:
        return self._pipeline.state

    @_state.setter
    def _state(self, value: Optional[EvalState]) -> None:
        self._pipeline.state = value

    @property
    def _committed(self) -> Optional[EvalState]:
        return self._pipeline.committed

    @_committed.setter
    def _committed(self, value: Optional[EvalState]) -> None:
        self._pipeline.committed = value

    # -- calibration ----------------------------------------------------

    @property
    def norms(self) -> tuple:
        """The ``(area, wirelength, congestion)`` normalization
        constants currently in force (1.0 each before calibration)."""
        agg = self._pipeline.aggregator
        return (agg.area_norm, agg.wl_norm, agg.cgt_norm)

    def set_norms(self, area: float, wl: float, cgt: float) -> None:
        """Reinstate previously calibrated normalization constants.

        Checkpoint resume uses this instead of :meth:`calibrate`: cost
        continuity across the resume boundary requires the *same* norms
        the interrupted run used, not a fresh sample.
        """
        self._pipeline.aggregator.set_norms(area, wl, cgt)

    def calibrate(self, seed: int = 0, samples: int = 10) -> None:
        """Set normalization constants from random floorplans.

        Each term is divided by its mean over ``samples`` random Polish
        expressions, making the three terms commensurate before the
        weights apply.
        """
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        rng = random.Random(seed)
        areas, wls, cgts = [], [], []
        names = [m.name for m in self.netlist.modules]
        for _ in range(samples):
            expr = initial_expression(names, rng)
            for _ in range(3 * len(names)):
                expr = expr.random_neighbor(rng)
            b = self._raw_terms(expr)
            areas.append(b[0])
            wls.append(b[1])
            cgts.append(b[2])
        self._pipeline.aggregator.set_norms(
            sum(areas) / len(areas),
            sum(wls) / len(wls),
            sum(cgts) / len(cgts),
        )

    # -- evaluation -----------------------------------------------------

    def evaluate_expression(self, expression) -> CostBreakdown:
        """Pack, measure and combine: the annealer's hot path."""
        area, wl, cgt = self._raw_terms(expression)
        return self._pipeline.aggregator.combine(area, wl, cgt)

    def evaluate_floorplan(self, floorplan: Floorplan) -> CostBreakdown:
        """Cost of an already-packed floorplan (used by the
        sequence-pair annealer and the experiment reports)."""
        area, wl, cgt = self._pipeline.floorplan_terms(floorplan)
        return self._pipeline.aggregator.combine(area, wl, cgt)

    def invalidate(self) -> None:
        """Drop the delta-path state (force the next evaluation full)."""
        self._pipeline.invalidate()

    # -- annealer transaction protocol ---------------------------------

    def commit(self) -> None:
        """Mark the last evaluated floorplan as the annealer's accepted
        state.  Subsequent delta evaluations diff against it without
        mutating its arrays, so :meth:`reject` can roll back."""
        self._pipeline.commit()

    def reject(self) -> None:
        """The last evaluated floorplan was refused: restore the
        accepted state so the next delta diffs against it (one move's
        worth of dirty nets, not two)."""
        self._pipeline.reject()

    def _raw_terms(self, expression):
        # The seed (non-incremental) evaluator stays memo-free so that
        # benchmarks against it measure the genuinely from-scratch path.
        cache = self.cache_context.subtree_shapes if self.incremental else None
        with self.perf.timeit("packing"):
            floorplan = evaluate_polish(
                expression, self._modules, self.allow_rotation, cache=cache
            )
        return self._pipeline.floorplan_terms(floorplan)
