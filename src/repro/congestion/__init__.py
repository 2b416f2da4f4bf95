"""Congestion estimation -- the paper's contribution and its baseline.

Layers, bottom-up:

* :mod:`repro.congestion.routes` -- exact monotone-route counting and
  per-unit-grid crossing probabilities (Formulas 1-2);
* :mod:`repro.congestion.fixed_grid` -- the fixed-size-grid model of
  Sham & Young [4] (Section 3): the baseline *and*, at fine pitch, the
  paper's "judging model";
* :mod:`repro.congestion.irgrid` -- Irregular-Grid construction from
  routing-range cut lines, with close-line merging (Section 4.2,
  Algorithm step 2);
* :mod:`repro.congestion.exact_ir` -- the exact IR-grid crossing
  probability (Formula 3);
* :mod:`repro.congestion.approx` -- the constant-time normal
  approximation (Theorem 1) with Simpson integration and the Section 4.5
  domain guards;
* :mod:`repro.congestion.vectorized` / :mod:`repro.congestion.batched`
  -- the numpy kernels: per-net matrices (the exact loop and the test
  oracle) and the whole-floorplan Theorem-1 batch with its per-net
  memo (the hot path);
* :mod:`repro.congestion.ledger` -- the committed-grid snapshot behind
  O(dirty) re-estimation;
* :mod:`repro.congestion.model` -- the full Irregular-Grid congestion
  model (Algorithm of Section 4.6), whose entry points (net objects,
  edge arrays, ledger deltas, densities) all share one mass path;
* :mod:`repro.congestion.judging` -- the fine-pitch judging wrapper used
  by every experiment.
"""

from repro.congestion.base import CongestionCell, CongestionMap, CongestionModel
from repro.congestion.routes import (
    total_routes,
    route_count_from_p1,
    route_count_to_p2,
    crossing_probability,
    probability_table,
)
from repro.congestion.fixed_grid import FixedGridModel
from repro.congestion.irgrid import IRGrid, build_irgrid, build_irgrid_arrays
from repro.congestion.exact_ir import exact_ir_probability
from repro.congestion.approx import (
    ApproximationDomainError,
    approx_ir_probability,
    approx_function1_pointwise,
)
from repro.congestion.model import IrregularGridModel
from repro.congestion.analysis import (
    CellAttribution,
    HotspotReport,
    analyze_hotspots,
)
from repro.congestion.judging import JudgingModel
from repro.congestion.rudy import RudyModel
from repro.congestion.bendweighted import BendWeightedModel, bend_weighted_table
from repro.congestion.capacity import RoutabilityEstimate, estimate_routability
from repro.congestion.comparison import map_rank_correlation, resample_to_grid

__all__ = [
    "CongestionCell",
    "CongestionMap",
    "CongestionModel",
    "total_routes",
    "route_count_from_p1",
    "route_count_to_p2",
    "crossing_probability",
    "probability_table",
    "FixedGridModel",
    "IRGrid",
    "build_irgrid",
    "build_irgrid_arrays",
    "exact_ir_probability",
    "ApproximationDomainError",
    "approx_ir_probability",
    "approx_function1_pointwise",
    "IrregularGridModel",
    "CellAttribution",
    "HotspotReport",
    "analyze_hotspots",
    "JudgingModel",
    "RudyModel",
    "BendWeightedModel",
    "bend_weighted_table",
    "RoutabilityEstimate",
    "estimate_routability",
    "map_rank_correlation",
    "resample_to_grid",
]
