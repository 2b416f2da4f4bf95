"""Simulated-annealing floorplanner (Section 5; Wong & Liu [7]).

* :mod:`repro.anneal.schedule` -- cooling schedules and the uphill-
  sampling initial temperature;
* :mod:`repro.anneal.pipeline` -- the staged evaluation pipeline (pin
  assignment -> MST decomposition -> congestion -> cost aggregation)
  with its dirty-net delta state machine;
* :mod:`repro.anneal.cost` -- the normalized multi-objective cost
  ``alpha*Area + beta*Wirelength + gamma*Congestion``, a facade over
  the pipeline;
* :mod:`repro.anneal.generic` -- the representation-agnostic annealing
  loop :class:`repro.engine.AnnealEngine` drives.
"""

from repro.anneal.schedule import GeometricSchedule, initial_temperature
from repro.anneal.pipeline import (
    CongestionStage,
    CostAggregator,
    EvalState,
    EvaluationPipeline,
    MstStage,
    PinStage,
    PinTopology,
)
from repro.anneal.cost import CostBreakdown, FloorplanObjective
from repro.anneal.generic import anneal

__all__ = [
    "GeometricSchedule",
    "initial_temperature",
    "PinTopology",
    "EvalState",
    "PinStage",
    "MstStage",
    "CongestionStage",
    "CostAggregator",
    "EvaluationPipeline",
    "CostBreakdown",
    "FloorplanObjective",
    "anneal",
]
