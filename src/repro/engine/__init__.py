"""The unified floorplan engine.

One engine, four layers:

1. **Representation** (:mod:`repro.engine.representation`) -- Polish
   expressions, sequence pairs and B*-trees behind one string-keyed
   registry of ``initial`` / ``neighbor`` / ``realize`` triples;
2. **Evaluation pipeline** (:mod:`repro.anneal.pipeline`) -- pin
   assignment -> MST decomposition -> congestion -> cost aggregation
   over one columnar state, with the dirty-net delta path;
3. **Engine-scoped caches** (:class:`~repro.perf.context.CacheContext`,
   re-exported here) -- every memo a run touches belongs to the
   engine's context; no module-global mutable cache anywhere, so
   concurrent engines never cross-pollute;
4. **Search drivers** (:mod:`repro.engine.drivers`) -- strategies
   that schedule many supervised annealing runs behind one registry:
   ``multistart`` (best-of-N restarts, the default), ``tempering``
   (replica exchange over a temperature ladder), and ``portfolio``
   (representation race with slot reallocation and elite migration),
   all sequential-vs-pool bit-identical and resumable from
   round-granularity driver checkpoints.

The historical per-representation annealer classes in
:mod:`repro.anneal` remain as deprecated shims over
:class:`AnnealEngine`.

Fault tolerance rides on top of all four layers:
:class:`~repro.engine.control.RunControl` (cooperative stop, deadline,
checkpoint policy) with :func:`~repro.engine.control.install_signal_handlers`
for SIGINT/SIGTERM, atomic checkpoints and bit-identical
:meth:`AnnealEngine.resume` (:mod:`repro.engine.checkpoint`), and the
multistart supervisor's per-restart :class:`RunReport` ledger.
"""

from repro.engine.checkpoint import (
    Checkpoint,
    CheckpointInfo,
    DriverCheckpoint,
    LoopState,
    load_checkpoint,
    load_driver_checkpoint,
    peek_checkpoint,
    save_checkpoint,
    save_driver_checkpoint,
)
from repro.engine.control import RunControl, install_signal_handlers
from repro.engine.drivers import (
    DriverConfig,
    MultiStartDriver,
    SearchDriver,
    SearchResult,
    available_drivers,
    driver_descriptions,
    make_driver,
    register_driver,
    resume_driver,
)
from repro.engine.engine import AnnealEngine, EngineResult, ObjectiveFactory
from repro.engine.multistart import (
    MultiStartEngine,
    MultiStartResult,
    ObjectiveSpec,
    RestartFailure,
    RunReport,
)
from repro.engine.portfolio import PortfolioDriver
from repro.engine.representation import (
    Representation,
    RepresentationFactory,
    available_representations,
    make_representation,
    register_representation,
    representation_descriptions,
)
from repro.engine.supervise import SupervisedRunner
from repro.engine.tempering import TemperingDriver
from repro.perf.context import CacheContext

__all__ = [
    "AnnealEngine",
    "EngineResult",
    "ObjectiveFactory",
    "MultiStartEngine",
    "MultiStartResult",
    "ObjectiveSpec",
    "RestartFailure",
    "RunReport",
    "SupervisedRunner",
    "DriverConfig",
    "SearchDriver",
    "SearchResult",
    "MultiStartDriver",
    "TemperingDriver",
    "PortfolioDriver",
    "available_drivers",
    "driver_descriptions",
    "make_driver",
    "register_driver",
    "resume_driver",
    "Representation",
    "RepresentationFactory",
    "available_representations",
    "make_representation",
    "register_representation",
    "representation_descriptions",
    "CacheContext",
    "RunControl",
    "install_signal_handlers",
    "Checkpoint",
    "DriverCheckpoint",
    "LoopState",
    "save_checkpoint",
    "load_checkpoint",
    "peek_checkpoint",
    "CheckpointInfo",
    "save_driver_checkpoint",
    "load_driver_checkpoint",
]
