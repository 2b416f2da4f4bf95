"""repro -- Irregular-Grid congestion estimation for floorplan design.

A full reproduction of *"A New Effective Congestion Model in Floorplan
Design"* (Hsieh & Hsieh, DATE 2004): the Irregular-Grid probabilistic
congestion model, the fixed-size-grid baseline it improves on, and the
Wong-Liu simulated-annealing floorplanner both are embedded in.

Quickstart::

    from repro import load_mcnc, AnnealEngine

    circuit = load_mcnc("ami33")
    engine = AnnealEngine(circuit, representation="polish", seed=1)
    result = engine.run()

Best-of-N over seeds, optionally on a process pool::

    from repro import MultiStartEngine

    multi = MultiStartEngine(circuit, restarts=4, workers=4)
    best = multi.run().best

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.congestion import (
    analyze_hotspots,
    CongestionCell,
    CongestionMap,
    CongestionModel,
    FixedGridModel,
    IRGrid,
    IrregularGridModel,
    JudgingModel,
    build_irgrid,
)
from repro.data import load_mcnc, read_yal, write_yal
from repro.floorplan import (
    Floorplan,
    PolishExpression,
    SequencePair,
    evaluate_polish,
    initial_expression,
    pack_sequence_pair,
)
from repro.geometry import Point, Rect
from repro.netlist import (
    Module,
    SoftModule,
    soften,
    Net,
    Netlist,
    NetType,
    TwoPinNet,
    clustered_circuit,
    decompose_to_two_pin,
    grid_circuit,
    random_circuit,
)
from repro.pins import PinAssignment, assign_pins
from repro.anneal import FloorplanObjective, GeometricSchedule
from repro.engine import (
    AnnealEngine,
    CacheContext,
    Checkpoint,
    EngineResult,
    MultiStartEngine,
    MultiStartResult,
    ObjectiveSpec,
    Representation,
    RunControl,
    RunReport,
    available_representations,
    install_signal_handlers,
    load_checkpoint,
    make_representation,
    register_representation,
    save_checkpoint,
)
from repro.errors import (
    CheckpointError,
    NetlistValidationError,
    ReproError,
    WorkerFailure,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # congestion
    "CongestionCell",
    "CongestionMap",
    "CongestionModel",
    "FixedGridModel",
    "IRGrid",
    "IrregularGridModel",
    "JudgingModel",
    "analyze_hotspots",
    "build_irgrid",
    # data
    "load_mcnc",
    "read_yal",
    "write_yal",
    # floorplan
    "Floorplan",
    "PolishExpression",
    "SequencePair",
    "evaluate_polish",
    "initial_expression",
    "pack_sequence_pair",
    # geometry
    "Point",
    "Rect",
    # netlist
    "Module",
    "SoftModule",
    "soften",
    "Net",
    "Netlist",
    "NetType",
    "TwoPinNet",
    "clustered_circuit",
    "decompose_to_two_pin",
    "grid_circuit",
    "random_circuit",
    # pins
    "PinAssignment",
    "assign_pins",
    # annealing
    "FloorplanObjective",
    "GeometricSchedule",
    # engine
    "AnnealEngine",
    "CacheContext",
    "EngineResult",
    "MultiStartEngine",
    "MultiStartResult",
    "ObjectiveSpec",
    "Representation",
    "available_representations",
    "make_representation",
    "register_representation",
    # fault tolerance
    "Checkpoint",
    "RunControl",
    "RunReport",
    "install_signal_handlers",
    "load_checkpoint",
    "save_checkpoint",
    # errors
    "ReproError",
    "NetlistValidationError",
    "CheckpointError",
    "WorkerFailure",
]
