"""Atomic annealing checkpoints and bit-identical resume.

A checkpoint is everything needed to continue an annealing run as if it
had never stopped:

* the **loop position** -- temperature-step index and the next move
  index within the step;
* the **RNG state** -- ``random.Random.getstate()``, so the resumed
  run consumes the exact same random stream the uninterrupted run
  would have;
* the **search state** -- current and best representation states with
  their cost breakdowns, plus ``t0`` and the objective's calibrated
  normalization constants (cost continuity requires the same norms);
* the **run configuration** -- netlist, representation name, seed,
  schedule, moves-per-temperature, and (when the engine was built from
  one) the picklable :class:`~repro.engine.multistart.ObjectiveSpec`,
  so ``AnnealEngine.resume(path)`` can reconstruct the whole engine
  from the file alone;
* **accounting** -- move/acceptance counters, per-step snapshots,
  elapsed wall-clock, and the cache statistics at checkpoint time (so
  a resumed run's report can cover the whole logical run; see
  :func:`~repro.perf.context.merge_cache_stats`).

Why resume is bit-identical: the evaluation pipeline recomputes
wirelength and congestion over the *full* edge arrays every evaluation
(the delta path only avoids rebuilding clean nets' edges), and every
cache is value-transparent, so re-evaluating the checkpointed current
state from scratch reproduces the incremental path's numbers exactly.
With the RNG stream restored verbatim, every subsequent
neighbor/accept decision is the one the uninterrupted run would have
made.

Files are written with write-temp-then-rename
(:mod:`repro.ioutil`), so a crash mid-checkpoint never corrupts the
previous good checkpoint.  Loading validates a magic header and format
version and raises :class:`~repro.errors.CheckpointError` on any
missing, foreign, truncated, or incompatible file.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import CheckpointError
from repro.ioutil import atomic_write_bytes

__all__ = [
    "CHECKPOINT_VERSION",
    "DRIVER_CHECKPOINT_VERSION",
    "LoopState",
    "Checkpoint",
    "CheckpointInfo",
    "DriverCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "peek_checkpoint",
    "save_driver_checkpoint",
    "load_driver_checkpoint",
]

CHECKPOINT_VERSION = 1
_MAGIC = b"repro-checkpoint"

DRIVER_CHECKPOINT_VERSION = 1
_DRIVER_MAGIC = b"repro-driver-ckpt"

# Checkpoints of the deleted replica-exchange driver pickle its replica
# states by this module path; loading one names the removal instead of
# reporting a corrupt file.
_REMOVED_TEMPERING_MODULE = "repro.engine.tempering"


@dataclass
class LoopState:
    """The annealing loop's complete position and search state.

    ``step`` / ``move`` address the *next* move to execute: a state
    captured at a temperature-step boundary has ``move == 0`` and
    ``step`` pointing at the upcoming step; a graceful mid-step stop
    records the move that had not yet run.
    """

    step: int
    move: int
    t0: float
    rng_state: Any
    current: Any
    current_eval: Any
    best: Any
    best_eval: Any
    n_moves: int
    n_accepted: int
    snapshots: List[Any] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    norms: Tuple[float, float, float] = (1.0, 1.0, 1.0)


@dataclass
class Checkpoint:
    """One annealing run frozen mid-flight, self-contained on disk."""

    representation: str
    seed: int
    netlist: Any
    moves_per_temperature: int
    schedule: Any
    loop: LoopState
    objective_spec: Any = None
    cache_stats: Dict[str, Any] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    @property
    def completed_steps(self) -> int:
        """Temperature steps fully behind the checkpoint."""
        return self.loop.step if self.loop.move == 0 else self.loop.step + 1


@dataclass
class DriverCheckpoint:
    """A search driver's scheduling state frozen at a round boundary.

    Engine-level checkpoints freeze one annealing loop;
    ``DriverCheckpoint`` freezes the layer *above* it -- a
    :class:`~repro.engine.drivers.SearchDriver`'s position in its own
    schedule: which round it is on, the accumulated leg results,
    per-arm bests and the allocation ledger (portfolio).  Resuming from
    one replays the remaining rounds bit-identically: allocation is a
    pure function of the accumulated results, so the same slots are
    allocated and the same leg seeds run.

    ``driver`` names the driver that wrote the file (resume
    under a different driver is refused); ``config`` is the picklable
    run configuration (netlist, spec, seeds, rounds...) so the CLI can
    reconstruct the whole run from the file alone; ``state`` is the
    driver-specific scheduling payload.
    """

    driver: str
    config: Any
    state: Any
    version: int = DRIVER_CHECKPOINT_VERSION


def _save_envelope(
    path: Union[str, Path],
    obj: Any,
    magic: bytes,
    version: int,
    what: str,
) -> Path:
    try:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable state is a caller bug
        raise CheckpointError(
            f"{what} state is not picklable: {exc}"
        ) from exc
    blob = magic + version.to_bytes(4, "big") + payload
    try:
        return atomic_write_bytes(path, blob)
    except OSError as exc:
        raise CheckpointError(
            f"cannot write {what} to {path}: {exc}"
        ) from exc


def _load_envelope(
    path: Union[str, Path],
    magic: bytes,
    version: int,
    cls: type,
    what: str,
) -> Any:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {what} {path}: {exc}") from exc
    header = len(magic) + 4
    if len(blob) < header or not blob.startswith(magic):
        raise CheckpointError(f"{path} is not a repro {what}")
    found = int.from_bytes(blob[len(magic) : header], "big")
    if found != version:
        raise CheckpointError(
            f"{path} has {what} format version {found}; this build "
            f"reads version {version}"
        )
    try:
        obj = pickle.loads(blob[header:])
    except Exception as exc:
        if getattr(exc, "name", None) == _REMOVED_TEMPERING_MODULE:
            raise CheckpointError(
                f"{what} {path} was written by the tempering driver, "
                f"which has been removed; start a new run with the "
                f"portfolio or multistart driver"
            ) from exc
        raise CheckpointError(
            f"{what} {path} is corrupt or truncated: {exc}"
        ) from exc
    if not isinstance(obj, cls):
        raise CheckpointError(
            f"{what} {path} does not contain a {cls.__name__} "
            f"(got {type(obj).__name__})"
        )
    return obj


def save_checkpoint(path: Union[str, Path], checkpoint: Checkpoint) -> Path:
    """Atomically write ``checkpoint`` to ``path``.

    The destination always holds either the previous complete
    checkpoint or the new one -- a crash mid-write loses only the
    in-flight checkpoint, never the file.
    """
    return _save_envelope(
        path, checkpoint, _MAGIC, CHECKPOINT_VERSION, "checkpoint"
    )


def load_checkpoint(path: Union[str, Path]) -> Checkpoint:
    """Read and validate a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`~repro.errors.CheckpointError` for a missing file,
    a file that is not a repro checkpoint, a truncated/corrupt payload,
    or a format version this code does not understand.
    """
    path = Path(path)
    try:
        head = path.read_bytes()[: len(_DRIVER_MAGIC)]
    except OSError:
        head = b""
    if head.startswith(_DRIVER_MAGIC):
        # Loading it first surfaces a removed driver's error instead.
        driver = load_driver_checkpoint(path).driver
        raise CheckpointError(
            f"{path} is a search-driver checkpoint; resume it through "
            f"the driver layer (--driver {driver} --resume), not "
            f"AnnealEngine"
        )
    return _load_envelope(
        path, _MAGIC, CHECKPOINT_VERSION, Checkpoint, "checkpoint"
    )


@dataclass(frozen=True)
class CheckpointInfo:
    """A checkpoint file's identity card, cheap to obtain.

    Returned by :func:`peek_checkpoint`: enough to answer "what is
    this file, how far did it get, is it worth resuming" -- without
    constructing an engine, re-parsing a netlist, or touching any
    cache.  ``kind`` is ``"engine"`` or ``"driver"``; driver files
    fill ``driver`` and leave the loop-position fields ``None``.
    """

    kind: str
    version: int
    path: str
    representation: Optional[str] = None
    driver: Optional[str] = None
    seed: Optional[int] = None
    n_modules: Optional[int] = None
    step: Optional[int] = None
    move: Optional[int] = None
    completed_steps: Optional[int] = None
    n_moves: Optional[int] = None
    current_cost: Optional[float] = None
    best_cost: Optional[float] = None

    def summary(self) -> str:
        """One human-readable line (the CLI's ``--peek`` output)."""
        if self.kind == "driver":
            return (
                f"driver checkpoint v{self.version} ({self.driver}) "
                f"at {self.path}"
            )
        return (
            f"engine checkpoint v{self.version}: {self.representation} "
            f"seed {self.seed}, {self.n_modules} modules, "
            f"{self.completed_steps} step(s) done "
            f"(next step {self.step} move {self.move}), "
            f"best cost {self.best_cost}"
        )


def peek_checkpoint(path: Union[str, Path]) -> CheckpointInfo:
    """Identify a checkpoint file without rebuilding anything from it.

    Handles both engine and driver checkpoints (dispatching on the
    magic header) and raises :class:`~repro.errors.CheckpointError`
    with the same diagnostics as the loaders for anything that is not
    a valid checkpoint.  Unlike :meth:`AnnealEngine.resume`, peeking
    never constructs representations or objectives -- it is safe to
    call on files of unknown provenance before deciding what to do
    with them.
    """
    path = Path(path)
    try:
        head = path.read_bytes()[: len(_DRIVER_MAGIC)]
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if head.startswith(_DRIVER_MAGIC):
        checkpoint = load_driver_checkpoint(path)
        return CheckpointInfo(
            kind="driver",
            version=checkpoint.version,
            path=str(path),
            driver=checkpoint.driver,
        )
    checkpoint = load_checkpoint(path)
    loop = checkpoint.loop
    return CheckpointInfo(
        kind="engine",
        version=checkpoint.version,
        path=str(path),
        representation=checkpoint.representation,
        seed=checkpoint.seed,
        n_modules=getattr(checkpoint.netlist, "n_modules", None),
        step=loop.step,
        move=loop.move,
        completed_steps=checkpoint.completed_steps,
        n_moves=loop.n_moves,
        current_cost=getattr(loop.current_eval, "cost", None),
        best_cost=getattr(loop.best_eval, "cost", None),
    )


def save_driver_checkpoint(
    path: Union[str, Path], checkpoint: DriverCheckpoint
) -> Path:
    """Atomically write a :class:`DriverCheckpoint` to ``path``."""
    return _save_envelope(
        path,
        checkpoint,
        _DRIVER_MAGIC,
        DRIVER_CHECKPOINT_VERSION,
        "driver checkpoint",
    )


def load_driver_checkpoint(path: Union[str, Path]) -> DriverCheckpoint:
    """Read and validate a :func:`save_driver_checkpoint` file."""
    return _load_envelope(
        path,
        _DRIVER_MAGIC,
        DRIVER_CHECKPOINT_VERSION,
        DriverCheckpoint,
        "driver checkpoint",
    )
