"""The package-wide exception taxonomy.

Long annealing runs fail for reasons a caller wants to distinguish and
handle: bad input (fix the netlist), a corrupt or mismatched checkpoint
(pick another file), a worker that died under supervision (inspect the
run report).  Each failure class gets a dedicated exception here, all
rooted at :class:`ReproError` so ``except ReproError`` catches every
library-originated failure without swallowing genuine bugs.

The module imports nothing from the rest of the package, so any layer
-- :mod:`repro.netlist` at the bottom, :mod:`repro.engine` at the top
-- can raise these without import cycles.

Compatibility: the classes double-inherit from the builtin exceptions
historically raised at the same sites (``ValueError`` for validation,
``RuntimeError`` for operational failures), so pre-existing
``except ValueError`` call sites keep working.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NetlistValidationError",
    "CheckpointError",
    "WorkerFailure",
    "ServiceError",
    "JobValidationError",
    "QuotaExceeded",
    "JobNotFound",
]


class ReproError(Exception):
    """Base class of every failure the library raises on purpose."""


class NetlistValidationError(ReproError, ValueError):
    """A circuit failed construction-time validation.

    Raised by :class:`~repro.netlist.netlist.Netlist` and its parts for
    duplicate module/net names, non-positive module dimensions, nets
    referencing unknown modules, and nets with fewer than two pins.
    The message always names the offending module or net.
    """


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint could not be written, read, or applied.

    Covers missing/corrupt/truncated checkpoint files, format-version
    mismatches, and resuming against a netlist or objective that does
    not reproduce the checkpointed cost.
    """


class WorkerFailure(ReproError, RuntimeError):
    """Every supervised run job of a search failed.

    Raised by the search drivers (e.g.
    :class:`~repro.engine.drivers.MultiStartDriver`) only when *no*
    :func:`~repro.engine.multistart.run_job` call produced a result;
    individual job failures
    are recorded in the run's
    :class:`~repro.engine.multistart.RunReport` list instead.
    """


class ServiceError(ReproError, RuntimeError):
    """Base class of failures raised by the floorplanning service
    (:mod:`repro.service`): bad submissions, quota rejections, lookups
    of unknown jobs, and illegal job state transitions."""


class JobValidationError(ServiceError, ValueError):
    """A submitted job specification failed validation (unparsable
    netlist, unknown representation, non-positive seed bounds...).
    Maps to HTTP 400."""


class QuotaExceeded(ServiceError):
    """A tenant's active-job quota (queued + running) is full.
    Maps to HTTP 429; resubmitting after jobs finish succeeds."""


class JobNotFound(ServiceError, KeyError):
    """No job with the requested id exists.  Maps to HTTP 404."""
