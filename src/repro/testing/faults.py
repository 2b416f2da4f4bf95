"""Deterministic fault injection for the robustness test suite.

Faults that only fire "sometimes" make for unreproducible tests, so
every injector here is *targeted*: it names the exact (seed, attempt,
execution mode) -- or the exact evaluation ordinal, or the exact kernel
call -- at which it fires, and is inert everywhere else.  An injected
worker crash on attempt 0 therefore deterministically succeeds on the
supervised retry, and a poisoned congestion kernel poisons exactly one
evaluation.

Three injection points cover the failure classes the engine defends
against:

* :class:`FaultSpec` -- process-level faults inside one
  :func:`~repro.engine.multistart.run_job` (``os._exit`` crash, hang,
  raised exception; at job entry or at a chosen temperature step),
  shipped picklable into pool workers via the search drivers'
  :attr:`~repro.engine.drivers.DriverConfig.inject_fault` hook and the
  service fleet's ``faults`` map;
* :class:`FaultyObjective` -- an objective wrapper that raises
  :class:`InjectedFault` at evaluation N, simulating a mid-anneal
  crash between two checkpoints;
* :func:`poison_approx_mass` -- patches the congestion model's batched
  kernel reference to emit one NaN/inf cell at call N, proving the
  NaN guards detect it and fall back to the exact Formula 3 path.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultyObjective",
    "poison_approx_mass",
    "journal_write_crash",
    "slow_client_request",
]


class InjectedFault(RuntimeError):
    """Raised (or simulated) by an injector that was asked to fire."""


_KINDS = ("crash", "hang", "raise")


@dataclass(frozen=True)
class FaultSpec:
    """A picklable, targeted process-level fault inside one run job.

    :func:`~repro.engine.multistart.run_job` consults it with the job's
    supervision key, attempt and execution mode, and it fires only
    when all three match: ``seed`` names the key (a restart's seed, a
    portfolio leg's key; ``None`` matches every key -- the service
    targets a job by id instead), ``mode`` of ``None`` matches both
    pool and sequential execution.  A supervised retry of an injected
    failure is therefore untargeted and deterministically succeeds.

    ``at_step`` picks the moment: ``None`` fires at job entry, ``n``
    at the n-th temperature snapshot of the walk -- which lets the
    fault suite kill a worker strictly **after** its first checkpoint
    landed and then prove the retry resumes bit-identically.

    ``"crash"`` hard-kills the process with ``os._exit`` (no cleanup,
    like a segfault -- never target it at sequential mode, that is the
    test process); ``"hang"`` sleeps ``hang_seconds`` to trip the
    supervisor's watchdog; ``"raise"`` raises :class:`InjectedFault`.
    """

    kind: str
    seed: Optional[int] = None
    attempt: int = 0
    mode: Optional[str] = None
    at_step: Optional[int] = None
    hang_seconds: float = 3600.0
    exit_code: int = 13

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.at_step is not None and self.at_step < 1:
            raise ValueError(f"at_step must be >= 1, got {self.at_step}")

    def matches(self, seed: int, attempt: int, mode: str) -> bool:
        """Whether this fault targets the given job attempt."""
        return (
            (self.seed is None or seed == self.seed)
            and attempt == self.attempt
            and (self.mode is None or mode == self.mode)
        )

    def arm(self, seed: int, attempt: int, mode: str):
        """Arm this fault for one job attempt.

        Returns ``None`` when the attempt is not targeted (the common
        case).  A targeted entry fault (``at_step=None``) fires right
        here; a targeted step fault returns the ``on_snapshot`` hook
        that fires at snapshot ``at_step``.
        """
        if not self.matches(seed, attempt, mode):
            return None
        where = f"seed={seed} attempt={attempt} mode={mode}"
        if self.at_step is None:
            self._fire(where)
            return None
        seen = {"steps": 0}

        def hook(snapshot) -> None:
            seen["steps"] += 1
            if seen["steps"] == self.at_step:
                self._fire(f"{where} temperature step {self.at_step}")

        return hook

    def _fire(self, where: str) -> None:
        if self.kind == "crash":
            os._exit(self.exit_code)
        if self.kind == "hang":
            time.sleep(self.hang_seconds)
            return
        raise InjectedFault(f"injected fault: {where}")


class FaultyObjective:
    """An objective that dies at evaluation ``fail_at_evaluation``.

    Wraps a real :class:`~repro.anneal.cost.FloorplanObjective` and
    counts :meth:`evaluate_floorplan` calls; the fatal call raises
    :class:`InjectedFault` *before* touching the inner objective, so
    the wrapped pipeline is left exactly as the last committed state --
    the same situation a process crash leaves a checkpoint file in.
    Everything else (calibration, norms, commit/reject, perf wiring)
    delegates to the inner objective.
    """

    def __init__(self, inner, fail_at_evaluation: int):
        if fail_at_evaluation < 1:
            raise ValueError(
                f"fail_at_evaluation must be >= 1, got {fail_at_evaluation}"
            )
        self.inner = inner
        self.fail_at_evaluation = int(fail_at_evaluation)
        self.evaluations = 0

    def evaluate_floorplan(self, floorplan):
        """Count the call and either inject the fault or delegate."""
        self.evaluations += 1
        if self.evaluations >= self.fail_at_evaluation:
            raise InjectedFault(
                f"injected objective fault at evaluation {self.evaluations}"
            )
        return self.inner.evaluate_floorplan(floorplan)

    def disarm(self) -> None:
        """Stop injecting (lets a resumed run finish with this wrapper)."""
        self.fail_at_evaluation = 2**63

    @property
    def perf(self):
        return self.inner.perf

    @perf.setter
    def perf(self, registry) -> None:
        self.inner.perf = registry

    def __getattr__(self, name):
        return getattr(self.inner, name)


@contextmanager
def journal_write_crash(at_append: int = 1, partial_bytes: int = 12):
    """Crash the service journal mid-append, leaving a torn tail.

    Patches ``atomic_append_text`` *inside*
    :mod:`repro.service.journal` so append number ``at_append`` writes
    only the first ``partial_bytes`` bytes of its record (no newline,
    no checksum validity) and then raises :class:`InjectedFault` --
    the on-disk shape a power cut mid-``write(2)`` leaves behind.
    Yields a dict with ``"calls"`` (appends attempted) and ``"fired"``;
    always unpatches on exit.

    The queue under test must (a) leave its in-memory state untouched
    by the failed append and (b) discard the torn line on replay --
    both asserted by the service fault suite.
    """
    import repro.service.journal as journal_mod

    real_append = journal_mod.atomic_append_text
    state = {"calls": 0, "fired": False}

    def crashing_append(path, text):
        state["calls"] += 1
        if state["calls"] == at_append:
            state["fired"] = True
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(text[: max(1, partial_bytes)])
                handle.flush()
                os.fsync(handle.fileno())
            raise InjectedFault(
                f"injected journal crash at append {state['calls']}"
            )
        return real_append(path, text)

    journal_mod.atomic_append_text = crashing_append
    try:
        yield state
    finally:
        journal_mod.atomic_append_text = real_append


def slow_client_request(
    host: str,
    port: int,
    data: bytes = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 1000\r\n\r\n",
    hold_seconds: float = 30.0,
) -> bytes:
    """Open a socket, send an *incomplete* HTTP request, and stall.

    Simulates the classic slowloris-shaped client: headers promise a
    body that never fully arrives.  Returns whatever the server sends
    back (expected: a ``408 Request Timeout`` well before
    ``hold_seconds`` elapses, proving one stalled client cannot pin a
    server task forever).
    """
    import socket

    with socket.create_connection((host, port), timeout=hold_seconds) as sock:
        sock.sendall(data)
        sock.settimeout(hold_seconds)
        chunks = []
        try:
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
        except socket.timeout:
            pass
        return b"".join(chunks)


@contextmanager
def poison_approx_mass(at_call: int = 1, value: float = float("nan")):
    """Poison one cell of the batched congestion kernel's output.

    Patches the ``batched_approx_mass_arrays`` reference *inside*
    :mod:`repro.congestion.model` -- the one kernel every IR-grid mass
    evaluation goes through -- so call number ``at_call`` returns a
    mass array with one cell set to ``value``: the shape of damage a
    broken Theorem-1 approximation would do.  Yields a dict whose
    ``"calls"`` entry counts kernel invocations and ``"poisoned"``
    whether the poison fired; always unpatches on exit.
    """
    import repro.congestion.model as model_mod

    real = model_mod.batched_approx_mass_arrays
    state = {"calls": 0, "poisoned": False}

    def poisoned(*args, **kwargs):
        mass = real(*args, **kwargs)
        state["calls"] += 1
        if state["calls"] == at_call and mass.size:
            mass = mass.copy()
            mass.ravel()[mass.size // 2] = value
            state["poisoned"] = True
        return mass

    model_mod.batched_approx_mass_arrays = poisoned
    try:
        yield state
    finally:
        model_mod.batched_approx_mass_arrays = real
