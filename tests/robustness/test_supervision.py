"""Worker supervision: injected crashes, hangs, and exceptions must be
retried, recorded, and never change the numbers.

Every fault here comes from the deterministic harness in
:mod:`repro.testing.faults` -- targeted at an exact (seed, attempt,
mode) -- so the supervised retry always succeeds and the tests assert
the recovered run is *bit-identical* to an unfaulted sequential run.
"""

import pytest

import repro.engine.drivers as drivers_mod
from repro.anneal.schedule import GeometricSchedule
from repro.engine import (
    DriverConfig,
    ObjectiveSpec,
    RunControl,
    make_driver,
)
from repro.errors import WorkerFailure
from repro.netlist import random_circuit
from repro.testing import FaultSpec

SHORT = GeometricSchedule(cooling_rate=0.5, freeze_ratio=0.1)
SPEC = ObjectiveSpec(alpha=1.0, beta=1.0, gamma=0.0, pin_grid_size=30.0)
SEED = 20


def _multi(netlist, **kwargs):
    kwargs.setdefault("restarts", 2)
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("objective_spec", SPEC)
    kwargs.setdefault("moves_per_temperature", 3 * netlist.n_modules)
    kwargs.setdefault("schedule", SHORT)
    kwargs.setdefault("retry_backoff", 0.0)
    return make_driver("multistart", DriverConfig(netlist, **kwargs))


@pytest.fixture(scope="module")
def netlist():
    return random_circuit(8, 20, seed=12)


@pytest.fixture(scope="module")
def baseline(netlist):
    """The unfaulted sequential truth every recovery must reproduce."""
    return _multi(netlist).run()


class TestPoolSupervision:
    def test_injected_crash_is_retried_and_recovers(self, netlist, baseline):
        fault = FaultSpec(kind="crash", seed=SEED, attempt=0, mode="pool")
        outcome = _multi(netlist, workers=2, inject_fault=fault).run()

        assert outcome.costs == baseline.costs
        assert outcome.best.seed == baseline.best.seed
        assert outcome.best.cost == baseline.best.cost
        assert not outcome.degraded
        assert outcome.pool_rebuilds >= 1
        assert outcome.n_failed == 0
        crashed = [
            r
            for r in outcome.reports
            if any(f.kind == "crash" for f in r.failures)
        ]
        assert crashed, "the injected crash left no RunReport trace"
        for report in outcome.reports:
            assert report.status == "ok"
            assert report.mode == "pool"
        assert any(r.retried for r in outcome.reports)

    def test_hang_trips_watchdog_and_is_retried(self, netlist, baseline):
        fault = FaultSpec(
            kind="hang", seed=SEED, attempt=0, mode="pool", hang_seconds=120.0
        )
        outcome = _multi(
            netlist, workers=2, inject_fault=fault, restart_timeout=10.0
        ).run()

        assert outcome.costs == baseline.costs
        assert outcome.pool_rebuilds >= 1
        hung = next(r for r in outcome.reports if r.seed == SEED)
        assert hung.status == "ok"
        assert hung.retried
        assert any(f.kind == "timeout" for f in hung.failures)

    def test_rebuild_budget_exhausted_degrades_to_sequential(
        self, netlist, baseline
    ):
        # mode="pool" faults are inert once execution degrades, so the
        # sequential fallback deterministically completes.
        fault = FaultSpec(kind="crash", seed=SEED, attempt=0, mode="pool")
        outcome = _multi(
            netlist, workers=2, inject_fault=fault, max_pool_rebuilds=0
        ).run()

        assert outcome.degraded
        assert outcome.costs == baseline.costs
        assert outcome.best.cost == baseline.best.cost
        for report in outcome.reports:
            assert report.status == "ok"
            assert report.mode == "sequential"


class TestSequentialSupervision:
    def test_injected_exception_is_retried(self, netlist, baseline):
        fault = FaultSpec(kind="raise", seed=SEED, attempt=0, mode="sequential")
        outcome = _multi(netlist, inject_fault=fault).run()

        assert outcome.costs == baseline.costs
        faulted = next(r for r in outcome.reports if r.seed == SEED)
        assert faulted.status == "ok"
        assert faulted.attempts == 2
        assert [f.kind for f in faulted.failures] == ["error"]
        assert "InjectedFault" in faulted.failures[0].message
        other = next(r for r in outcome.reports if r.seed == SEED + 1)
        assert other.attempts == 1 and not other.failures

    def test_all_attempts_failing_raises_workerfailure(self, netlist):
        fault = FaultSpec(kind="raise", seed=SEED, attempt=0, mode="sequential")
        driver = _multi(
            netlist, restarts=1, max_retries=0, inject_fault=fault
        )
        with pytest.raises(WorkerFailure, match="every restart failed"):
            driver.run()

    def test_stop_between_restarts_skips_the_rest(
        self, netlist, baseline, monkeypatch
    ):
        control = RunControl()
        real = drivers_mod.run_job

        def stop_after_first(*args, **kwargs):
            result = real(*args, **kwargs)
            control.request_stop("supervisor")
            return result

        monkeypatch.setattr(drivers_mod, "run_job", stop_after_first)
        outcome = _multi(netlist, restarts=3).run(control=control)

        assert len(outcome.results) == 1
        assert outcome.best.seed == SEED
        assert outcome.best.cost == baseline.costs[0]
        statuses = {r.seed: r.status for r in outcome.reports}
        assert statuses == {
            SEED: "ok",
            SEED + 1: "skipped",
            SEED + 2: "skipped",
        }
