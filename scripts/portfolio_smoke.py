#!/usr/bin/env python
"""Search-driver determinism + fault-recovery smoke test (CI).

Two checks on a small synthetic circuit, both cheap enough for CI:

* **Portfolio resume bit-identity.**  A straight 3-round portfolio
  run must equal a 2-round run that checkpoints, is reloaded through
  :func:`repro.engine.resume_driver`, and finishes the third round --
  same per-leg costs, same allocation ledger, same winner.  A
  divergence means the driver checkpoint misses scheduler state
  (accumulated results, per-arm bests, the round ledger).

* **Portfolio crash recovery.**  A portfolio run on a two-process pool
  with one leg hard-killed (``os._exit`` via the deterministic fault
  harness in :mod:`repro.testing.faults`) must retry the affected legs
  and deliver the unfaulted sequential run's exact costs and
  allocation ledger, with the crash recorded in the charged legs'
  :class:`~repro.engine.RunReport` entries.

Exits non-zero on any mismatch.  ``--out`` writes a JSON summary
(atomically) whose reports are the structured ``RunReport.to_json``
payloads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import (  # noqa: E402
    DriverConfig,
    ObjectiveSpec,
    make_driver,
    resume_driver,
)
from repro.ioutil import atomic_write_json  # noqa: E402
from repro.netlist import random_circuit  # noqa: E402
from repro.testing import FaultSpec  # noqa: E402

# Fire inside round 1's second job, pool attempt 0.  Driver supervision
# keys are round * 1000 + index, so this targets exactly one (round,
# leg) and the retry (attempt 1) runs clean.
CRASH_KEY = 1001


def _base_config(netlist, **overrides):
    defaults = dict(
        netlist=netlist,
        restarts=3,
        seed=11,
        objective_spec=ObjectiveSpec(
            alpha=1.0, beta=1.0, gamma=1.0, congestion_grid_size=30.0
        ),
        moves_per_temperature=15,
        retry_backoff=0.0,
    )
    defaults.update(overrides)
    return DriverConfig(**defaults)


def check_portfolio_resume(netlist, failures):
    straight = make_driver("portfolio", _base_config(netlist, rounds=3)).run()
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "portfolio.ckpt"
        make_driver(
            "portfolio",
            _base_config(netlist, rounds=2, checkpoint_path=str(path)),
        ).run()
        driver, state = resume_driver(path, rounds=3)
        resumed = driver.run(resume_state=state)

    print(f"portfolio straight costs: {straight.costs}")
    print(f"portfolio resumed costs : {resumed.costs}")
    if resumed.costs != straight.costs:
        failures.append("portfolio: resumed costs differ from straight run")
    if resumed.ledger != straight.ledger:
        failures.append("portfolio: resumed allocation ledger diverged")
    if (resumed.best.seed, resumed.best.representation) != (
        straight.best.seed,
        straight.best.representation,
    ):
        failures.append("portfolio: resumed winner differs")
    return straight, resumed


def check_portfolio_crash_recovery(netlist, failures):
    clean = make_driver(
        "portfolio", _base_config(netlist, rounds=2, workers=1)
    ).run()
    fault = FaultSpec(kind="crash", seed=CRASH_KEY, attempt=0, mode="pool")
    faulted = make_driver(
        "portfolio",
        _base_config(netlist, rounds=2, workers=2, inject_fault=fault),
    ).run()

    print(f"portfolio clean costs  : {clean.costs}")
    print(f"portfolio faulted costs: {faulted.costs}")
    if faulted.costs != clean.costs:
        failures.append("portfolio: costs differ after crash recovery")
    if faulted.ledger != clean.ledger:
        failures.append("portfolio: allocation ledger differs after crash")
    # A pool-worker crash takes the whole round's in-flight legs down
    # with it; the supervisor charges each of them a "crash" failure
    # and retries them all.  Every charged leg must have recovered.
    crashed = [
        r
        for r in faulted.reports
        if any(f.kind == "crash" for f in r.failures)
    ]
    if not crashed:
        failures.append(
            "portfolio: injected crash missing from the run reports"
        )
    elif any(r.status != "ok" or r.attempts < 2 for r in crashed):
        failures.append(
            "portfolio: a crash-charged leg did not recover on retry"
        )
    return clean, faulted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=None, help="write a JSON summary here"
    )
    args = parser.parse_args(argv)

    netlist = random_circuit(10, 24, seed=3)
    failures: list[str] = []

    straight, resumed = check_portfolio_resume(netlist, failures)
    clean, faulted = check_portfolio_crash_recovery(netlist, failures)

    if args.out is not None:
        atomic_write_json(
            args.out,
            {
                "check": "search-driver determinism + fault recovery",
                "portfolio": {
                    "straight_costs": straight.costs,
                    "resumed_costs": resumed.costs,
                    "resume_identical": (
                        resumed.costs == straight.costs
                        and resumed.ledger == straight.ledger
                    ),
                    "clean_costs": clean.costs,
                    "faulted_costs": faulted.costs,
                    "reports": [r.to_json() for r in faulted.reports],
                    "recovered_identical": faulted.costs == clean.costs,
                },
                "failures": failures,
                "ok": not failures,
            },
        )
        print(f"wrote {args.out}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("ok: driver resume is bit-identical and crash recovery is exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
