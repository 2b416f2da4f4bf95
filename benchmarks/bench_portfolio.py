#!/usr/bin/env python
"""Benchmark the portfolio driver against best-of-N multistart.

For each workload (ami33/ami49-scale synthetic circuits, congestion
term enabled at gamma=1.0) the script gives both drivers the **same
move budget**:

* ``multistart``: best-of-N independent restarts, N = total portfolio
  legs;
* ``portfolio``: the representation race (polish/sp/btree arms, slot
  reallocation to the leading arms, elite continuation and cross-
  representation migration between rounds).

Every leg/restart runs the identical geometric schedule and
moves-per-temperature, and the schedule's step count is fixed by its
``cooling_rate``/``freeze_ratio`` (no acceptance-based early exit), so
equal legs means equal moves -- the wall-clock comparison is
apples-to-apples and both are recorded.

Gates (exit non-zero when violated):

* ``equal_budget``  -- multistart and portfolio executed the same
  total moves to within 2% of the scheduled budget (representations
  may skip a handful of degenerate moves);
* ``results_agree`` -- a reduced portfolio run is bit-identical
  sequentially and on a 2-worker pool (same best cost, same ledger);
* ``strict_ok``     -- a short strict-mode portfolio run
  (``strict_incremental=True``, every delta evaluation re-checked
  against the full pipeline) raises nothing;
* ``portfolio_beats_multistart`` on the ami49-scale workload.

Results go to ``BENCH_portfolio.json`` (see ``--out``).  ``--smoke``
runs a reduced schedule and skips writing by default -- cheap enough
for CI.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.anneal.schedule import GeometricSchedule  # noqa: E402
from repro.engine import DriverConfig, ObjectiveSpec, make_driver  # noqa: E402
from repro.ioutil import atomic_write_json  # noqa: E402
from repro.netlist import random_circuit  # noqa: E402

ARMS = ("polish", "sp", "btree")


def _schedule_steps(schedule: GeometricSchedule) -> int:
    """The schedule's step count (independent of the starting
    temperature: freezing is ratio-based)."""
    return sum(1 for _ in schedule.temperatures(1.0))


def _timed_run(driver):
    t0 = time.perf_counter()
    result = driver.run()
    return result, time.perf_counter() - t0


def bench_workload(name, n_modules, n_nets, smoke, seed=7):
    netlist = random_circuit(n_modules, n_nets, seed=seed)
    grid_size = max(math.sqrt(netlist.total_module_area) / 30.0, 1e-6)
    spec = ObjectiveSpec(gamma=1.0, congestion_grid_size=grid_size)
    moves = 2 * n_modules if smoke else 6 * n_modules
    schedule = GeometricSchedule(
        cooling_rate=0.85, freeze_ratio=(1e-2 if smoke else 1e-4)
    )
    steps = _schedule_steps(schedule)
    rounds = 2 if smoke else 3
    legs_per_round = len(ARMS)
    total_legs = rounds * legs_per_round

    # Full mode runs both drivers on the same worker count -- the
    # portfolio round width, capped at the machine's cores -- so neither
    # driver gets a parallelism edge; results are bit-identical at any
    # worker count (see the results_agree gate).
    workers = 1 if smoke else min(len(ARMS), os.cpu_count() or 1)
    base = dict(
        netlist=netlist,
        seed=seed,
        objective_spec=spec,
        moves_per_temperature=moves,
        schedule=schedule,
        workers=workers,
    )

    multistart, ms_wall = _timed_run(
        make_driver(
            "multistart", DriverConfig(restarts=total_legs, **base)
        )
    )
    portfolio, pf_wall = _timed_run(
        make_driver(
            "portfolio",
            DriverConfig(
                restarts=legs_per_round,
                rounds=rounds,
                representations=ARMS,
                **base,
            ),
        )
    )

    ms_moves = sum(r.n_moves for r in multistart.results)
    pf_moves = sum(r.n_moves for r in portfolio.results)
    # Scheduled budgets are identical by construction (same legs, same
    # schedule, same moves-per-temperature); executed moves may differ
    # by a hair because some representations skip degenerate moves
    # (e.g. a B*-tree op with no effect), so gate with a 2% tolerance.
    scheduled = total_legs * steps * moves
    equal_budget = abs(ms_moves - pf_moves) <= 0.02 * scheduled

    improvement = (
        (multistart.best_cost - portfolio.best_cost) / multistart.best_cost
    )

    row = {
        "name": name,
        "modules": n_modules,
        "nets": n_nets,
        "congestion_grid_size": round(grid_size, 3),
        "legs": total_legs,
        "workers": workers,
        "schedule_steps": steps,
        "moves_per_temperature": moves,
        "scheduled_moves_per_driver": scheduled,
        "multistart_moves": ms_moves,
        "portfolio_moves": pf_moves,
        "equal_budget": equal_budget,
        "multistart_wall_seconds": round(ms_wall, 3),
        "portfolio_wall_seconds": round(pf_wall, 3),
        "multistart_best_cost": multistart.best_cost,
        "portfolio_best_cost": portfolio.best_cost,
        "portfolio_best_representation": portfolio.best.representation,
        "portfolio_improvement_pct": round(100.0 * improvement, 3),
        "portfolio_beats_multistart": (
            portfolio.best_cost <= multistart.best_cost
        ),
        "arm_bests": {
            arm: min(
                (r.cost for r in portfolio.results
                 if r.representation == arm),
                default=None,
            )
            for arm in ARMS
        },
    }
    print(
        f"{name}: multistart {multistart.best_cost:.4f} "
        f"({ms_wall:.1f}s) vs portfolio {portfolio.best_cost:.4f} "
        f"({pf_wall:.1f}s, won by {row['portfolio_best_representation']}); "
        f"improvement {row['portfolio_improvement_pct']:+.2f}%"
    )
    return row


def parity_and_strict_checks(smoke, seed=7):
    """Cheap correctness gates on a reduced workload."""
    netlist = random_circuit(12, 40, seed=seed)
    grid_size = max(math.sqrt(netlist.total_module_area) / 30.0, 1e-6)
    schedule = GeometricSchedule(cooling_rate=0.8, freeze_ratio=1e-2)
    base = dict(
        netlist=netlist,
        restarts=3,
        rounds=2,
        seed=seed,
        moves_per_temperature=20,
        schedule=schedule,
    )

    spec = ObjectiveSpec(gamma=1.0, congestion_grid_size=grid_size)
    sequential = make_driver(
        "portfolio", DriverConfig(objective_spec=spec, workers=1, **base)
    ).run()
    pooled = make_driver(
        "portfolio", DriverConfig(objective_spec=spec, workers=2, **base)
    ).run()
    results_agree = (
        sequential.best_cost == pooled.best_cost
        and sequential.costs == pooled.costs
        and sequential.ledger == pooled.ledger
    )

    strict_spec = ObjectiveSpec(
        gamma=1.0, congestion_grid_size=grid_size, strict_incremental=True
    )
    strict_ok = True
    try:
        make_driver(
            "portfolio", DriverConfig(objective_spec=strict_spec, **base)
        ).run()
    except AssertionError as exc:
        strict_ok = False
        print(f"  STRICT-MODE FAILURE: {exc}", file=sys.stderr)
    return results_agree, strict_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced schedule; exit non-zero on gate violations (CI mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_portfolio.json in the "
        "repository root; smoke mode defaults to not writing)",
    )
    args = parser.parse_args(argv)

    results_agree, strict_ok = parity_and_strict_checks(args.smoke)
    workloads = [("ami33-scale", 33, 120), ("ami49-scale", 49, 200)]
    rows = [
        bench_workload(name, m, n, smoke=args.smoke)
        for name, m, n in workloads
    ]

    payload = {
        "benchmark": "portfolio driver vs best-of-N multistart",
        "smoke": args.smoke,
        "workloads": rows,
        "equal_budget": all(r["equal_budget"] for r in rows),
        "results_agree": results_agree,
        "strict_ok": strict_ok,
        "portfolio_beats_multistart_at_scale": next(
            r["portfolio_beats_multistart"]
            for r in rows
            if r["name"] == "ami49-scale"
        ),
    }

    out = args.out
    if out is None and not args.smoke:
        out = Path(__file__).resolve().parent.parent / "BENCH_portfolio.json"
    if out is not None:
        atomic_write_json(out, payload)
        print(f"wrote {out}")

    failures = []
    if not payload["equal_budget"]:
        failures.append("multistart and portfolio move budgets differ")
    if not payload["results_agree"]:
        failures.append("portfolio is not pool/sequential deterministic")
    if not payload["strict_ok"]:
        failures.append("strict-mode delta/full agreement failed")
    if not payload["portfolio_beats_multistart_at_scale"]:
        failures.append(
            "portfolio lost to equal-budget multistart on ami49-scale"
        )
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
