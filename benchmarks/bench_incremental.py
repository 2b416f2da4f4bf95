#!/usr/bin/env python
"""Benchmark the incremental annealing evaluator against the seed path.

For each workload (ami33/ami49-scale synthetic circuits) the script runs
the same seeded annealing schedule twice:

* ``seed``: ``incremental=False`` objective over an uncached congestion
  model -- the always-from-scratch evaluator the repository shipped
  with;
* ``fast``: the dirty-net delta path, the per-net congestion /
  placed-geometry memos, and the committed-grid congestion ledger
  (the defaults).

A third leg, ``noledger`` (``use_ledger=False``), carries the
identical-walk gate: its evaluator is bit-identical to the seed path
-- every cost term, including wirelength, now totals through the same
numpy pairwise reduction (see ``total_two_pin_length``) -- so the two
walks must traverse the same move sequence and land on the same best
cost (1e-9).  The ledger leg is *not* held to walk identity against
the seed: delta accumulation reorders float additions (~1e-14
relative), and over tens of thousands of moves that dust can
legitimately flip one Metropolis decision.  Its correctness gate is
the strict-mode replay (``strict_incremental=True``), which re-runs
the full pipeline after every delta evaluation and asserts agreement
to 1e-12.

A third replay of the fast run turns full observability on (JSONL
tracing, the metrics registry, progress snapshots with top-3
congestion densities every temperature step) and gates two properties:
the walk stays **bit-identical** (always), and the throughput cost
stays under the **5% overhead budget** (full mode only -- smoke
schedules are too short to time).

Results go to ``BENCH_incremental.json`` (see ``--out``)::

    {"workloads": [{"name": ..., "seed_moves_per_sec": ...,
                    "fast_moves_per_sec": ..., "speedup": ...,
                    "cache_hit_rates": {...}, ...}, ...],
     "min_speedup": ..., "strict_ok": true}

``--smoke`` runs a reduced schedule and exits non-zero when the cache
accounting is inconsistent or the two evaluators disagree -- cheap
enough for CI.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.anneal import FloorplanObjective  # noqa: E402
from repro.anneal.schedule import GeometricSchedule  # noqa: E402
from repro.congestion import IrregularGridModel  # noqa: E402
from repro.engine import AnnealEngine  # noqa: E402
from repro.ioutil import atomic_write_json  # noqa: E402
from repro.netlist import random_circuit  # noqa: E402


def _objective(netlist, grid_size: float, fast: bool, strict: bool = False,
               use_ledger: bool = True):
    return FloorplanObjective(
        netlist,
        alpha=1.0,
        beta=1.0,
        gamma=1.0,
        congestion_model=IrregularGridModel(
            grid_size, use_cache=fast, use_ledger=use_ledger
        ),
        incremental=fast,
        strict_incremental=strict,
    )


def _run(netlist, grid_size, fast, moves_per_temperature, schedule, seed,
         strict=False, observer=None, use_ledger=True):
    # Each run builds a fresh objective, whose engine-scoped CacheContext
    # starts empty -- no global cache state survives between runs.
    engine = AnnealEngine(
        netlist,
        objective=_objective(
            netlist, grid_size, fast, strict, use_ledger
        ),
        seed=seed,
        moves_per_temperature=moves_per_temperature,
        schedule=schedule,
    )
    t0 = time.perf_counter()
    result = engine.run(observer=observer)
    wall = time.perf_counter() - t0
    return result, wall


def bench_workload(name, n_modules, n_nets, smoke, seed=7):
    netlist = random_circuit(n_modules, n_nets, seed=seed)
    grid_size = max(math.sqrt(netlist.total_module_area) / 30.0, 1e-6)
    moves = 3 * n_modules if smoke else 10 * n_modules
    schedule = GeometricSchedule(
        cooling_rate=0.85, freeze_ratio=(1e-2 if smoke else 1e-4)
    )

    seed_result, seed_wall = _run(
        netlist, grid_size, fast=False,
        moves_per_temperature=moves, schedule=schedule, seed=seed,
    )
    fast_result, fast_wall = _run(
        netlist, grid_size, fast=True,
        moves_per_temperature=moves, schedule=schedule, seed=seed,
    )
    noledger_result, noledger_wall = _run(
        netlist, grid_size, fast=True,
        moves_per_temperature=moves, schedule=schedule, seed=seed,
        use_ledger=False,
    )
    stats = fast_result.cache_stats

    # Same seed + numerically identical evaluators => identical walks.
    # The ledger-off leg carries this gate; the ledger leg's delta
    # accumulation reorders float additions, so its walk may
    # legitimately diverge by one flipped Metropolis decision (its
    # correctness gate is the strict replay below).
    evals_seed = seed_result.perf.counters.get("evaluations", 0)
    evals_fast = noledger_result.perf.counters.get("evaluations", 0)
    agree = (
        evals_seed == evals_fast
        and seed_result.n_moves == noledger_result.n_moves
        and math.isclose(
            seed_result.cost, noledger_result.cost,
            rel_tol=1e-9, abs_tol=1e-9,
        )
    )

    # Short strict-mode replay: every delta evaluation re-checked
    # against the full pipeline (raises AssertionError on divergence).
    strict_schedule = GeometricSchedule(cooling_rate=0.5, freeze_ratio=0.1)
    strict_ok = True
    try:
        _run(
            netlist, grid_size, fast=True,
            moves_per_temperature=min(moves, n_modules),
            schedule=strict_schedule, seed=seed, strict=True,
        )
    except AssertionError as exc:
        strict_ok = False
        print(f"  STRICT-MODE FAILURE: {exc}", file=sys.stderr)

    # Observability-on replay of the fast run: full tracing + metrics +
    # progress sampling at the densest cadence (every temperature step,
    # top-3 congestion densities).  The walk must be bit-identical --
    # observer hooks sit strictly between moves and touch no RNG -- and
    # the throughput cost is the trace's overhead budget.
    import tempfile

    from repro.obs import RunObserver, Tracer

    with tempfile.TemporaryDirectory() as tmp:
        observer = RunObserver(
            tracer=Tracer(Path(tmp) / "bench.jsonl"),
            progress_every=1,
            progress_top_k=3,
        )
        obs_result, obs_wall = _run(
            netlist, grid_size, fast=True,
            moves_per_temperature=moves, schedule=schedule, seed=seed,
            observer=observer,
        )
        observer.finalize()
    obs_identical = (
        obs_result.n_moves == fast_result.n_moves
        and obs_result.n_accepted == fast_result.n_accepted
        and math.isclose(
            obs_result.cost, fast_result.cost, rel_tol=1e-12, abs_tol=1e-12
        )
    )
    obs_overhead_pct = round(100.0 * (obs_wall - fast_wall) / fast_wall, 2)

    hit_rates = {
        cname: round(s.hit_rate, 4) for cname, s in stats.items() if s.lookups
    }
    evictions = {
        cname: s.evictions for cname, s in stats.items() if s.lookups
    }
    accounting_ok = all(
        s.hits + s.misses == s.lookups and s.size <= s.maxsize
        for s in stats.values()
    )
    fast_counters = fast_result.perf.counters
    ledger_counters = {
        key: fast_counters.get(key, 0)
        for key in (
            "ledger_hits",
            "congestion_delta",
            "congestion_grid_rebuilt",
        )
    }

    row = {
        "name": name,
        "modules": n_modules,
        "nets": n_nets,
        "moves": fast_result.n_moves,
        "evaluations": evals_fast,
        "seed_wall_seconds": round(seed_wall, 3),
        "fast_wall_seconds": round(fast_wall, 3),
        "noledger_wall_seconds": round(noledger_wall, 3),
        "seed_moves_per_sec": round(seed_result.n_moves / seed_wall, 2),
        "fast_moves_per_sec": round(fast_result.n_moves / fast_wall, 2),
        "noledger_moves_per_sec": round(
            noledger_result.n_moves / noledger_wall, 2
        ),
        "speedup": round(seed_wall / fast_wall, 3),
        "ledger_gain": round(noledger_wall / fast_wall, 3),
        "seed_best_cost": seed_result.cost,
        "fast_best_cost": fast_result.cost,
        "noledger_best_cost": noledger_result.cost,
        "results_agree": agree,
        "strict_ok": strict_ok,
        "accounting_ok": accounting_ok,
        "cache_hit_rates": hit_rates,
        "cache_evictions": evictions,
        "ledger_counters": ledger_counters,
        "obs_wall_seconds": round(obs_wall, 3),
        "obs_moves_per_sec": round(obs_result.n_moves / obs_wall, 2),
        "obs_overhead_pct": obs_overhead_pct,
        "obs_walk_identical": obs_identical,
    }
    print(
        f"{name}: "
        f"seed {row['seed_moves_per_sec']:.1f} moves/s, "
        f"fast {row['fast_moves_per_sec']:.1f} moves/s "
        f"(no ledger {row['noledger_moves_per_sec']:.1f}), "
        f"speedup {row['speedup']:.2f}x "
        f"(ledger gain {row['ledger_gain']:.2f}x), "
        f"net_mass hit rate {hit_rates.get('net_mass', 0.0):.1%}, "
        f"exact_prob hit rate {hit_rates.get('exact_prob', 0.0):.1%}, "
        f"agree={agree} strict={strict_ok}, "
        f"obs overhead {obs_overhead_pct:+.1f}% "
        f"(identical={obs_identical}), "
        f"ledger {ledger_counters['congestion_delta']}/"
        f"{ledger_counters['congestion_delta'] + ledger_counters['congestion_grid_rebuilt']}"
        f" delta evals, evictions {sum(evictions.values())}"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced schedule; exit non-zero on accounting or agreement "
        "regressions (CI mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_incremental.json in the "
        "repository root; smoke mode defaults to not writing)",
    )
    args = parser.parse_args(argv)

    workloads = [("ami33-scale", 33, 120), ("ami49-scale", 49, 200)]
    rows = [
        bench_workload(name, m, n, smoke=args.smoke)
        for name, m, n in workloads
    ]

    payload = {
        "benchmark": "incremental annealing evaluation",
        "smoke": args.smoke,
        "workloads": rows,
        "min_speedup": min(r["speedup"] for r in rows),
        "strict_ok": all(r["strict_ok"] for r in rows),
        "results_agree": all(r["results_agree"] for r in rows),
        "accounting_ok": all(r["accounting_ok"] for r in rows),
        "obs_walk_identical": all(r["obs_walk_identical"] for r in rows),
        "max_obs_overhead_pct": max(r["obs_overhead_pct"] for r in rows),
    }

    out = args.out
    if out is None and not args.smoke:
        out = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"
    if out is not None:
        atomic_write_json(out, payload)
        print(f"wrote {out}")

    failures = []
    if not payload["accounting_ok"]:
        failures.append("cache hit/miss accounting is inconsistent")
    if not payload["results_agree"]:
        failures.append("incremental and seed evaluators disagree")
    if not payload["strict_ok"]:
        failures.append("strict-mode delta/full agreement failed")
    if not payload["obs_walk_identical"]:
        failures.append("observability-on walk diverged from the plain walk")
    # Throughput gate only on full-length runs; smoke schedules are too
    # short for wall-clock percentages to mean anything.
    if not args.smoke and payload["max_obs_overhead_pct"] >= 5.0:
        failures.append(
            "observability overhead "
            f"{payload['max_obs_overhead_pct']:.1f}% exceeds the 5% budget"
        )
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
