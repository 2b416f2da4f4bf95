#!/usr/bin/env python
"""Congestion-evaluation scaling benchmark: 300 to 5000-module sweeps.

PR 9's question: after the committed-grid ledger makes congestion
re-estimation O(dirty), where do the remaining O(n) terms dominate as
synthetic workloads grow past the MCNC sizes?  For each workload the
script runs the same seeded annealing schedule twice through the
incremental pipeline:

* ``ledger on``: the default ``IrregularGridModel`` -- committed-grid
  ledger + vectorized memo lane;
* ``ledger off``: ``use_ledger=False`` -- every evaluation rebuilds the
  mass from scratch through the (also vectorized) full batch path.

The sweep uses the sequence-pair representation, the general
(non-slicing) floorplanner that FAST-SP packs in O(m log m), so it
shows which phase dominates once packing is no longer the wall.
The schedules are move-count-identical, so moves/sec is comparable
even if the walks diverge by float dust; correctness is gated by a
short strict-mode replay (``strict_incremental=True`` re-runs the full
object pipeline after every delta evaluation and asserts agreement to
1e-12) plus counter gates (the ledger delta path must actually fire),
never by wall-clock.

Phase attribution comes from the run's metrics registry, whose
timers record self (exclusive) time: ``phases`` lists every timer the
ledger-on run saw, ``layers`` sums them by name prefix (``congestion``
is ``congestion`` plus ``congestion.irgrid_build`` /
``congestion.mass_eval`` / ``congestion.scoring``), and
``unattributed_share`` is the part of the wall clock no timer covers,
``(wall - sum of self seconds) / wall``.

Results go to ``BENCH_congestion.json`` (see ``--out``)::

    {"workloads": [{"name": "n300", "modules": 300,
                    "ledger_moves_per_sec": ..., "full_moves_per_sec": ...,
                    "ledger_speedup": ..., "phases": {"anneal": {...},
                    "congestion.mass_eval": {...}, ...},
                    "layers": {"congestion": ..., ...},
                    "ledger_counters": {...},
                    "dominant_phase": "congestion",
                    "unattributed_share": ..., ...}, ...],
     "strict_ok": true, "ledger_fired": true}

The full run adds 1000/2000/5000-module workloads (4 nets per
module).  ``ledger_counters`` splits the grid rebuilds:
``congestion_outline_rebuilt`` counts the evaluations whose dirty set
the pipeline withheld because the chip outline changed.  ``--smoke``
runs the 300-module workload on a reduced schedule, once with sequence
pairs and once with B*-trees (the representation with the most full
rebuilds, ``n300-btree``), and exits non-zero
when the strict replay or a counter gate fails (including outline
rebuilds outnumbering grid rebuilds), or when ``unattributed_share``
leaves [0, 0.05] (time outside every timer, or counted twice) --
cheap enough for CI and timing-robust.
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

# Largest share of a run's wall clock that may fall outside every
# timer before --smoke fails.
MAX_UNATTRIBUTED_SHARE = 0.05


def _objective(netlist, grid_size: float, use_ledger: bool,
               strict: bool = False) -> FloorplanObjective:
    return FloorplanObjective(
        netlist,
        alpha=1.0,
        beta=1.0,
        gamma=1.0,
        congestion_model=IrregularGridModel(
            grid_size, use_cache=True, use_ledger=use_ledger
        ),
        incremental=True,
        strict_incremental=strict,
    )


def _run(netlist, grid_size, use_ledger, moves_per_temperature, schedule,
         seed, representation, strict=False):
    engine = AnnealEngine(
        netlist,
        objective=_objective(netlist, grid_size, use_ledger, strict),
        representation=representation,
        seed=seed,
        moves_per_temperature=moves_per_temperature,
        schedule=schedule,
        calibrate=False,
    )
    t0 = time.perf_counter()
    result = engine.run()
    wall = time.perf_counter() - t0
    return result, wall


def bench_workload(name, n_modules, n_nets, representation, smoke, seed=7):
    netlist = random_circuit(n_modules, n_nets, seed=seed)
    grid_size = max(math.sqrt(netlist.total_module_area) / 30.0, 1e-6)
    moves = 30 if smoke else 40
    schedule = GeometricSchedule(
        cooling_rate=(0.5 if smoke else 0.7),
        freeze_ratio=(0.5 if smoke else 0.1),
    )

    on_result, on_wall = _run(
        netlist, grid_size, use_ledger=True,
        moves_per_temperature=moves, schedule=schedule, seed=seed,
        representation=representation,
    )
    off_result, off_wall = _run(
        netlist, grid_size, use_ledger=False,
        moves_per_temperature=moves, schedule=schedule, seed=seed,
        representation=representation,
    )

    # Short strict replay: every delta evaluation re-checked against the
    # full object pipeline (AssertionError on >1e-12 divergence).
    strict_ok = True
    try:
        _run(
            netlist, grid_size, use_ledger=True,
            moves_per_temperature=min(moves, 20),
            schedule=GeometricSchedule(cooling_rate=0.5, freeze_ratio=0.5),
            seed=seed, representation=representation, strict=True,
        )
    except AssertionError as exc:
        strict_ok = False
        print(f"  STRICT-MODE FAILURE: {exc}", file=sys.stderr)

    counters = on_result.perf.counters
    ledger_counters = {
        key: counters.get(key, 0)
        for key in (
            "ledger_hits",
            "congestion_delta",
            "congestion_grid_rebuilt",
            "congestion_outline_rebuilt",
            "congestion_skipped",
            "nets_redone",
            "evaluations",
        )
    }
    timers = on_result.perf.timers
    phases = {
        pname: {
            "self_seconds": round(stat.seconds, 4),
            "calls": stat.calls,
            "ms_per_call": round(stat.ms_per_call, 3),
        }
        for pname, stat in sorted(timers.items())
    }
    layers = {}
    for pname, stat in timers.items():
        layer = pname.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + stat.seconds
    dominant = max(layers, key=layers.get) if layers else ""
    attributed = sum(stat.seconds for stat in timers.values())

    row = {
        "name": name,
        "representation": representation,
        "modules": n_modules,
        "nets": n_nets,
        "moves": on_result.n_moves,
        "ledger_wall_seconds": round(on_wall, 3),
        "full_wall_seconds": round(off_wall, 3),
        "ledger_moves_per_sec": round(on_result.n_moves / on_wall, 2),
        "full_moves_per_sec": round(off_result.n_moves / off_wall, 2),
        "ledger_speedup": round(off_wall / on_wall, 3),
        "ledger_best_cost": on_result.cost,
        "full_best_cost": off_result.cost,
        "costs_close": math.isclose(
            on_result.cost, off_result.cost, rel_tol=1e-6, abs_tol=1e-6
        ),
        "strict_ok": strict_ok,
        "ledger_counters": ledger_counters,
        "phases": phases,
        "layers": {
            layer: round(seconds, 4)
            for layer, seconds in sorted(layers.items())
        },
        "dominant_phase": dominant,
        "congestion_share": round(layers.get("congestion", 0.0) / on_wall, 4),
        "unattributed_share": round((on_wall - attributed) / on_wall, 6),
    }
    print(
        f"{name}: ledger {row['ledger_moves_per_sec']:.1f} moves/s, "
        f"full {row['full_moves_per_sec']:.1f} moves/s "
        f"(x{row['ledger_speedup']:.2f}), delta evals "
        f"{ledger_counters['congestion_delta']}/"
        f"{ledger_counters['congestion_delta'] + ledger_counters['congestion_grid_rebuilt']} "
        f"({ledger_counters['congestion_outline_rebuilt']} rebuilds for an "
        f"outline change), "
        f"dominant phase {dominant} "
        f"({100.0 * row['congestion_share']:.1f}% congestion, "
        f"{100.0 * row['unattributed_share']:.3f}% unattributed), "
        f"strict={strict_ok}"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="300-module workloads only (sp and btree), reduced "
        "schedule; exit non-zero when the strict replay, a counter gate "
        "or the unattributed-time gate fails (CI mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_congestion.json in the "
        "repository root; smoke mode defaults to not writing)",
    )
    args = parser.parse_args(argv)

    workloads = [("n300", 300, 1200, "sp")]
    if args.smoke:
        workloads += [("n300-btree", 300, 1200, "btree")]
    else:
        workloads += [
            ("n1000", 1000, 4000, "sp"),
            ("n2000", 2000, 8000, "sp"),
            ("n5000", 5000, 20000, "sp"),
        ]
    rows = [
        bench_workload(name, m, n, rep, smoke=args.smoke)
        for name, m, n, rep in workloads
    ]

    payload = {
        "benchmark": "congestion evaluation scaling",
        "smoke": args.smoke,
        "workloads": rows,
        "strict_ok": all(r["strict_ok"] for r in rows),
        "ledger_fired": all(
            r["ledger_counters"]["congestion_delta"] > 0 for r in rows
        ),
        "min_ledger_speedup": min(r["ledger_speedup"] for r in rows),
        "max_unattributed_share": max(
            r["unattributed_share"] for r in rows
        ),
    }

    out = args.out
    if out is None and not args.smoke:
        out = Path(__file__).resolve().parent.parent / "BENCH_congestion.json"
    if out is not None:
        atomic_write_json(out, payload)
        print(f"wrote {out}")

    # Counter gates plus one ratio of two clocks read in the same run --
    # never absolute wall-clock, so CI stays timing-robust.
    failures = []
    if not payload["strict_ok"]:
        failures.append("strict-mode ledger/full agreement failed")
    if not payload["ledger_fired"]:
        failures.append(
            "ledger delta path never fired (congestion_delta == 0)"
        )
    # Every evaluation that withholds the dirty set for a changed
    # outline rebuilds the grid, so the first count bounds the second.
    for r in rows:
        c = r["ledger_counters"]
        if (
            args.smoke
            and c["congestion_outline_rebuilt"] > c["congestion_grid_rebuilt"]
        ):
            failures.append(
                f"{r['name']}: {c['congestion_outline_rebuilt']} outline "
                f"rebuilds exceed {c['congestion_grid_rebuilt']} grid rebuilds"
            )
    # Self times add up to the root span, which sits inside the wall
    # clock: a negative share means some time was counted twice.
    shares = [r["unattributed_share"] for r in rows]
    if args.smoke and not (
        0.0 <= min(shares) and max(shares) <= MAX_UNATTRIBUTED_SHARE
    ):
        failures.append(
            f"unattributed share {shares} outside "
            f"[0, {MAX_UNATTRIBUTED_SHARE}] (wall time outside every "
            f"timer, or counted twice)"
        )
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
