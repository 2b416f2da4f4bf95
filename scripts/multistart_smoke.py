#!/usr/bin/env python
"""Multi-start determinism + supervision smoke test (CI).

Runs a small synthetic circuit through the ``multistart`` search
driver twice with the same seeds -- once sequentially (``workers=1``)
and once over a two-process pool (``workers=2``) -- and asserts the
per-restart costs and the winning restart are bit-identical.  Because every restart owns a
fresh :class:`CacheContext` and caches are value-transparent, the pool
must not change any result; a divergence means shared mutable state
leaked between restarts.

With ``--inject-crash``, the pooled run's first restart is killed with
``os._exit`` on its first attempt (via the deterministic fault harness
in :mod:`repro.testing.faults`); the supervisor must retry it, every
restart must still deliver the sequential run's exact costs, and the
crash must appear in the restart's :class:`RunReport`.

Exits non-zero on any mismatch.  ``--out`` writes a JSON summary
(atomically -- a killed run never leaves a truncated file).  Cheap
enough for CI (a few seconds).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import (  # noqa: E402
    DriverConfig,
    ObjectiveSpec,
    SearchDriver,
    make_driver,
)
from repro.ioutil import atomic_write_json  # noqa: E402
from repro.netlist import random_circuit  # noqa: E402
from repro.testing import FaultSpec  # noqa: E402


def run_smoke(
    representation: str,
    restarts: int,
    workers: int,
    inject_crash: bool = False,
    out: Path | None = None,
) -> int:
    netlist = random_circuit(10, 24, seed=3)
    spec = ObjectiveSpec(alpha=1.0, beta=1.0, gamma=0.0, pin_grid_size=30.0)
    first_seed = 11
    fault = (
        FaultSpec(kind="crash", seed=first_seed, attempt=0, mode="pool")
        if inject_crash
        else None
    )

    def driver(n_workers: int) -> SearchDriver:
        return make_driver(
            "multistart",
            DriverConfig(
                netlist,
                representation=representation,
                restarts=restarts,
                seed=first_seed,
                objective_spec=spec,
                moves_per_temperature=30,
                workers=n_workers,
                inject_fault=fault if n_workers > 1 else None,
                retry_backoff=0.0,
            ),
        )

    sequential = driver(1).run()
    pooled = driver(workers).run()

    seq_costs = [r.cost for r in sequential.results]
    pool_costs = [r.cost for r in pooled.results]
    print(f"sequential costs: {seq_costs}")
    print(f"pooled costs    : {pool_costs}")

    failures = []
    if seq_costs != pool_costs:
        failures.append("per-restart costs differ between workers=1 and pool")
    if sequential.best.seed != pooled.best.seed:
        failures.append(
            f"winning seed differs: sequential {sequential.best.seed} "
            f"vs pooled {pooled.best.seed}"
        )
    if sequential.best.cost != pooled.best.cost:
        failures.append("best cost differs between workers=1 and pool")
    if len({r.seed for r in sequential.results}) != restarts:
        failures.append("restart seeds are not distinct")
    if inject_crash:
        crashed = [
            rep
            for rep in pooled.reports
            if any(f.kind == "crash" for f in rep.failures)
        ]
        if not crashed:
            failures.append(
                "injected crash left no crash entry in any RunReport"
            )
        else:
            for rep in crashed:
                print(f"supervised: {rep.summary()}")
        if any(rep.status != "ok" for rep in pooled.reports):
            failures.append(
                "a restart did not recover from the injected crash: "
                + "; ".join(r.summary() for r in pooled.reports)
            )

    if out is not None:
        atomic_write_json(
            out,
            {
                "representation": representation,
                "restarts": restarts,
                "workers": workers,
                "inject_crash": inject_crash,
                "sequential_costs": seq_costs,
                "pooled_costs": pool_costs,
                "best_seed": sequential.best.seed,
                "best_cost": sequential.best.cost,
                "pool_rebuilds": pooled.pool_rebuilds,
                "degraded": pooled.degraded,
                "reports": [r.summary() for r in pooled.reports],
                "ok": not failures,
                "failures": failures,
            },
        )
        print(f"wrote {out}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(
        f"OK: {restarts} restarts x {representation!r} deterministic across "
        f"{workers} workers; best seed {sequential.best.seed} "
        f"cost {sequential.best.cost:.12g}"
        + (" (injected crash supervised)" if inject_crash else "")
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repr", dest="representation", default="polish",
                        choices=("polish", "sp", "btree"))
    parser.add_argument("--restarts", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--inject-crash",
        action="store_true",
        help="kill the pooled run's first restart on attempt 0 and "
        "require supervised recovery with identical results",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write a JSON summary here (atomic write-temp-then-rename)",
    )
    args = parser.parse_args(argv)
    return run_smoke(
        args.representation,
        args.restarts,
        args.workers,
        inject_crash=args.inject_crash,
        out=args.out,
    )


if __name__ == "__main__":
    sys.exit(main())
