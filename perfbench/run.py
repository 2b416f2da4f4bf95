#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sp-1000 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced work, prints the per-layer
table (self times plus ``unattributed_s`` add up to the traced wall
clock) and reports the per-layer metrics; the spans go to
``.perfbench/spans-<workload>-<seed>.jsonl``.  Either way the run checks
its outputs, prints provenance, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  It exits non-zero
when any check failed, and with status 2 when the source tree is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Pin BLAS/OpenMP pools to one thread before numpy loads; worker
# processes inherit the environment.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    try:
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        packed = ROOT / ".git" / "packed-refs"
        try:
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        except OSError:
            pass
    return None


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    from workloads import nproc

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def print_table(table: dict, wall_s: float) -> None:
    print(f"{'layer':<28} {'calls':>8} {'self_s':>10} {'share':>7}")
    total = 0.0
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        total += row["self_s"]
        share = row["self_s"] / wall_s if wall_s else 0.0
        print(
            f"{name:<28} {int(row['calls']):>8} {row['self_s']:>10.4f} "
            f"{100 * share:>6.1f}%"
        )
    print(f"{'sum (= traced wall)':<28} {'':>8} {total:>10.4f} {wall_s:>7.3f}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return 2

    from workloads import run_workload

    trace = bool(args.trace)
    started = time.perf_counter()
    outcome = run_workload(args.workload, args.seed, args.seconds, trace, ROOT)
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    checks = outcome.checks
    if trace:
        # A layer this workload never calls reads 0 calls and 0 s.
        for name in units:
            outcome.metrics.setdefault(name, 0)
    missing = sorted(set(units) - set(outcome.metrics))
    checks.check(not missing, f"metrics not measured: {missing}")

    record = provenance(args.workload, args.seed, args.seconds, trace)
    record.update(outcome.provenance)
    record["error_rate"] = checks.error_rate
    record["run_s"] = time.perf_counter() - started
    record["failures"] = checks.failures
    if trace:
        wall = outcome.metrics["trace.wall_s"]
        print_table(outcome.table, outcome.tracer.wall_s)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        outcome.tracer.dump(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["traced_wall_s"] = wall
    for name in units:
        if name in outcome.metrics:
            print(f"{name:<36} {outcome.metrics[name]:>14.6g} {units[name]}")
    print(f"{'error_rate':<36} {checks.error_rate:>14.6g} fraction "
          f"({checks.failed}/{checks.attempted} checks failed)")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    print("provenance " + json.dumps(record, default=str))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as f:
        json.dump({"provenance": record, "metrics": outcome.metrics}, f,
                  indent=1, default=str)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]}
            for name in units
            if name in outcome.metrics
        },
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
