#!/usr/bin/env python3
"""Repeat benchmark workloads and report how steady each metric is.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --first-seed 1 \\
        --workloads sp-1000 ami49-portfolio service-mix

Each run is ``perfbench/run.py`` with its own seed (``first-seed``,
``first-seed + 1``, ...).  For every end-to-end metric the runner
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread -- the distance
between the quartiles as a share of the median -- and flags a spread
above the metric's bound in ``BENCHMARK.json`` (``!!``) or above a
third of it (``~``).  It exits non-zero when a run fails or a spread
other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """``(median, q1, q3, (q3 - q1) / median)`` of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's metrics here as JSON")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, failed = {}, False
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds, 0)
            failed |= not result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        report[workload] = values
        print(f"\n{workload} ({args.runs} runs)")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            median, q1, q3, share = spread(vals)
            bound = bounds[name]
            flag = "!!" if share > bound else ("~" if share > bound / 3 else "")
            if share > bound and name != "setup_s":
                failed = True
            print(f"  {name:<18} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{share:>8.4f} {bound:>6} {flag}")
        print(flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
