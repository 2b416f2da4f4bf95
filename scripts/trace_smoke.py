#!/usr/bin/env python
"""Observability smoke test (CI): traced runs, schema, summarizer.

Three checks on a small synthetic circuit, all through the real CLI
(:func:`repro.cli.main`), cheap enough for CI:

* **Trace transparency.**  A ``--trace``/``--metrics-every`` run of
  each search driver (multistart and portfolio) must print exactly the
  untraced run's report -- observability may add its own "wrote
  trace" line but must never change a cost or an allocation
  decision.

* **Schema round-trip.**  Every line of both trace files must pass the
  strict :mod:`repro.obs.schema` validator, and the files must carry
  the driver's scheduling evidence: progress snapshots from every
  driver, completed restarts for multistart, round spans, leg plans
  and per-round allocations for the portfolio.

* **Summarizer.**  ``floorplan trace`` must render phase attribution
  and the convergence table from each file, and its ``--json`` image
  must agree with the validator's event count.

Exits non-zero on any mismatch.  ``--out`` writes a JSON summary
(atomically) with per-driver event counts and the summarizer images.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.data import write_yal  # noqa: E402
from repro.ioutil import atomic_write_json  # noqa: E402
from repro.netlist import random_circuit  # noqa: E402
from repro.obs import summarize_trace, validate_trace_file  # noqa: E402


def _run_cli(argv):
    """Run the CLI capturing stdout; raises on nonzero exit."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    output = buffer.getvalue()
    if code != 0:
        raise RuntimeError(f"cli {argv} exited {code}:\n{output}")
    return output


def _report_lines(output):
    """The run's deterministic report: every line except the trace
    pointer observability adds."""
    return [
        line
        for line in output.splitlines()
        if not line.startswith("wrote trace to ")
    ]


# Trace events each driver's scheduling must leave behind.
_REQUIRED_EVENTS = {
    "multistart": ("event:restart_complete",),
    "portfolio": ("span:round", "event:leg_planned", "event:allocation"),
}


def _check_driver(driver, circuit, trace_path, rounds, restarts, failures):
    base = [
        "floorplan", str(circuit), "--driver", driver,
        "--restarts", str(restarts), "--seed", "1",
    ]
    if driver == "portfolio":
        base += ["--rounds", str(rounds)]
    plain = _run_cli(base)
    traced = _run_cli(
        base + ["--trace", str(trace_path), "--metrics-every", "1"]
    )
    if _report_lines(plain) != _report_lines(traced):
        failures.append(
            f"{driver}: traced run changed the report\n"
            f"--- untraced ---\n{plain}\n--- traced ---\n{traced}"
        )

    n_events = validate_trace_file(trace_path)  # raises on schema breach
    summary = summarize_trace(trace_path)
    if summary.n_events != n_events:
        failures.append(
            f"{driver}: summarizer saw {summary.n_events} events, "
            f"validator {n_events}"
        )
    if not summary.progress:
        failures.append(f"{driver}: no progress snapshots reached the trace")
    for required in _REQUIRED_EVENTS[driver]:
        if required not in summary.event_counts:
            failures.append(f"{driver}: {required} missing from trace")

    rendered = _run_cli(["trace", str(trace_path)])
    for needle in ("phase time attribution", "convergence", "best cost"):
        if needle not in rendered:
            failures.append(
                f"{driver}: summary output lacks {needle!r}:\n{rendered}"
            )
    machine = json.loads(_run_cli(["trace", str(trace_path), "--json"]))
    if machine["n_events"] != n_events:
        failures.append(
            f"{driver}: --json n_events {machine['n_events']} != {n_events}"
        )
    return {"n_events": n_events, "summary": machine}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--restarts", type=int, default=3)
    parser.add_argument(
        "--out", type=Path, default=None, help="write a JSON report here"
    )
    args = parser.parse_args(argv)

    failures = []
    report = {"ok": False, "failures": failures}
    with TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        circuit = tmp / "tiny.yal"
        write_yal(random_circuit(8, 20, seed=3), circuit)
        for driver in ("multistart", "portfolio"):
            print(f"== {driver} ==")
            report[driver] = _check_driver(
                driver,
                circuit,
                tmp / f"{driver}.jsonl",
                args.rounds,
                args.restarts,
                failures,
            )
            print(
                f"{driver}: {report[driver]['n_events']} trace events, "
                f"{len(failures)} failure(s) so far"
            )
    report["ok"] = not failures
    if args.out is not None:
        atomic_write_json(args.out, report, indent=2)
        print(f"wrote {args.out}")
    if failures:
        print("TRACE SMOKE FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("trace smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
