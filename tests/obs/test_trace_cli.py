"""The ``--trace`` flag and the ``floorplan trace`` subcommand.

End-to-end through :func:`repro.cli.main`: a traced run writes a
schema-valid JSONL file without changing the reported result, and the
``trace`` subcommand renders phase attribution, the convergence table
and the ASCII cost curve from it (``--json`` emits the machine image).
"""

import json
import os
from unittest import mock

import pytest

from repro.cli import main
from repro.data import write_yal
from repro.netlist import random_circuit
from repro.obs import summarize_trace, validate_trace_file


@pytest.fixture(autouse=True)
def smoke_profile():
    with mock.patch.dict(
        os.environ, {"REPRO_PROFILE": "smoke", "REPRO_SEEDS": "1"}
    ):
        yield


@pytest.fixture(scope="module")
def circuit_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("circuit") / "tiny.yal"
    write_yal(random_circuit(8, 20, seed=3), path)
    return path


def test_traced_run_matches_untraced(circuit_path, tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    assert main(["floorplan", str(circuit_path), "--seed", "1"]) == 0
    untraced = capsys.readouterr().out
    assert (
        main(
            [
                "floorplan", str(circuit_path), "--seed", "1",
                "--trace", str(trace), "--metrics-every", "2",
            ]
        )
        == 0
    )
    traced = capsys.readouterr().out
    assert f"wrote trace to {trace}" in traced
    # Same best result either way (the result lines differ only in
    # their wall clock).
    untraced_cost = untraced.split("judge ")[1].split(",")[0]
    traced_cost = traced.split("judge ")[1].split(",")[0]
    assert traced_cost == untraced_cost
    assert validate_trace_file(trace) > 0


def test_trace_subcommand_renders_summary(circuit_path, tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    assert (
        main(
            [
                "floorplan", str(circuit_path), "--seed", "1",
                "--trace", str(trace), "--metrics-every", "2",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "phase time attribution" in out
    assert "anneal" in out and "warmup" in out
    assert "convergence" in out
    assert "best cost" in out

    assert main(["trace", str(trace), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_events"] == validate_trace_file(trace)
    assert data["n_progress"] > 0
    assert data["metrics"]["counters"]["evaluations"] > 0
    # The JSON image agrees with the summarizer's own object.
    assert data == summarize_trace(trace).to_json()


def test_trace_subcommand_rejects_bad_input(tmp_path, capsys):
    with pytest.raises(SystemExit, match="no such trace file"):
        main(["trace", str(tmp_path / "missing.jsonl")])
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"not": "a trace"}\n')
    with pytest.raises(SystemExit, match="invalid trace file"):
        main(["trace", str(bad)])


def test_driver_run_traces_scheduling_ledger(circuit_path, tmp_path, capsys):
    trace = tmp_path / "portfolio.jsonl"
    assert (
        main(
            [
                "floorplan", str(circuit_path),
                "--driver", "portfolio", "--restarts", "6",
                "--rounds", "2", "--trace", str(trace),
                "--metrics-every", "1",
            ]
        )
        == 0
    )
    capsys.readouterr()
    summary = summarize_trace(trace)
    assert summary.migrations >= 1
    assert summary.event_counts["event:allocation"] == 2
    assert summary.progress  # leg snapshots reached the trace
    assert "span:round" in summary.event_counts
    assert main(["trace", str(trace)]) == 0
    assert "champion migrations" in capsys.readouterr().out
