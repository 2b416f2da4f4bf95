"""Tests of the benchmark itself, on tiny inputs (about a minute).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

TINY_SP = wl.SpConfig(
    modules=12, nets=20, moves_per_temperature=6, steps=2, replay_moves=4,
    job_seconds=1.0, chunk_moves=2,
)
TINY_PORTFOLIO = wl.PortfolioConfig(
    circuit="apte", restarts=6, rounds=2, moves_per_temperature=4, steps=2,
    replay_moves=4, job_seconds=1.0, chunk_moves=4,
)
TINY_SERVICE = wl.ServiceConfig(
    modules=6, nets=8, max_steps=2, moves_per_temperature=5, rate=8.0,
    duplicate_every=3, duplicate_lag=4, burst_jobs=3,
    bursts=1, direct_checks=1, setup_repeats=2,
)


# -- the contract ----------------------------------------------------------


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert name.match(w["name"]) and w["name"] not in seen
        seen.add(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        assert m["name"] not in seen
        seen.add(m["name"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# -- span arithmetic --------------------------------------------------------


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_plus_unattributed_add_up_to_the_wall():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: _spin(0.002))

    def middle():
        _spin(0.001)
        leaf()
        leaf()

    outer = tracer.wrap("outer", lambda: (tracer.wrap("middle", middle)(),
                                          _spin(0.001)))
    with tracer.region():
        outer()
        _spin(0.002)  # inside the region, outside every span
    table = spans.attribute(tracer.spans, tracer.wall_s)
    total = sum(row["self_s"] for row in table.values())
    assert math.isclose(total, tracer.wall_s, rel_tol=1e-9)
    assert table["leaf"]["calls"] == 2
    assert table["unattributed"]["self_s"] >= 0.002
    by_name = {s.name: s for s in tracer.spans}
    middle_span = by_name["middle"]
    children = sum(s.duration for s in tracer.spans if s.parent is middle_span)
    assert math.isclose(
        middle_span.self_s, middle_span.duration - children, abs_tol=1e-12
    )
    assert by_name["leaf"].parent is middle_span


def test_install_patches_and_uninstall_restores():
    from repro.anneal.pipeline import PinStage
    from repro.engine import representation

    originals = (PinStage.compute, representation.pack_sequence_pair)
    tracer = spans.Tracer().install(spans.ENGINE_LAYERS)
    try:
        assert PinStage.compute is not originals[0]
        assert representation.pack_sequence_pair is not originals[1]
    finally:
        tracer.uninstall()
    assert (PinStage.compute, representation.pack_sequence_pair) == originals


def test_dump_writes_one_line_per_span(tmp_path):
    tracer = spans.Tracer()
    tracer.request_id = 7
    with tracer.region():
        tracer.wrap("a", lambda: tracer.wrap("b", lambda: None)())()
    tracer.dump(tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in
            (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [r["name"] for r in rows] == ["b", "a"]
    assert rows[0]["parent"] == 1 and rows[1]["parent"] is None
    assert all(r["request"] == 7 for r in rows)


# -- helpers ----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert wl.percentile(values, 0.5) == 50
    assert wl.percentile(values, 0.9) == 90
    assert wl.percentile([3.0], 0.9) == 3.0


def test_chunk_rates():
    assert wl.chunk_rates([0.0, 1.0, 2.0, 2.5, 3.0], 2) == [1.0, 2.0]


def test_scaled_divides_durations_and_multiplies_rates():
    out = wl.scaled({"setup_s": 8.0, "moves_per_s": 10.0}, 16.0, 0.5)
    assert out == pytest.approx({"setup_s": 2.0, "moves_per_s": 40.0})


def test_move_clock_skips_the_driver_begin():
    clock = wl.MoveClock(driver=True)
    clock.begin()  # the driver's
    assert clock.should_stop() is None  # a driver poll: ignored
    clock.begin()  # the first engine's
    clock.should_stop()
    clock.should_stop()
    clock.begin()  # the next leg: no gap across legs
    clock.should_stop()
    assert clock.first_move == clock.times[0]
    assert len(clock.times) == 3 and len(clock.intervals) == 1
    assert len(clock.host.samples) == 1


# -- workloads at tiny sizes ---------------------------------------------------


@pytest.fixture(scope="module")
def sp_traced():
    return wl.run_engine(1, 2.0, True, wl.sp_job, wl.sp_replay, TINY_SP)


@pytest.fixture(scope="module")
def portfolio_traced():
    return wl.run_engine(
        2, 1.0, True, wl.portfolio_job, wl.portfolio_replay, TINY_PORTFOLIO
    )


@pytest.fixture(scope="module")
def service_traced(tmp_path_factory):
    work = tmp_path_factory.mktemp("service")
    return wl.run_service(3, 2.0, True, work, TINY_SERVICE)


def test_engine_trace_adds_up_and_matches_untraced(sp_traced):
    outcome = sp_traced
    assert outcome.checks.failed == 0, outcome.checks.failures
    metrics = outcome.metrics
    total = sum(row["self_s"] for row in outcome.table.values())
    assert math.isclose(total, metrics["trace.wall_s"], rel_tol=1e-9)
    assert metrics["floorplan.realize.sp.calls"] > 0
    assert metrics["unattributed_s"] < 0.05 * metrics["trace.wall_s"]
    assert {s.request for s in outcome.tracer.spans} - {None}


def test_portfolio_trace_covers_every_arm_and_migration(portfolio_traced):
    outcome = portfolio_traced
    assert outcome.checks.failed == 0, outcome.checks.failures
    for arm in ("sp", "btree", "polish"):
        assert outcome.metrics[f"floorplan.realize.{arm}.calls"] > 0
    assert outcome.metrics["floorplan.convert.calls"] > 0
    assert outcome.metrics["engine.driver.self_s"] > 0


def test_untraced_engine_run_reports_every_end_to_end_metric():
    outcome = wl.run_engine(4, 1.0, False, wl.sp_job, wl.sp_replay, TINY_SP)
    assert outcome.checks.failed == 0, outcome.checks.failures
    assert set(outcome.metrics) == END_TO_END
    assert all(value > 0 for value in outcome.metrics.values())


def test_service_trace(service_traced):
    outcome = service_traced
    assert outcome.checks.failed == 0, outcome.checks.failures
    metrics = outcome.metrics
    assert metrics["service.journal.append.calls"] > 0
    assert metrics["service.fleet.batch.calls"] > 0
    assert metrics["service.cache_hit_ratio"] > 0
    assert outcome.provenance["oversubscribed"] is False


def test_traced_runs_cover_every_declared_layer_metric(
    sp_traced, portfolio_traced, service_traced
):
    produced = (
        set(sp_traced.metrics)
        | set(portfolio_traced.metrics)
        | set(service_traced.metrics)
    )
    assert produced == PER_LAYER


# -- injected wrong results ------------------------------------------------------


def test_overlapping_floorplan_fails_the_run(monkeypatch):
    from repro.floorplan.floorplan import Floorplan

    def broken(self):
        raise ValueError("injected overlap")

    monkeypatch.setattr(Floorplan, "validate", broken)
    outcome = wl.run_engine(5, 1.0, False, wl.sp_job, wl.sp_replay, TINY_SP)
    assert outcome.checks.failed > 0


def test_strict_replay_mismatch_fails_the_run(monkeypatch):
    from repro.anneal.pipeline import EvaluationPipeline

    def broken(self, floorplan, wl_, cgt):
        raise AssertionError("injected delta/full mismatch")

    monkeypatch.setattr(EvaluationPipeline, "_assert_delta_matches_full", broken)
    checks = wl.Checks()
    netlist, make_objective, rep = wl.sp_replay(1, TINY_SP)[0]
    wl.strict_replay(netlist, make_objective, rep, 1, 3, checks)
    assert checks.failed == 1


def test_wrong_service_result_fails_the_run(monkeypatch, tmp_path):
    monkeypatch.setattr(wl, "direct_result", lambda spec: {"wrong": True})
    outcome = wl.run_service(6, 1.0, False, tmp_path, TINY_SERVICE)
    assert outcome.checks.failed > 0


def test_main_exits_nonzero_and_reports_incorrect(monkeypatch, tmp_path, capsys):
    checks = wl.Checks()
    checks.check(False, "injected")
    metrics = {name: 1.0 for name in END_TO_END}
    monkeypatch.setattr(
        wl, "run_workload",
        lambda *args: wl.Outcome(metrics, checks, {}),
    )
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "sp-1000", "--seed", "1", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == 1
    assert set(last["metrics"]) == END_TO_END


def test_main_without_sources_exits_2_and_prints_no_result(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "sp-1000", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
