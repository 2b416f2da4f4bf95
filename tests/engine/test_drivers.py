"""Search-driver layer: driver table, parity, resume, ledgers, reports.

The driver contracts under test:

* every driver produces **bit-identical** results sequentially and on
  a process pool (strict-parity walks run with
  ``strict_incremental=True``, so any full-vs-delta divergence raises
  inside the run);
* the portfolio **resumes bit-identically** from a round-boundary
  driver checkpoint -- same allocation decisions, same final costs;
* :class:`RunReport` / :class:`RestartFailure` round-trip **losslessly**
  through ``to_json`` / ``from_json`` and
  :func:`~repro.ioutil.atomic_write_json`.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.anneal import GeometricSchedule
from repro.engine import (
    DriverConfig,
    ObjectiveSpec,
    RestartFailure,
    RunControl,
    RunReport,
    available_drivers,
    driver_descriptions,
    load_checkpoint,
    load_driver_checkpoint,
    make_driver,
    peek_checkpoint,
    resume_driver,
)
from repro.errors import CheckpointError
from repro.ioutil import atomic_write_json
from repro.netlist import random_circuit


@pytest.fixture(scope="module")
def netlist():
    return random_circuit(8, 20, seed=3)


def _config(netlist, **overrides):
    """A small but real driver config: congestion on, strict parity
    checking inside every evaluation, enough moves to matter."""
    defaults = dict(
        netlist=netlist,
        restarts=3,
        rounds=2,
        seed=1,
        objective_spec=ObjectiveSpec(
            gamma=1.0,
            pin_grid_size=30.0,
            congestion_grid_size=30.0,
            strict_incremental=True,
        ),
        moves_per_temperature=35,
        schedule=GeometricSchedule(
            cooling_rate=0.85, freeze_ratio=1e-3, max_steps=30
        ),
    )
    defaults.update(overrides)
    return DriverConfig(**defaults)


class TestRegistry:
    def test_builtins_registered(self):
        assert available_drivers() == ("multistart", "portfolio")

    def test_descriptions_cover_every_driver(self):
        descriptions = driver_descriptions()
        assert set(descriptions) == set(available_drivers())
        assert all(descriptions.values())

    def test_unknown_driver(self, netlist):
        with pytest.raises(ValueError, match="unknown driver"):
            make_driver("genetic", _config(netlist))

    def test_config_validation(self, netlist):
        with pytest.raises(ValueError, match="rounds"):
            _config(netlist, rounds=0)
        with pytest.raises(ValueError, match="t0_decay"):
            _config(netlist, t0_decay=1.5)
        with pytest.raises(ValueError, match="representations"):
            _config(netlist, representations=())


class TestMultiStartDriver:
    def test_refuses_resume_state(self, netlist):
        with pytest.raises(ValueError, match="no driver-level schedule"):
            make_driver("multistart", _config(netlist)).run(
                resume_state={"round": 1}
            )


class TestDriverParity:
    """200+ strict-checked moves per driver, sequential == pooled."""

    @pytest.mark.parametrize("name", ["multistart", "portfolio"])
    def test_sequential_equals_pool(self, netlist, name):
        sequential = make_driver(name, _config(netlist, workers=1)).run()
        pooled = make_driver(name, _config(netlist, workers=2)).run()
        assert sum(r.n_moves for r in sequential.results) >= 200
        assert sequential.best_cost == pooled.best_cost
        assert sequential.costs == pooled.costs
        assert sequential.ledger == pooled.ledger
        assert [r.seed for r in sequential.results] == [
            r.seed for r in pooled.results
        ]

    def test_portfolio_allocation_decisions_identical(self, netlist):
        sequential = make_driver("portfolio", _config(netlist, workers=1)).run()
        pooled = make_driver("portfolio", _config(netlist, workers=2)).run()
        # The full ledger -- slots, kinds, seeds, per-leg costs -- must
        # agree, not just the winner.
        assert sequential.ledger["rounds"] == pooled.ledger["rounds"]


class TestDriverResume:
    @pytest.mark.parametrize("name", ["portfolio"])
    def test_resume_matches_straight_run(self, netlist, tmp_path, name):
        straight = make_driver(name, _config(netlist, rounds=3)).run()
        path = tmp_path / f"{name}.ckpt"
        make_driver(
            name, _config(netlist, rounds=2, checkpoint_path=str(path))
        ).run()
        driver, state = resume_driver(path, rounds=3)
        resumed = driver.run(resume_state=state)
        assert resumed.best_cost == straight.best_cost
        assert resumed.costs == straight.costs
        assert resumed.ledger == straight.ledger

    def test_resume_under_different_worker_count(self, netlist, tmp_path):
        straight = make_driver("portfolio", _config(netlist, rounds=3)).run()
        path = tmp_path / "p.ckpt"
        make_driver(
            "portfolio",
            _config(netlist, rounds=2, checkpoint_path=str(path), workers=2),
        ).run()
        driver, state = resume_driver(path, workers=1, rounds=3)
        resumed = driver.run(resume_state=state)
        assert resumed.best_cost == straight.best_cost
        assert resumed.ledger == straight.ledger

    def test_resumes_checkpoint_of_rect_dict_floorplans(self, tmp_path):
        """``data/portfolio_pre_columnar.ckpt`` was written before
        floorplans became columnar, so its results pickle each
        ``Floorplan`` as a name -> Rect dict.  It is this module's
        ``_config`` without strict checking, ``rounds=2``.  Resumed to
        three rounds it gives the costs that build's resume gave."""
        source = Path(__file__).parent / "data" / "portfolio_pre_columnar.ckpt"
        assert b"_placements" in source.read_bytes()
        checkpoint = load_driver_checkpoint(source)
        for result in checkpoint.state["results"]:
            assert result.floorplan.x_lo.size == 8
            result.floorplan.validate()
        config = replace(
            checkpoint.config,
            rounds=3,
            checkpoint_path=str(tmp_path / "p.ckpt"),
        )
        resumed = make_driver(checkpoint.driver, config).run(
            resume_state=checkpoint.state
        )
        assert resumed.costs == [
            2.2672300517688813, 2.3357844009395805, 2.3650956815200574,
            2.22260442176506, 2.2935268267130944, 2.2747330565193087,
            2.123991257170606, 2.3471607772851084, 2.432256160985844,
        ]
        straight = make_driver(
            "portfolio", replace(checkpoint.config, rounds=3, checkpoint_path=None)
        ).run()
        assert resumed.costs == straight.costs
        assert resumed.ledger == straight.ledger

    def test_checkpoint_stores_driver_name(self, netlist, tmp_path):
        path = tmp_path / "p.ckpt"
        make_driver(
            "portfolio", _config(netlist, checkpoint_path=str(path))
        ).run()
        checkpoint = load_driver_checkpoint(path)
        assert checkpoint.driver == "portfolio"
        assert checkpoint.config.restarts == 3
        assert checkpoint.state["round"] == 2

    def test_engine_checkpoint_refused_by_driver_loader(
        self, netlist, tmp_path
    ):
        from repro.engine import AnnealEngine

        path = tmp_path / "engine.ckpt"
        engine = AnnealEngine(
            netlist,
            objective_spec=ObjectiveSpec(pin_grid_size=30.0),
            moves_per_temperature=5,
        )
        control = RunControl(checkpoint_path=path)
        engine.run(control=control)
        with pytest.raises(CheckpointError, match="not a repro driver"):
            load_driver_checkpoint(path)

    def test_driver_checkpoint_refused_by_engine_loader(
        self, netlist, tmp_path
    ):
        path = tmp_path / "driver.ckpt"
        make_driver(
            "portfolio", _config(netlist, checkpoint_path=str(path))
        ).run()
        with pytest.raises(
            CheckpointError, match="driver layer \\(--driver portfolio"
        ):
            load_checkpoint(path)


class TestRemovedTemperingDriver:
    """``data/tempering_removed.ckpt`` was written by the replica-
    exchange driver before its removal (``random_circuit(8, 16,
    seed=3)``, 2 rounds, a checkpoint every round).  Every loader names
    the removal instead of calling the file corrupt."""

    SOURCE = Path(__file__).parent / "data" / "tempering_removed.ckpt"

    @pytest.mark.parametrize(
        "load",
        [load_driver_checkpoint, peek_checkpoint, resume_driver, load_checkpoint],
        ids=lambda load: load.__name__,
    )
    def test_loader_names_the_removal(self, load):
        with pytest.raises(
            CheckpointError, match="tempering driver, which has been removed"
        ):
            load(self.SOURCE)


class TestPortfolioBehavior:
    def test_round0_is_round_robin(self, netlist):
        result = make_driver("portfolio", _config(netlist, restarts=3)).run()
        round0 = result.ledger["rounds"][0]["legs"]
        assert [leg["arm"] for leg in round0] == ["polish", "sp", "btree"]
        assert all(leg["kind"] == "fresh" for leg in round0)

    def test_later_rounds_continue_and_migrate(self, netlist):
        result = make_driver(
            "portfolio", _config(netlist, restarts=6, rounds=2)
        ).run()
        round1 = result.ledger["rounds"][1]["legs"]
        kinds = {}
        for leg in round1:
            kinds.setdefault(leg["arm"], []).append(leg["kind"])
        for arm, arm_kinds in kinds.items():
            assert arm_kinds[0] == "continue"
            if len(arm_kinds) > 1:
                assert arm_kinds[1] == "migrate"

    def test_winners_get_surplus_slots(self, netlist):
        result = make_driver(
            "portfolio", _config(netlist, restarts=5, rounds=2)
        ).run()
        round1 = result.ledger["rounds"][1]
        slots = {}
        for leg in round1["legs"]:
            slots[leg["arm"]] = slots.get(leg["arm"], 0) + 1
        assert sum(slots.values()) == 5
        assert all(n >= 1 for n in slots.values())
        arm_costs = result.ledger["rounds"][0]["arm_best"]
        leaders = sorted(arm_costs, key=lambda a: (arm_costs[a], a))[:2]
        for leader in leaders:
            assert slots[leader] == 2

    def test_restarts_below_arm_count(self, netlist):
        result = make_driver(
            "portfolio", _config(netlist, restarts=2, rounds=2)
        ).run()
        round1 = result.ledger["rounds"][1]["legs"]
        assert len(round1) == 2


class TestRunReportRoundTrip:
    def _sample_reports(self):
        clean = RunReport(seed=7, status="ok", attempts=1, mode="pool")
        scarred = RunReport(
            seed=8,
            status="ok",
            attempts=3,
            mode="sequential",
            failures=[
                RestartFailure(0, "crash", "worker process died: boom"),
                RestartFailure(1, "timeout", "no result within 0.5s"),
            ],
            label="round 2 / btree / migrate",
        )
        failed = RunReport(
            seed=9,
            status="failed",
            attempts=2,
            failures=[
                RestartFailure(0, "error", "ValueError: bad"),
                RestartFailure(1, "error", "ValueError: bad"),
            ],
        )
        return [clean, scarred, failed]

    def test_to_from_json_is_lossless(self):
        for report in self._sample_reports():
            assert RunReport.from_json(report.to_json()) == report

    def test_failures_stay_structured(self):
        report = self._sample_reports()[1]
        payload = report.to_json()
        assert payload["failures"][0] == {
            "attempt": 0,
            "kind": "crash",
            "message": "worker process died: boom",
        }
        assert payload["label"] == "round 2 / btree / migrate"

    def test_round_trip_through_atomic_write_json(self, tmp_path):
        reports = self._sample_reports()
        path = tmp_path / "reports.json"
        atomic_write_json(path, {"reports": [r.to_json() for r in reports]})
        loaded = json.loads(path.read_text())
        assert [
            RunReport.from_json(r) for r in loaded["reports"]
        ] == reports

    def test_driver_reports_round_trip(self, netlist):
        result = make_driver("portfolio", _config(netlist)).run()
        for report in result.reports:
            assert RunReport.from_json(report.to_json()) == report
            json.dumps(report.to_json())  # JSON-serializable as-is
