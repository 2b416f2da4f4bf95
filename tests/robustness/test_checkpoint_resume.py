"""Checkpoint/resume robustness: atomic files, validation, and the
bit-identical continuation guarantee.

The load-bearing property: a run that crashes mid-anneal and resumes
from its last checkpoint must finish *bit-identical* to the run that
never crashed -- same best cost, same move/acceptance counters, same
snapshot trace, same final RNG state.  The tests simulate the crash
with the deterministic :class:`~repro.testing.faults.FaultyObjective`
(raises at an exact evaluation ordinal) rather than timing games.
"""

import os
import pickle
import signal

import pytest

from repro.anneal.schedule import GeometricSchedule
from repro.engine import (
    AnnealEngine,
    Checkpoint,
    ObjectiveSpec,
    RunControl,
    install_signal_handlers,
    load_checkpoint,
    save_checkpoint,
)
from repro.engine.checkpoint import CHECKPOINT_VERSION, _MAGIC, LoopState
from repro.errors import CheckpointError
from repro.netlist import random_circuit
from repro.testing import FaultyObjective, InjectedFault

SHORT = GeometricSchedule(cooling_rate=0.5, freeze_ratio=0.1)
SPEC = ObjectiveSpec(alpha=1.0, beta=1.0, gamma=0.0, pin_grid_size=30.0)


def _netlist():
    return random_circuit(8, 20, seed=7)


def _engine(netlist, moves=125, **kwargs):
    kwargs.setdefault("representation", "polish")
    kwargs.setdefault("seed", 9)
    kwargs.setdefault("objective_spec", SPEC)
    kwargs.setdefault("moves_per_temperature", moves)
    kwargs.setdefault("schedule", SHORT)
    return AnnealEngine(netlist, **kwargs)


def _assert_bit_identical(resumed, straight):
    assert resumed.completed and straight.completed
    assert resumed.cost == straight.cost
    assert abs(resumed.cost - straight.cost) <= 1e-12
    assert resumed.n_moves == straight.n_moves
    assert resumed.n_accepted == straight.n_accepted
    assert resumed.rng_state == straight.rng_state
    assert [s.best_cost for s in resumed.snapshots] == [
        s.best_cost for s in straight.snapshots
    ]
    assert [s.current_cost for s in resumed.snapshots] == [
        s.current_cost for s in straight.snapshots
    ]


class TestCheckpointFile:
    def _checkpoint(self, netlist):
        return Checkpoint(
            representation="polish",
            seed=3,
            netlist=netlist,
            moves_per_temperature=10,
            schedule=SHORT,
            loop=LoopState(
                step=2,
                move=5,
                t0=1.5,
                rng_state=("x",),
                current="cur",
                current_eval=None,
                best="best",
                best_eval=None,
                n_moves=25,
                n_accepted=11,
            ),
            objective_spec=SPEC,
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        original = self._checkpoint(_netlist())
        save_checkpoint(path, original)
        loaded = load_checkpoint(path)
        assert loaded.representation == original.representation
        assert loaded.seed == original.seed
        assert loaded.moves_per_temperature == 10
        assert loaded.loop.step == 2 and loaded.loop.move == 5
        assert loaded.loop.n_moves == 25
        assert loaded.objective_spec == SPEC
        assert loaded.version == CHECKPOINT_VERSION

    def test_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, self._checkpoint(_netlist()))
        save_checkpoint(path, self._checkpoint(_netlist()))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        path.write_bytes(b"{\"not\": \"a checkpoint\"}")
        with pytest.raises(CheckpointError, match="not a repro"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, self._checkpoint(_netlist()))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        payload = pickle.dumps(self._checkpoint(_netlist()))
        path.write_bytes(_MAGIC + (99).to_bytes(4, "big") + payload)
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    def test_wrong_object_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        payload = pickle.dumps({"not": "a Checkpoint"})
        path.write_bytes(
            _MAGIC + CHECKPOINT_VERSION.to_bytes(4, "big") + payload
        )
        with pytest.raises(CheckpointError, match="does not contain"):
            load_checkpoint(path)


class TestResumeDeterminism:
    def test_crash_and_resume_is_bit_identical(self, tmp_path):
        """~500 moves straight vs. crash at evaluation 331 + resume."""
        netlist = _netlist()
        straight = _engine(netlist).run()

        ck = tmp_path / "run.ckpt"
        crashing = _engine(
            netlist,
            objective_factory=lambda nl, ctx: FaultyObjective(
                SPEC.build(nl, ctx), fail_at_evaluation=331
            ),
        )
        control = RunControl(checkpoint_path=ck, checkpoint_every=1)
        with pytest.raises(InjectedFault):
            crashing.run(control=control)

        # The crash hit mid-run: the last checkpoint is a step boundary
        # strictly inside the schedule, so resume has real work left.
        loaded = load_checkpoint(ck)
        assert 0 < loaded.loop.step <= 3
        assert loaded.loop.move == 0

        resumed_engine = AnnealEngine.resume(ck)
        assert resumed_engine.resuming
        resumed = resumed_engine.run()
        _assert_bit_identical(resumed, straight)

    def test_crash_and_resume_with_congestion_pipeline(self, tmp_path):
        """Same guarantee with gamma > 0 (congestion model + caches)."""
        spec = ObjectiveSpec(
            alpha=1.0, beta=1.0, gamma=1.0, congestion_grid_size=30.0
        )
        netlist = _netlist()
        straight = _engine(netlist, moves=30, objective_spec=spec).run()

        ck = tmp_path / "run.ckpt"
        crashing = _engine(
            netlist,
            moves=30,
            objective_spec=spec,
            objective_factory=lambda nl, ctx: FaultyObjective(
                spec.build(nl, ctx), fail_at_evaluation=80
            ),
        )
        control = RunControl(checkpoint_path=ck, checkpoint_every=1)
        with pytest.raises(InjectedFault):
            crashing.run(control=control)

        resumed = AnnealEngine.resume(ck).run()
        _assert_bit_identical(resumed, straight)

    def test_resume_of_finished_run_returns_result(self, tmp_path):
        ck = tmp_path / "run.ckpt"
        netlist = _netlist()
        control = RunControl(checkpoint_path=ck, checkpoint_every=1)
        finished = _engine(netlist, moves=20).run(control=control)
        assert finished.completed
        assert control.checkpoints_written > 0

        again = AnnealEngine.resume(ck).run()
        assert again.completed
        assert again.cost == finished.cost
        assert again.n_moves == finished.n_moves
        # No moves left: the loop body never runs again.
        assert again.rng_state == finished.rng_state

    def test_resume_with_wrong_objective_raises(self, tmp_path):
        ck = tmp_path / "run.ckpt"
        netlist = _netlist()
        control = RunControl(checkpoint_path=ck, checkpoint_every=1)
        crashing = _engine(
            netlist,
            moves=40,
            objective_factory=lambda nl, ctx: FaultyObjective(
                SPEC.build(nl, ctx), fail_at_evaluation=90
            ),
        )
        with pytest.raises(InjectedFault):
            crashing.run(control=control)
        assert ck.exists()

        different_physics = ObjectiveSpec(
            alpha=3.0, beta=1.0, gamma=0.0, pin_grid_size=30.0
        )
        with pytest.raises(CheckpointError, match="does not match"):
            AnnealEngine.resume(
                ck,
                objective_factory=lambda nl, ctx: different_physics.build(
                    nl, ctx
                ),
            ).run()


class TestGracefulStop:
    def test_deadline_stops_with_best_so_far(self, tmp_path):
        ck = tmp_path / "run.ckpt"
        netlist = _netlist()
        control = RunControl(
            deadline_seconds=0.15, checkpoint_path=ck, checkpoint_every=1
        )
        result = _engine(netlist, moves=4000).run(control=control)
        assert not result.completed
        assert result.stop_reason == "deadline"
        assert result.floorplan is not None
        assert result.cost > 0
        assert ck.exists()  # final checkpoint written on stop

    def test_sigint_checkpoints_and_resume_is_bit_identical(self, tmp_path):
        """First SIGINT -> cooperative stop with a checkpoint; resuming
        finishes bit-identical to the uninterrupted run."""
        netlist = _netlist()
        straight = _engine(netlist, moves=40).run()

        ck = tmp_path / "run.ckpt"
        control = RunControl(checkpoint_path=ck, checkpoint_every=1)
        fired = []

        def send_sigint(snapshot):
            if not fired:
                fired.append(snapshot.step)
                os.kill(os.getpid(), signal.SIGINT)

        with install_signal_handlers(control):
            stopped = _engine(netlist, moves=40).run(
                on_snapshot=send_sigint, control=control
            )
        assert fired == [0]
        assert not stopped.completed
        assert stopped.stop_reason == "signal"
        assert stopped.checkpoints_written >= 1

        resumed = AnnealEngine.resume(ck).run()
        _assert_bit_identical(resumed, straight)

    def test_stop_mid_step_checkpoint_resumes_bit_identical(self, tmp_path):
        """A stop landing mid-temperature-step records the exact unrun
        move; the resumed run still matches the straight run."""
        netlist = _netlist()
        straight = _engine(netlist, moves=40).run()

        ck = tmp_path / "run.ckpt"
        control = RunControl(checkpoint_path=ck, checkpoint_every=1)

        class MidStepStop(FaultyObjective):
            def evaluate_floorplan(self, floorplan):
                self.evaluations += 1
                # 31 calibration/t0 evaluations + 50 move evaluations:
                # stop lands inside step 1 (moves_per_temperature=40).
                if self.evaluations == 81:
                    control.request_stop("supervisor")
                return self.inner.evaluate_floorplan(floorplan)

        stopped = _engine(
            netlist,
            moves=40,
            objective_factory=lambda nl, ctx: MidStepStop(
                SPEC.build(nl, ctx), fail_at_evaluation=10**9
            ),
        ).run(control=control)
        assert not stopped.completed
        assert stopped.stop_reason == "supervisor"

        loaded = load_checkpoint(ck)
        assert loaded.loop.move > 0, "expected a mid-step checkpoint"

        resumed = AnnealEngine.resume(ck).run()
        _assert_bit_identical(resumed, straight)


class TestPeekCheckpoint:
    """`peek_checkpoint`: identify a file without rebuilding anything."""

    def _write_engine_checkpoint(self, tmp_path):
        ck = tmp_path / "run.ckpt"
        control = RunControl(checkpoint_path=ck, checkpoint_every=1)
        _engine(_netlist(), moves=25).run(control=control)
        return ck

    def test_peek_engine_checkpoint(self, tmp_path):
        from repro.engine import peek_checkpoint

        ck = self._write_engine_checkpoint(tmp_path)
        info = peek_checkpoint(ck)
        assert info.kind == "engine"
        assert info.version == CHECKPOINT_VERSION
        assert info.representation == "polish"
        assert info.seed == 9
        assert info.n_modules == 8
        assert info.completed_steps >= 1
        assert info.best_cost is not None
        line = info.summary()
        assert "engine checkpoint v1" in line
        assert "polish" in line and "8 modules" in line

    def test_peek_driver_checkpoint(self, tmp_path):
        from repro.engine import peek_checkpoint
        from repro.engine.checkpoint import (
            DriverCheckpoint,
            save_driver_checkpoint,
        )

        path = tmp_path / "driver.ckpt"
        save_driver_checkpoint(
            path,
            DriverCheckpoint(
                driver="portfolio", config={"rounds": 4}, state={"round": 2}
            ),
        )
        info = peek_checkpoint(path)
        assert info.kind == "driver"
        assert info.driver == "portfolio"
        assert "driver checkpoint v1 (portfolio)" in info.summary()

    def test_peek_rejects_non_checkpoints(self, tmp_path):
        from repro.engine import peek_checkpoint

        garbage = tmp_path / "garbage.ckpt"
        garbage.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            peek_checkpoint(garbage)
        with pytest.raises(CheckpointError, match="cannot read"):
            peek_checkpoint(tmp_path / "absent.ckpt")

    def test_resume_mismatch_error_names_format_and_engine(self, tmp_path):
        """The resume sanity check's error carries the checkpoint
        format version and the engine class, so a mismatch report is
        actionable without opening the file."""
        ck = self._write_engine_checkpoint(tmp_path)
        different_physics = ObjectiveSpec(
            alpha=3.0, beta=1.0, gamma=0.0, pin_grid_size=30.0
        )
        with pytest.raises(CheckpointError) as excinfo:
            AnnealEngine.resume(
                ck,
                objective_factory=lambda nl, ctx: different_physics.build(
                    nl, ctx
                ),
            ).run()
        message = str(excinfo.value)
        assert "does not match" in message
        assert "checkpoint format v1" in message
        assert "engine AnnealEngine" in message
        assert "representation polish" in message
