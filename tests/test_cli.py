"""CLI smoke tests (everything through main() with tiny workloads)."""

import os
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def smoke_profile():
    with mock.patch.dict(os.environ, {"REPRO_PROFILE": "smoke", "REPRO_SEEDS": "1"}):
        yield


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCircuits:
    def test_lists_all(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        for name in ("apte", "xerox", "hp", "ami33", "ami49"):
            assert name in out


class TestGenerate:
    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "c.yal"
        assert main(
            ["generate", str(target), "--modules", "6", "--nets", "9"]
        ) == 0
        assert target.exists()
        from repro.data import read_yal

        nl = read_yal(target)
        assert nl.n_modules == 6
        assert nl.n_nets == 9

    def test_clustered_flag(self, tmp_path):
        target = tmp_path / "c.yal"
        assert main(["generate", str(target), "--clustered"]) == 0
        assert target.exists()


class TestFloorplan:
    def test_on_generated_circuit(self, tmp_path, capsys):
        target = tmp_path / "c.yal"
        main(["generate", str(target), "--modules", "5", "--nets", "6"])
        assert main(["floorplan", str(target), "--render"]) == 0
        out = capsys.readouterr().out
        assert "area" in out
        assert "+---" in out or "+-" in out  # ASCII border

    def test_svg_output(self, tmp_path):
        circuit = tmp_path / "c.yal"
        svg = tmp_path / "fp.svg"
        main(["generate", str(circuit), "--modules", "4", "--nets", "4"])
        assert main(["floorplan", str(circuit), "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")

    def test_missing_circuit_exits(self):
        with pytest.raises(SystemExit, match="neither"):
            main(["floorplan", "no_such_circuit"])


class TestEstimate:
    def test_irgrid_model(self, tmp_path, capsys):
        circuit = tmp_path / "c.yal"
        main(["generate", str(circuit), "--modules", "5", "--nets", "8"])
        assert main(["estimate", str(circuit), "--render"]) == 0
        out = capsys.readouterr().out
        assert "IR-grid model" in out
        assert "judging model" in out

    def test_fixed_model(self, tmp_path, capsys):
        circuit = tmp_path / "c.yal"
        main(["generate", str(circuit), "--modules", "5", "--nets", "8"])
        assert main(["estimate", str(circuit), "--model", "fixed"]) == 0
        assert "fixed-grid model" in capsys.readouterr().out


class TestGridSizeFlag:
    """A non-positive ``--grid-size`` ends in one ``error:`` line (exit
    status 1), not in a traceback from the model constructors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["floorplan", "ami33", "--gamma", "1", "--grid-size", "0"],
            ["estimate", "ami33", "--grid-size", "-5"],
        ],
    )
    def test_non_positive_grid_size_exits(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        message = str(info.value.code)
        assert message.startswith("error: --grid-size must be positive")
        assert "\n" not in message


class TestPinnedWalks:
    """The annealer's walk, pinned end to end: with ``--gamma 1 --seed
    3`` each representation prints exactly these ami33 metrics.  A
    refactor that moves one digit changed the walk (or a metric)."""

    @pytest.mark.parametrize(
        "representation, expected",
        [
            (
                "polish",
                "area 1.846 mm^2, wirelength 137010 um, "
                "congestion 0.001552, judge 2.147",
            ),
            (
                "sp",
                "area 2.218 mm^2, wirelength 120690 um, "
                "congestion 0.0012, judge 1.742",
            ),
            (
                "btree",
                "area 1.698 mm^2, wirelength 115148 um, "
                "congestion 0.001395, judge 2.086",
            ),
        ],
    )
    def test_result_line(self, capsys, representation, expected):
        argv = ["floorplan", "ami33", "--gamma", "1", "--seed", "3"]
        assert main(argv + ["--repr", representation]) == 0
        prefix = f"ami33 [{representation}, seed 3]: "
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(prefix)
        ]
        assert len(lines) == 1
        # Drop the wall-clock suffix (", 2.6 s"); everything else is
        # a pure function of the seed.
        assert lines[0].rsplit(", ", 1)[0] == prefix + expected


class TestFigure8:
    def test_prints_both_panels(self, capsys):
        assert main(["figure8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8 (b)" in out
        assert "Figure 8 (d)" in out
        assert "n/a" in out  # the error grid


class TestPlacementRoundTripThroughCli:
    def test_save_then_estimate(self, tmp_path, capsys):
        circuit = tmp_path / "c.yal"
        place = tmp_path / "fp.place"
        main(["generate", str(circuit), "--modules", "5", "--nets", "8"])
        assert main(
            ["floorplan", str(circuit), "--save-placement", str(place)]
        ) == 0
        assert place.exists()
        assert main(
            ["estimate", str(circuit), "--placement", str(place)]
        ) == 0
        out = capsys.readouterr().out
        assert "IR-grid model" in out


class TestFloorplanWithCongestionTerm:
    def test_gamma_enables_congestion(self, tmp_path, capsys):
        circuit = tmp_path / "c.yal"
        main(["generate", str(circuit), "--modules", "4", "--nets", "6"])
        assert main(["floorplan", str(circuit), "--gamma", "1.0"]) == 0
        out = capsys.readouterr().out
        # The congestion figure appears and is nonzero.
        assert "congestion" in out
        import re

        match = re.search(r"congestion ([0-9.e+-]+)", out)
        assert match and float(match.group(1)) > 0.0


class TestRegistryListing:
    def test_list_drivers(self, capsys):
        assert main(["floorplan", "--list-drivers"]) == 0
        out = capsys.readouterr().out
        for name in ("multistart", "portfolio"):
            assert name in out
        assert "representation race" in out

    def test_list_reprs(self, capsys):
        assert main(["floorplan", "--list-reprs"]) == 0
        out = capsys.readouterr().out
        for name in ("polish", "sp", "btree"):
            assert name in out
        assert "Polish" in out  # descriptions, not just keys

    def test_both_at_once(self, capsys):
        assert main(["floorplan", "--list-drivers", "--list-reprs"]) == 0
        out = capsys.readouterr().out
        assert "multistart" in out
        assert "btree" in out

    def test_no_circuit_and_no_flags_errors(self):
        with pytest.raises(SystemExit, match="circuit is required"):
            main(["floorplan"])


class TestDriverCli:
    def _circuit(self, tmp_path):
        target = tmp_path / "c.yal"
        main(["generate", str(target), "--modules", "4", "--nets", "6"])
        return target

    def test_portfolio_smoke(self, tmp_path, capsys):
        circuit = self._circuit(tmp_path)
        assert main(
            [
                "floorplan", str(circuit),
                "--driver", "portfolio",
                "--restarts", "3", "--rounds", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "[portfolio/" in out
        assert "arm bests:" in out

    def test_rounds_rejected_for_multistart(self, tmp_path):
        circuit = self._circuit(tmp_path)
        with pytest.raises(SystemExit, match="--rounds"):
            main(["floorplan", str(circuit), "--rounds", "3"])

    def test_driver_checkpoint_resume_roundtrip(self, tmp_path, capsys):
        circuit = self._circuit(tmp_path)
        ckpt = tmp_path / "drv.ckpt"
        assert main(
            [
                "floorplan", str(circuit),
                "--driver", "portfolio",
                "--restarts", "3", "--rounds", "1",
                "--checkpoint", str(ckpt),
            ]
        ) == 0
        assert ckpt.exists()
        capsys.readouterr()
        assert main(
            [
                "floorplan", str(circuit),
                "--driver", "portfolio",
                "--resume", str(ckpt), "--rounds", "2",
            ]
        ) == 0
        assert "[portfolio/" in capsys.readouterr().out


class TestFloorplanLanes:
    """``floorplan`` runs through two lanes: the search-driver lane for
    multi-job runs and the engine lane for single runs.  Both must give
    exactly what the library gives for the same spec, profile and seed."""

    GRID = 30.0

    def _circuit(self, tmp_path):
        target = tmp_path / "c.yal"
        main(["generate", str(target), "--modules", "6", "--nets", "10"])
        return target

    def _spec(self):
        from repro.engine import ObjectiveSpec

        return ObjectiveSpec(gamma=1.0, congestion_grid_size=self.GRID)

    def _cli_placement(self, circuit, tmp_path, *extra):
        place = tmp_path / "cli.place"
        assert main(
            [
                "floorplan", str(circuit), "--seed", "2",
                "--gamma", "1", "--grid-size", str(self.GRID),
                "--save-placement", str(place), *extra,
            ]
        ) == 0
        return place.read_text()

    def test_default_driver_restarts(self, tmp_path, capsys):
        circuit = self._circuit(tmp_path)
        assert main(["floorplan", str(circuit), "--restarts", "2"]) == 0
        out = capsys.readouterr().out
        assert "multistart costs (1 worker(s)):" in out
        assert "[multistart/polish, seed " in out

    def test_restarts_refuse_checkpoint(self, tmp_path):
        circuit = self._circuit(tmp_path)
        with pytest.raises(SystemExit, match="single runs only"):
            main(
                [
                    "floorplan", str(circuit), "--restarts", "2",
                    "--checkpoint", str(tmp_path / "run.ckpt"),
                ]
            )

    def test_single_run_matches_engine(self, tmp_path):
        from repro.data import dumps_placement, read_yal
        from repro.engine import AnnealEngine
        from repro.experiments.config import active_profile

        circuit = self._circuit(tmp_path)
        cli = self._cli_placement(circuit, tmp_path)
        netlist = read_yal(circuit)
        profile = active_profile()
        result = AnnealEngine(
            netlist,
            objective_spec=self._spec(),
            seed=2,
            moves_per_temperature=profile.moves_per_temperature(
                netlist.n_modules
            ),
            schedule=profile.schedule(),
        ).run()
        assert cli == dumps_placement(result.floorplan, netlist.name)

    def test_restarts_match_multistart_driver(self, tmp_path):
        from repro.data import dumps_placement, read_yal
        from repro.engine import DriverConfig, make_driver
        from repro.experiments.config import active_profile

        circuit = self._circuit(tmp_path)
        cli = self._cli_placement(circuit, tmp_path, "--restarts", "2")
        netlist = read_yal(circuit)
        profile = active_profile()
        best = make_driver(
            "multistart",
            DriverConfig(
                netlist,
                restarts=2,
                seed=2,
                objective_spec=self._spec(),
                moves_per_temperature=profile.moves_per_temperature(
                    netlist.n_modules
                ),
                schedule=profile.schedule(),
            ),
        ).run().best
        assert cli == dumps_placement(best.floorplan, netlist.name)

    def test_resume_needs_no_circuit(self, tmp_path, capsys):
        circuit = self._circuit(tmp_path)
        ckpt = tmp_path / "run.ckpt"
        straight = self._cli_placement(circuit, tmp_path)
        assert main(
            [
                "floorplan", str(circuit), "--seed", "2",
                "--gamma", "1", "--grid-size", str(self.GRID),
                "--checkpoint", str(ckpt), "--deadline", "1e-9",
            ]
        ) == 0
        assert "stopped early (deadline)" in capsys.readouterr().out
        place = tmp_path / "resumed.place"
        assert main(
            [
                "floorplan", "--resume", str(ckpt),
                "--save-placement", str(place),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"resuming from {ckpt}" in out
        assert "stopped early" not in out
        assert place.read_text() == straight

    def test_engine_checkpoint_refused_by_driver_resume(self, tmp_path):
        circuit = self._circuit(tmp_path)
        ckpt = tmp_path / "run.ckpt"
        assert main(
            ["floorplan", str(circuit), "--checkpoint", str(ckpt)]
        ) == 0
        with pytest.raises(
            SystemExit, match="error: .* is not a repro driver checkpoint"
        ):
            main(
                [
                    "floorplan", "--resume", str(ckpt),
                    "--driver", "portfolio",
                ]
            )

    def test_driver_checkpoint_refused_by_single_resume(self, tmp_path):
        circuit = self._circuit(tmp_path)
        ckpt = tmp_path / "drv.ckpt"
        assert main(
            [
                "floorplan", str(circuit), "--driver", "portfolio",
                "--restarts", "2", "--rounds", "1",
                "--checkpoint", str(ckpt),
            ]
        ) == 0
        with pytest.raises(
            SystemExit, match="error: .* is a search-driver checkpoint"
        ):
            main(["floorplan", "--resume", str(ckpt)])


class TestRemovedTemperingCheckpoint:
    """A checkpoint of the removed replica-exchange driver fails with
    one ``error:`` line naming the removal, never a traceback."""

    CKPT = str(
        Path(__file__).parent / "engine" / "data" / "tempering_removed.ckpt"
    )
    REMOVED = "tempering driver, which has been removed"

    @pytest.mark.parametrize(
        "extra", [[], ["--driver", "portfolio"]], ids=["single", "portfolio"]
    )
    def test_resume_names_the_removal(self, extra):
        with pytest.raises(SystemExit) as info:
            main(["floorplan", "--resume", self.CKPT, *extra])
        message = str(info.value.code)
        assert message.startswith("error: ") and self.REMOVED in message
        assert "\n" not in message

    def test_peek_names_the_removal(self, capsys):
        assert main(["peek", self.CKPT]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and self.REMOVED in lines[0]


class TestServiceCommands:
    def _circuit(self, tmp_path):
        target = tmp_path / "c.yal"
        main(["generate", str(target), "--modules", "4", "--nets", "6"])
        return target

    def _server(self, tmp_path):
        from repro.service import FloorplanService, ServiceThread

        service = FloorplanService(tmp_path / "service-root", workers=1)
        return ServiceThread(service).start()

    def test_submit_waits_and_prints_cost(self, tmp_path, capsys):
        circuit = self._circuit(tmp_path)
        thread = self._server(tmp_path)
        try:
            assert main(
                [
                    "submit", str(circuit),
                    "--port", str(thread.port),
                    "--max-steps", "6",
                    "--moves-per-temperature", "8",
                ]
            ) == 0
        finally:
            thread.stop(drain=True)
        out = capsys.readouterr().out
        assert "job j000001: queued" in out
        assert "done: cost" in out and "chip" in out

    def test_submit_no_wait_and_cache_hit(self, tmp_path, capsys):
        circuit = self._circuit(tmp_path)
        thread = self._server(tmp_path)
        try:
            argv = [
                "submit", str(circuit),
                "--port", str(thread.port),
                "--max-steps", "6",
                "--moves-per-temperature", "8",
            ]
            assert main(argv) == 0
            capsys.readouterr()
            # Identical content again: served from the result store.
            assert main(argv + ["--no-wait"]) == 0
            assert "(cache hit)" in capsys.readouterr().out
        finally:
            thread.stop(drain=True)

    def test_submit_unreachable_server_fails_cleanly(self, tmp_path, capsys):
        circuit = self._circuit(tmp_path)
        assert main(
            ["submit", str(circuit), "--port", "1", "--no-wait"]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_peek_engine_checkpoint(self, tmp_path, capsys):
        circuit = self._circuit(tmp_path)
        ckpt = tmp_path / "run.ckpt"
        assert main(
            ["floorplan", str(circuit), "--checkpoint", str(ckpt)]
        ) == 0
        capsys.readouterr()
        assert main(["peek", str(ckpt)]) == 0
        assert "engine checkpoint v1" in capsys.readouterr().out
        assert main(["peek", str(ckpt), "--json"]) == 0
        assert '"kind": "engine"' in capsys.readouterr().out

    def test_peek_garbage_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"nope")
        assert main(["peek", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
