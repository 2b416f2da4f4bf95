"""CLI smoke tests (everything through main() with tiny workloads)."""

import os
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
        for name in ("multistart", "tempering", "portfolio"):
            assert name in out
        assert "replica-exchange" in out

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

    def test_tempering_smoke(self, tmp_path, capsys):
        circuit = self._circuit(tmp_path)
        assert main(
            [
                "floorplan", str(circuit),
                "--driver", "tempering",
                "--restarts", "2", "--rounds", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "[tempering/" in out
        assert "replica swaps:" in out

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
