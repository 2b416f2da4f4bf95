"""One run, five launchers: equal results from every entry point.

A direct :class:`~repro.engine.engine.AnnealEngine` run, a one-restart
``multistart`` search, a one-arm one-round ``portfolio`` search, the
service worker's :func:`~repro.service.worker.run_service_job` and the
``floorplan`` CLI all launch the same annealing run through
:func:`~repro.engine.multistart.run_job`; for every representation
they must deliver the same best cost and placements (the CLI: the same
printed figures, digit for digit).
"""

import os
import re
from unittest import mock

import pytest

from repro.cli import main
from repro.data import read_yal, write_yal
from repro.anneal.schedule import GeometricSchedule
from repro.engine import (
    AnnealEngine,
    DriverConfig,
    ObjectiveSpec,
    RunJob,
    make_driver,
    run_job,
)
from repro.experiments.config import active_profile
from repro.experiments.runner import judge_floorplan
from repro.netlist import random_circuit
from repro.service import JobSpec, result_payload
from repro.service.worker import JobPayload, run_service_job
from repro.testing import FaultSpec, InjectedFault

SEED = 2
GRID = 25.0
SPEC = ObjectiveSpec(gamma=1.0, congestion_grid_size=GRID)


@pytest.fixture(autouse=True)
def smoke_profile():
    with mock.patch.dict(os.environ, {"REPRO_PROFILE": "smoke"}):
        yield


@pytest.fixture(scope="module")
def yal_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("circuit") / "c.yal"
    write_yal(random_circuit(8, 16, seed=4), path)
    return path


def _job_spec(yal_path, representation, netlist):
    profile = active_profile()
    schedule = profile.schedule()
    return JobSpec(
        netlist_yal=yal_path.read_text(),
        representation=representation,
        seed=SEED,
        gamma=SPEC.gamma,
        congestion_grid_size=GRID,
        moves_per_temperature=profile.moves_per_temperature(
            netlist.n_modules
        ),
        cooling_rate=schedule.cooling_rate,
        freeze_ratio=schedule.freeze_ratio,
        max_steps=schedule.max_steps,
    )


def _driver_best(name, netlist, spec, **kwargs):
    config = DriverConfig(
        netlist,
        restarts=1,
        seed=SEED,
        objective_spec=SPEC,
        moves_per_temperature=spec.moves_per_temperature,
        schedule=spec.schedule(),
        **kwargs,
    )
    return make_driver(name, config).run().best


@pytest.mark.parametrize("representation", ["polish", "sp", "btree"])
def test_every_launcher_gives_the_same_run(
    representation, yal_path, tmp_path, capsys
):
    netlist = read_yal(yal_path)
    spec = _job_spec(yal_path, representation, netlist)
    direct = AnnealEngine(
        netlist,
        representation=representation,
        objective_spec=SPEC,
        seed=SEED,
        moves_per_temperature=spec.moves_per_temperature,
        schedule=spec.schedule(),
    ).run()
    expected = result_payload(direct, spec)

    multistart = _driver_best(
        "multistart", netlist, spec, representation=representation
    )
    assert result_payload(multistart, spec) == expected
    portfolio = _driver_best(
        "portfolio",
        netlist,
        spec,
        representations=(representation,),
        rounds=1,
    )
    assert result_payload(portfolio, spec) == expected
    outcome = run_service_job(
        JobPayload(job_id="j1", spec=spec, job_dir=str(tmp_path / "job")),
        mode="sequential",
    )
    assert outcome.completed and not outcome.resumed
    assert outcome.result == expected

    assert main([
        "floorplan", str(yal_path), "--repr", representation,
        "--seed", str(SEED), "--gamma", "1", "--grid-size", str(GRID),
    ]) == 0
    line = next(
        ln for ln in capsys.readouterr().out.splitlines()
        if f"[{representation}, seed {SEED}]" in ln
    )
    figures = re.sub(r", [0-9.]+ s$", "", line.split("]: ", 1)[1])
    b = direct.breakdown
    judge = judge_floorplan(direct.floorplan, netlist, 10.0)
    assert figures == (
        f"area {b.area / 1e6:.4g} mm^2, wirelength {b.wirelength:.0f} um, "
        f"congestion {b.congestion:.4g}, judge {judge:.4g}"
    )


def test_step_fault_fires_at_its_snapshot_only_when_targeted():
    job = RunJob(
        random_circuit(6, 8, seed=3),
        seed=1,
        moves_per_temperature=10,
        schedule=GeometricSchedule(max_steps=4),
        key=5,
        fault=FaultSpec(kind="raise", seed=5, at_step=2),
    )
    with pytest.raises(InjectedFault, match="temperature step 2"):
        run_job(job)
    # The supervised retry is a later attempt: untargeted, it completes.
    assert run_job(job, attempt=1).completed


def test_content_hash_is_pinned():
    """Old journals and the content cache key on this hash: a change to
    the hashed fields or their encoding must be deliberate."""
    spec = JobSpec(
        netlist_yal=(
            "CIRCUIT tiny\nMODULE a 10 20\nMODULE b 30 5\n"
            "NET n0 1 a b\nEND\n"
        ),
        representation="sp",
        seed=7,
        gamma=0.5,
        moves_per_temperature=40,
        # Envelope fields never reach the hash.
        priority=3,
        tenant="acme",
        checkpoint_every=2,
    )
    assert spec.content_hash() == (
        "634572d332a7cdbd6b37b049883814741b5441fa021d6632168df64d580161c9"
    )
