"""The benchmark's three workloads, run through the public API.

* ``sp-1000`` -- one :class:`~repro.engine.AnnealEngine` over a
  1000-module random circuit, sequence-pair representation, IR-grid
  congestion at ``gamma=1``, on a fixed move budget per job;
* ``ami49-portfolio`` -- the ``portfolio`` search driver over MCNC
  ami49 with polish / sp / btree arms, one worker, fixed rounds;
* ``service-mix`` -- an in-process :class:`~repro.service.FloorplanService`
  behind :class:`~repro.service.ServiceThread`, fed by one open-loop
  client, then a burst that measures capacity.

Every workload returns a :class:`Outcome`: end-to-end metrics from
untraced work, per-layer metrics from traced work (``trace=True``), the
correctness checks it ran, and provenance.  Times are taken with
``time.perf_counter``; the service's job latencies use the job status
record's ``finished_at`` (the same host clock as the due times).
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.anneal import FloorplanObjective
from repro.anneal.schedule import GeometricSchedule
from repro.backend import make_backend
from repro.congestion import IrregularGridModel
from repro.data import dumps_yal, load_mcnc
from repro.engine import AnnealEngine, ObjectiveSpec
from repro.engine.control import RunControl
from repro.engine.drivers import DriverConfig, make_driver
from repro.engine.representation import make_representation
from repro.netlist import random_circuit
from repro.perf.context import CacheContext
from repro.service import (
    FloorplanService,
    JobSpec,
    ServiceClient,
    ServiceThread,
    result_payload,
)
from repro.service.client import ServiceClientError

import spans

# -- small helpers -------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set in MiB (plus the largest reaped child's)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


class Checks:
    """Counts correctness checks; every failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# Host speed.  On a host whose cores are shared with other tenants the
# speed of the same code drifts by tens of percent within minutes.  A
# fixed reference kernel, timed between moves (engine workloads) or in
# the client's waits (service), measures that drift in the same run;
# every timing is reported scaled to a host on which the kernel takes
# REFERENCE_S.  Interpreter-bound work (sp-1000's packing) tracks the
# kernel one to one; work that is half numpy (ami49-portfolio,
# service-mix) moves about half as much, so each workload scales by the
# factor to the power of its ``host_elasticity`` (the exponent that gave
# the smallest spreads over ten seeds).  The kernel is benchmark code,
# so no change to the program can move it.
REFERENCE_S = 0.005
SAMPLE_EVERY_S = 0.5


def reference_kernel() -> float:
    """A fixed mix of interpreter work and small-array numpy calls, the
    two kinds of work the engine does (~5 ms)."""
    total = 0.0
    counts: Dict[int, int] = {}
    for i in range(12_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += i * 0.5
    values = numpy.arange(256, dtype=float)
    for _ in range(400):
        values = numpy.sqrt(values * values + 1.0)
        total += float(values.max())
    return total


class HostSpeed:
    """Reference-kernel timings; ``factor`` > 1 means a slow host."""

    def __init__(self):
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> float:
        """Time the kernel ``times`` times; returns the seconds spent."""
        spent = 0.0
        for _ in range(times):
            start = time.perf_counter()
            reference_kernel()
            took = time.perf_counter() - start
            self.samples.append(took)
            spent += took
        return spent

    @property
    def factor(self) -> float:
        return statistics.median(self.samples) / REFERENCE_S


class MoveClock(RunControl):
    """A run control that timestamps the annealing loop's per-move poll.

    The loop polls ``should_stop`` once before every move, and engines
    call ``begin`` on entry, so the first poll after the first engine's
    ``begin`` is the first move and the gaps between polls of one run
    are per-move latencies.  A search driver calls ``begin`` once
    before its first engine does (``driver=True`` skips that call) and
    polls between legs, so a leg's last gap also holds its teardown.
    Every ``SAMPLE_EVERY_S`` seconds a poll also times the reference
    kernel; :meth:`now` is a clock that excludes those samples, and
    every timestamp here is on it.  It never asks the run to stop and
    never touches the RNG.
    """

    def __init__(self, tracer: Optional[spans.Tracer] = None,
                 driver: bool = False, host: Optional[HostSpeed] = None):
        super().__init__()
        self.tracer = tracer
        self.host = host if host is not None else HostSpeed()
        self.first_move: Optional[float] = None
        self.intervals: List[float] = []
        self.times: List[float] = []
        self.polls = 0
        self._paused = 0.0
        self._next_sample = float("-inf")
        self._skip_begins = 1 if driver else 0
        self._armed = False
        self._last: Optional[float] = None

    def now(self) -> float:
        """``perf_counter`` minus the time spent sampling the host."""
        return time.perf_counter() - self._paused

    def begin(self) -> None:
        super().begin()
        if self._skip_begins:
            self._skip_begins -= 1
        else:
            self._armed = True
        self._last = None

    def should_stop(self):
        if self._armed:
            now = self.now()
            if now >= self._next_sample:
                self._paused += self.host.sample()
                self._next_sample = now + SAMPLE_EVERY_S
            if self.first_move is None:
                self.first_move = now
            if self._last is not None:
                self.intervals.append(now - self._last)
            self._last = now
            self.times.append(now)
            self.polls += 1
            if self.tracer is not None:
                self.tracer.request_id = self.polls
        return super().should_stop()


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: Dict[str, float]
    checks: Checks
    provenance: Dict[str, Any]
    table: Dict[str, Dict[str, float]] = field(default_factory=dict)
    tracer: Optional[spans.Tracer] = None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- engine workloads ----------------------------------------------------


@dataclass
class Job:
    """One fixed-budget engine or driver run, as measured."""

    setup_s: float
    search_s: float
    moves: int
    accepted: int
    best_cost: float
    intervals: List[float]
    poll_times: List[float]
    floorplans: list
    perf: Any
    cache_stats: Dict[str, Any]
    backend: str
    traced: bool = False


@dataclass(frozen=True)
class SpConfig:
    """``sp-1000``: circuit, move budget per job, strict-replay length,
    nominal job length, the move chunk ``moves_per_s`` is a median over
    and the host-speed exponent.  The circuit is the same for every seed (its total area sets
    the objective's scale); the workload seed drives the walks."""

    modules: int = 1000
    nets: int = 4000
    circuit_seed: int = 1
    moves_per_temperature: int = 25
    steps: int = 2
    replay_moves: int = 4
    job_seconds: float = 12.0
    chunk_moves: int = 5
    host_elasticity: float = 1.0


def sp_objective(netlist, strict: bool = False) -> FloorplanObjective:
    """IR-grid congestion at ``gamma=1``, grid = sqrt(area) / 30."""
    grid = max(math.sqrt(netlist.total_module_area) / 30.0, 1e-6)
    return FloorplanObjective(
        netlist,
        alpha=1.0,
        beta=1.0,
        gamma=1.0,
        congestion_model=IrregularGridModel(grid, use_cache=True),
        incremental=True,
        strict_incremental=strict,
    )


def sp_job(seed: int, cfg: SpConfig, tracer=None, host=None) -> Job:
    clock = MoveClock(tracer, host=host)
    start = time.perf_counter()
    netlist = random_circuit(cfg.modules, cfg.nets, seed=cfg.circuit_seed)
    objective = sp_objective(netlist)
    engine = AnnealEngine(
        netlist,
        objective=objective,
        representation="sp",
        seed=seed,
        moves_per_temperature=cfg.moves_per_temperature,
        schedule=GeometricSchedule(max_steps=cfg.steps),
        calibrate=False,
    )
    result = engine.run(control=clock)
    return _job(
        start,
        clock,
        result.n_moves,
        result.n_accepted,
        result.cost,
        [result.floorplan],
        result.perf,
        result.cache_stats,
        objective.backend.name,
    )


def sp_replay(seed: int, cfg: SpConfig) -> List[tuple]:
    """(netlist, objective factory, representation name) for the
    strict replay of ``sp-1000``."""
    netlist = random_circuit(cfg.modules, cfg.nets, seed=cfg.circuit_seed)
    return [(netlist, lambda: sp_objective(netlist, strict=True), "sp")]


@dataclass(frozen=True)
class PortfolioConfig:
    """``ami49-portfolio``: circuit, driver budget, replay length, job
    length, move chunk and host-speed exponent.

    Six legs per round over three arms give every arm two legs in every
    round (round 1: one continuation and one migrated champion each),
    so the mix of representations, and with it the work per job, does
    not depend on which arm the seed favours.
    """

    circuit: str = "ami49"
    restarts: int = 6
    rounds: int = 2
    moves_per_temperature: int = 20
    steps: int = 4
    replay_moves: int = 20
    job_seconds: float = 12.0
    chunk_moves: int = 50
    host_elasticity: float = 0.5


def portfolio_spec(netlist, strict: bool = False) -> ObjectiveSpec:
    grid = max(math.sqrt(netlist.total_module_area) / 30.0, 1e-6)
    return ObjectiveSpec(
        gamma=1.0, congestion_grid_size=grid, strict_incremental=strict
    )


def portfolio_job(seed: int, cfg: PortfolioConfig, tracer=None,
                  host=None) -> Job:
    clock = MoveClock(tracer, driver=True, host=host)
    start = time.perf_counter()
    netlist = load_mcnc(cfg.circuit)
    driver = make_driver(
        "portfolio",
        DriverConfig(
            netlist=netlist,
            representations=("polish", "sp", "btree"),
            restarts=cfg.restarts,
            rounds=cfg.rounds,
            seed=seed,
            objective_spec=portfolio_spec(netlist),
            moves_per_temperature=cfg.moves_per_temperature,
            schedule=GeometricSchedule(max_steps=cfg.steps),
            workers=1,
        ),
    )
    result = driver.run(control=clock)
    if result.n_failed or not result.completed:
        raise RuntimeError(
            f"portfolio run incomplete: {result.n_failed} failed leg(s), "
            f"stop reason {result.stop_reason}"
        )
    return _job(
        start,
        clock,
        sum(r.n_moves for r in result.results),
        sum(r.n_accepted for r in result.results),
        result.best_cost,
        [r.floorplan for r in result.results],
        result.merged_perf(),
        result.merged_cache_stats(),
        make_backend(None).name,
    )


def portfolio_replay(seed: int, cfg: PortfolioConfig) -> List[tuple]:
    netlist = load_mcnc(cfg.circuit)
    return [
        (
            netlist,
            lambda: portfolio_spec(netlist, strict=True).build(
                netlist, CacheContext()
            ),
            name,
        )
        for name in ("polish", "sp", "btree")
    ]


def _job(start, clock, moves, accepted, cost, floorplans, perf, stats, backend):
    end = clock.now()
    first = clock.first_move if clock.first_move is not None else end
    return Job(
        setup_s=first - start,
        search_s=end - first,
        moves=moves,
        accepted=accepted,
        best_cost=cost,
        intervals=list(clock.intervals),
        poll_times=list(clock.times),
        floorplans=floorplans,
        perf=perf,
        cache_stats=dict(stats),
        backend=backend,
    )


def strict_replay(
    netlist, make_objective: Callable, representation: str, seed: int,
    moves: int, checks: Checks,
) -> None:
    """A short walk under ``strict_incremental=True``: every delta
    evaluation is re-checked against the full pipeline to 1e-12.
    Moves alternate accept and reject so both rollback paths run."""
    objective = make_objective()
    rep = make_representation(
        representation, netlist, allow_rotation=objective.allow_rotation
    )
    rng = random.Random(seed)
    state = rep.initial(rng)
    try:
        objective.evaluate_floorplan(rep.realize(state))
        objective.commit()
        for i in range(moves):
            candidate = rep.neighbor(state, rng)
            objective.evaluate_floorplan(rep.realize(candidate))
            if i % 2 == 0:
                objective.commit()
                state = candidate
            else:
                objective.reject()
        ok, why = True, ""
    except AssertionError as exc:
        ok, why = False, str(exc)
    checks.check(ok, f"strict replay ({representation}): {why}")


def _valid(floorplan) -> bool:
    try:
        floorplan.validate()
    except ValueError:
        return False
    return True


def check_jobs(jobs: List[Job], checks: Checks) -> None:
    """Every returned floorplan is overlap-free and every job moved."""
    for job in jobs:
        for floorplan in job.floorplans:
            checks.check(_valid(floorplan), "returned floorplan overlaps")
        checks.check(
            math.isfinite(job.best_cost) and job.moves > 0,
            f"job made {job.moves} moves, best cost {job.best_cost}",
        )


def chunk_rates(times: List[float], size: int) -> List[float]:
    """Moves per second over consecutive chunks of ``size`` moves."""
    return [
        size / (times[i + size] - times[i])
        for i in range(0, len(times) - size, size)
    ]


def engine_counters(jobs: List[Job]) -> Dict[str, float]:
    """Counter-based per-layer metrics summed over ``jobs``.  Each
    ratio's base is reported beside it or named in the README."""
    counters: Dict[str, int] = {}
    hits: Dict[str, List[int]] = {}
    moves = accepted = 0
    for job in jobs:
        for key, value in job.perf.counters.items():
            counters[key] = counters.get(key, 0) + value
        for name, stat in job.cache_stats.items():
            pair = hits.setdefault(name, [0, 0])
            pair[0] += stat.hits
            pair[1] += stat.lookups
        moves += job.moves
        accepted += job.accepted
    # Every pipeline evaluation, calibration's included.
    evaluations = sum(
        counters.get(key, 0)
        for key in ("eval_full", "eval_delta", "eval_unchanged")
    )
    estimates = counters.get("congestion_delta", 0) + counters.get(
        "congestion_grid_rebuilt", 0
    )

    def hit_ratio(name):
        pair = hits.get(name, [0, 0])
        return _ratio(pair[0], pair[1])

    return {
        "netlist.mst.nets_redone": counters.get("nets_redone", 0),
        "congestion.skipped_ratio": _ratio(
            counters.get("congestion_skipped", 0), evaluations
        ),
        "congestion.ledger_hit_ratio": _ratio(
            counters.get("ledger_hits", 0), estimates
        ),
        "congestion.net_mass.hit_ratio": hit_ratio("net_mass"),
        "congestion.exact_prob.hit_ratio": hit_ratio("exact_prob"),
        "anneal.evaluations": evaluations,
        "anneal.moves": moves,
        "anneal.delta_ratio": _ratio(counters.get("eval_delta", 0), evaluations),
        "anneal.accept_ratio": _ratio(accepted, moves),
        "perf.subtree_shapes.hit_ratio": hit_ratio("subtree_shapes"),
    }


def scaled(raw: Dict[str, float], factor: float,
           elasticity: float) -> Dict[str, float]:
    """Timings scaled to the reference host: rates (``*_per_s``) times
    ``factor ** elasticity``, durations divided by it."""
    k = factor**elasticity
    return {
        name: value * k if name.endswith("_per_s") else value / k
        for name, value in raw.items()
    }


def _moves_per_s(jobs: List[Job], chunk: int) -> float:
    return statistics.median(
        rate for job in jobs for rate in chunk_rates(job.poll_times, chunk)
    )


def run_engine(seed: int, seconds: float, trace: bool, job_fn, replay_fn,
               cfg) -> Outcome:
    """Shared driver of the two engine workloads.

    A run makes ``round(seconds / cfg.job_seconds)`` jobs (at least
    one), job ``k`` with seed ``1000 * seed + k``, so one seed always
    does the same work and its metrics average over several walks.
    A traced run also runs every job with tracing on, before the
    untraced one for odd ``k`` and after it for even ``k``, so the
    order of the pair does not bias the overhead.
    """
    tracer = spans.Tracer() if trace else None
    host = HostSpeed()

    def traced_job(job_seed: int) -> Job:
        tracer.install(spans.ENGINE_LAYERS)
        try:
            with tracer.region():
                job = job_fn(job_seed, cfg, tracer, host)
        finally:
            tracer.uninstall()
        job.traced = True
        return job

    jobs: List[Job] = []
    for k in range(max(1, round(seconds / cfg.job_seconds))):
        job_seed = 1000 * seed + k
        pair = [lambda: job_fn(job_seed, cfg, host=host)]
        if trace:
            pair.append(lambda: traced_job(job_seed))
            if k % 2:
                pair.reverse()
        for run_one in pair:
            gc.collect()
            jobs.append(run_one())
    checks = Checks()
    check_jobs(jobs, checks)
    for netlist, make_objective, rep in replay_fn(1000 * seed, cfg):
        strict_replay(netlist, make_objective, rep, seed, cfg.replay_moves,
                      checks)
    plain = [job for job in jobs if not job.traced]
    latencies = [x * 1e3 for job in plain for x in job.intervals]
    raw = {
        "setup_s": statistics.median(job.setup_s for job in jobs),
        "moves_per_s": _moves_per_s(plain, cfg.chunk_moves),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p90_ms": percentile(latencies, 0.90),
    }
    metrics = scaled(raw, host.factor, cfg.host_elasticity)
    tail = metrics.pop("latency_p90_ms")
    metrics["best_cost"] = statistics.median(job.best_cost for job in plain)
    metrics["peak_rss_mb"] = peak_rss_mb()
    provenance = {
        "host_factor": host.factor,
        "host_samples": len(host.samples),
        "unscaled": raw,
        "latency_p90_ms": tail,
        "backend_used": jobs[0].backend,
        "jobs": len(plain),
        "moves": [job.moves for job in plain],
        "job_setup_s": [job.setup_s for job in plain],
        "job_moves_per_s": [job.moves / job.search_s for job in plain],
        "latency_samples": len(latencies),
    }
    outcome = Outcome(metrics, checks, provenance)
    if trace:
        traced = [job for job in jobs if job.traced]
        table = spans.attribute(tracer.spans, tracer.wall_s)
        outcome.table = table
        outcome.tracer = tracer
        layer = engine_layer_metrics(table)
        layer.update(engine_counters(traced))
        layer["engine.setup_s"] = metrics["setup_s"]
        layer["trace.wall_s"] = tracer.wall_s
        layer["trace.overhead_ratio"] = (
            raw["moves_per_s"] / _moves_per_s(traced, cfg.chunk_moves) - 1.0
        )
        checks.check(
            [job.best_cost for job in traced]
            == [job.best_cost for job in plain],
            "traced best_cost differs from untraced",
        )
        outcome.metrics = layer
    return outcome


ENGINE_SPAN_METRICS = (
    ("floorplan.realize.sp", ("calls", "self_s")),
    ("floorplan.realize.btree", ("calls", "self_s")),
    ("floorplan.realize.polish", ("calls", "self_s")),
    ("floorplan.neighbor.sp", ("self_s",)),
    ("floorplan.neighbor.btree", ("self_s",)),
    ("floorplan.neighbor.polish", ("self_s",)),
    ("floorplan.convert", ("calls", "self_s")),
    ("pins.compute", ("calls", "self_s")),
    ("netlist.mst", ("calls", "self_s")),
    ("metrics.wirelength", ("calls", "self_s")),
    ("congestion.estimate", ("calls", "self_s")),
    ("anneal.evaluate", ("self_s",)),
    ("anneal.commit_reject", ("self_s",)),
    ("anneal.calibrate", ("self_s",)),
    ("engine.loop", ("self_s",)),
    ("engine.driver", ("self_s",)),
)


def engine_layer_metrics(table) -> Dict[str, float]:
    """``<layer>.calls`` / ``<layer>.self_s`` from an attribution table
    (0 for a layer the workload never called), plus ``unattributed_s``."""
    out: Dict[str, float] = {}
    for layer, stats in ENGINE_SPAN_METRICS:
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        for stat in stats:
            out[f"{layer}.{stat}"] = row[stat]
    out["unattributed_s"] = table["unattributed"]["self_s"]
    return out


# -- service-mix ---------------------------------------------------------


@dataclass(frozen=True)
class ServiceConfig:
    """``service-mix``: job shape, offered load, bursts, set-up
    repeats and host-speed exponent.

    Every job anneals the same circuit (as ``benchmarks/bench_service.py``
    does) with its own seed, so the work per job does not depend on the
    workload seed.  The open loop offers ``rate`` submissions per second
    for the whole window; every ``duplicate_every``-th
    submission resends the content of the fresh job submitted
    ``duplicate_lag`` fresh jobs earlier under a new idempotency key.
    """

    modules: int = 12
    nets: int = 16
    circuit_seed: int = 5
    max_steps: int = 5
    moves_per_temperature: int = 20
    rate: float = 6.0
    duplicate_every: int = 4
    duplicate_lag: int = 24
    burst_jobs: int = 30
    bursts: int = 5
    direct_checks: int = 3
    setup_repeats: int = 15
    host_elasticity: float = 0.5


def job_spec(yal: str, seed: int, cfg: ServiceConfig) -> Dict[str, Any]:
    return {
        "netlist_yal": yal,
        "seed": seed,
        "max_steps": cfg.max_steps,
        "moves_per_temperature": cfg.moves_per_temperature,
        "checkpoint_every": cfg.max_steps,
    }


def direct_result(spec_json: Dict[str, Any]) -> Dict[str, Any]:
    """The result an uninterrupted in-process engine run gives."""
    spec = JobSpec.from_json(spec_json)
    engine = AnnealEngine(
        spec.build_netlist(),
        representation=spec.representation,
        objective_spec=spec.objective_spec(),
        seed=spec.seed,
        moves_per_temperature=spec.moves_per_temperature,
        schedule=spec.schedule(),
    )
    return result_payload(engine.run(), spec)


class ServiceRig:
    """A started service, its HTTP thread and a client."""

    def __init__(self, root: Path, workers: int):
        self.service = FloorplanService(root, workers=workers)
        self.thread = ServiceThread(self.service).start()
        self.client = ServiceClient(port=self.thread.port)
        deadline = time.monotonic() + 30.0
        while not self.client.readyz()[0]:
            if time.monotonic() > deadline:
                raise RuntimeError("service never reported ready")
            time.sleep(0.005)

    def stop(self) -> None:
        self.thread.stop(drain=True)


@dataclass
class Submitted:
    job_id: str
    spec: Dict[str, Any]
    due_wall: float


def _finish(client: ServiceClient, jobs: List[Submitted], checks: Checks):
    """Wait for every job; returns ``{job_id: (status, result)}``."""
    out = {}
    for job in jobs:
        try:
            result = client.wait(job.job_id, timeout=120.0, poll_interval=0.02)
        except ServiceClientError as exc:
            checks.check(False, f"job {job.job_id} failed: {exc}")
            continue
        status = client.status(job.job_id)
        checks.check(
            result.get("content_hash")
            == JobSpec.from_json(job.spec).content_hash()
            and result.get("completed") is True,
            f"job {job.job_id} result does not match its spec",
        )
        checks.check(
            status["attempts"] <= 1,
            f"job {job.job_id} needed {status['attempts']} attempts",
        )
        out[job.job_id] = (status, result)
    return out


def open_loop(rig: ServiceRig, yal: str, seed: int, seconds: float,
              cfg: ServiceConfig, checks: Checks,
              host: HostSpeed) -> Dict[str, Any]:
    """Submit on a fixed schedule regardless of completions; the host
    is sampled in the generator's slack before every fourth send."""
    client = rig.client
    n = max(1, int(seconds * cfg.rate))
    fresh: List[Submitted] = []
    misses: List[Submitted] = []
    lateness: List[float] = []
    hit_ms: List[float] = []
    dup_pairs = []  # (original job id, duplicate result or job id)
    start = time.perf_counter()
    wall_start = time.time()
    for i in range(n):
        due = start + i / cfg.rate
        if i % 4 == 0 and due - time.perf_counter() > 4 * REFERENCE_S:
            host.sample()
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lateness.append(time.perf_counter() - due)
        due_wall = wall_start + i / cfg.rate
        duplicate = (
            i % cfg.duplicate_every == cfg.duplicate_every - 1
            and len(fresh) > cfg.duplicate_lag
        )
        try:
            if duplicate:
                original = fresh[len(fresh) - 1 - cfg.duplicate_lag]
                sent = time.perf_counter()
                status = client.submit(
                    {**original.spec, "idempotency_key": f"dup-{seed}-{i}"}
                )
                if status.get("cached"):
                    result = client.result(status["job_id"])
                    hit_ms.append((time.perf_counter() - sent) * 1e3)
                    dup_pairs.append((original.job_id, result))
                else:
                    miss = Submitted(status["job_id"], original.spec, due_wall)
                    misses.append(miss)
                    dup_pairs.append((original.job_id, miss.job_id))
            else:
                spec = job_spec(yal, seed * 100_000 + i, cfg)
                status = client.submit(spec)
                fresh.append(Submitted(status["job_id"], spec, due_wall))
        except ServiceClientError as exc:
            checks.check(False, f"submission {i} refused: {exc}")
    done = _finish(client, fresh + misses, checks)
    for original_id, duplicate in dup_pairs:
        got = done.get(duplicate, (None, None))[1] if isinstance(
            duplicate, str) else duplicate
        checks.check(
            original_id in done and got == done[original_id][1],
            f"duplicate of {original_id} differs from the original",
        )
    latencies = [
        (done[job.job_id][0]["finished_at"] - job.due_wall) * 1e3
        for job in fresh
        if job.job_id in done
    ]
    costs = [
        done[job.job_id][1]["breakdown"]["cost"]
        for job in fresh
        if job.job_id in done
    ]
    return {
        "sample": [
            (job.spec, done[job.job_id][1])
            for job in fresh[: cfg.direct_checks]
            if job.job_id in done
        ],
        "latencies_ms": latencies,
        "costs": costs,
        "hit_ms": hit_ms,
        "dups": len(dup_pairs),
        "lateness_ms": [x * 1e3 for x in lateness],
        "fresh": len(fresh),
        "retries": sum(
            max(0, status["attempts"] - 1) for status, _ in done.values()
        ),
    }


def burst(rig: ServiceRig, yal: str, seed: int, offset: int,
          cfg: ServiceConfig, checks: Checks, host: HostSpeed):
    """Submit ``burst_jobs`` at once; capacity from the last finish."""
    client = rig.client
    wall_start = time.time()
    submitted = []
    for k in range(cfg.burst_jobs):
        spec = job_spec(yal, seed * 100_000 + offset + k, cfg)
        try:
            submitted.append(
                Submitted(client.submit(spec)["job_id"], spec, wall_start)
            )
        except ServiceClientError as exc:
            checks.check(False, f"burst submission {k} refused: {exc}")
    if submitted:
        # Jobs run in submission order, so the last one ends the burst;
        # past the deadline _finish reports whatever is still unfinished.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and client.status(
            submitted[-1].job_id
        )["state"] in ("queued", "running"):
            host.sample()
            time.sleep(0.2)
    done = _finish(client, submitted, checks)
    span = max(status["finished_at"] for status, _ in done.values()) - wall_start
    moves = sum(result["n_moves"] for _, result in done.values())
    return {"capacity_jpm": len(done) / span * 60.0, "moves_per_s": moves / span}


def service_layer_metrics(tracer: spans.Tracer, wall_s: float):
    """Per-layer service metrics from the spans of a traced phase."""
    def p(name, q, scale):
        values = spans.durations(tracer.spans, name)
        return percentile(values, q) * scale if values else 0.0

    batches = tracer.samples.get("service.fleet.batch_size", [])
    waits = tracer.samples.get("service.queue.wait_s", [])
    table = spans.attribute(tracer.spans, wall_s, thread="service-fleet")
    return table, {
        "service.submit.ms_p50": p("service.submit", 0.5, 1e3),
        "service.journal.append.calls": len(
            spans.durations(tracer.spans, "service.journal.append")
        ),
        "service.journal.append.us_p50": p("service.journal.append", 0.5, 1e6),
        "service.queue.wait_s_p50": percentile(waits, 0.5) if waits else 0.0,
        "service.queue.wait_s_p95": percentile(waits, 0.95) if waits else 0.0,
        "service.fleet.batch.calls": len(batches),
        "service.fleet.batch.s_p50": p("service.fleet.batch", 0.5, 1.0),
        "service.fleet.batch_size_mean": (
            statistics.mean(batches) if batches else 0.0
        ),
        "service.store.put.ms_p50": p("service.store.put", 0.5, 1e3),
        "service.queue.complete.ms_p50": p("service.queue.complete", 0.5, 1e3),
        "unattributed_s": table["unattributed"]["self_s"],
    }


def _service_tracer() -> spans.Tracer:
    tracer = spans.Tracer()

    def on_claim(args, jobs):
        now = time.time()
        for job in jobs:
            tracer.sample("service.queue.wait_s", now - job.submitted_at)

    def on_batch(args, result):
        tracer.sample("service.fleet.batch_size", len(args[1]))

    return tracer.install(
        spans.SERVICE_LAYERS,
        request_of={
            "service.store.put": lambda args, kwargs: args[1],
            "service.queue.complete": lambda args, kwargs: args[1],
        },
        hooks={
            "service.queue.claim": on_claim,
            "service.fleet.batch": on_batch,
        },
    )


def run_service(seed: int, seconds: float, trace: bool, work: Path,
                cfg: ServiceConfig = ServiceConfig()) -> Outcome:
    workers = nproc()
    checks = Checks()
    host = HostSpeed()
    setups: List[float] = []
    yal = dumps_yal(
        random_circuit(cfg.modules, cfg.nets, seed=cfg.circuit_seed)
    )
    rig = ServiceRig(work, workers)
    try:
        # The host is sampled while the service works (the client's
        # slack in the open loop, its waits in the bursts), so the
        # factor holds the service's own, steady share of the cores.
        tracer = _service_tracer() if trace else None
        try:
            with tracer.region() if tracer else contextlib.nullcontext():
                loop = open_loop(rig, yal, seed, seconds, cfg, checks, host)
        finally:
            if tracer is not None:
                tracer.uninstall()
        runs = [
            burst(rig, yal, seed, 50_000 + 1000 * b, cfg, checks, host)
            for b in range(cfg.bursts)
        ]
        plain = {
            key: statistics.median(run[key] for run in runs)
            for key in ("capacity_jpm", "moves_per_s")
        }
        traced_burst = None
        if trace:
            burst_tracer = _service_tracer()
            try:
                traced_burst = burst(
                    rig, yal, seed, 60_000, cfg, checks, HostSpeed()
                )
            finally:
                burst_tracer.uninstall()
        metrics_snapshot = rig.service.metrics_snapshot()
        pool_rebuilds = rig.service.fleet.pool_rebuilds
        # Set-up is a restart on the run's own root: the service loads
        # the snapshot of every job above, replays the journal and
        # starts until /readyz answers -- fixed work per run, large
        # enough to time steadily.
        counts = rig.service.queue.counts()
        for _ in range(cfg.setup_repeats):
            rig.stop()
            gc.collect()
            started = time.perf_counter()
            rig = ServiceRig(work, workers)
            setups.append(time.perf_counter() - started)
            checks.check(
                rig.service.queue.counts() == counts,
                f"a restart changed the job states {counts}",
            )
    finally:
        rig.stop()
    for spec, result in loop["sample"]:
        checks.check(
            result == direct_result(spec),
            f"seed {spec['seed']} differs from a direct engine run",
        )
    retries = loop["retries"]
    checks.check(pool_rebuilds == 0, f"{pool_rebuilds} pool rebuild(s)")
    raw = {
        "setup_s": statistics.median(setups),
        "moves_per_s": plain["moves_per_s"],
        "latency_p50_ms": percentile(loop["latencies_ms"], 0.50),
        "latency_p90_ms": percentile(loop["latencies_ms"], 0.90),
    }
    metrics = scaled(raw, host.factor, cfg.host_elasticity)
    tail = metrics.pop("latency_p90_ms")
    metrics["best_cost"] = statistics.median(loop["costs"])
    metrics["peak_rss_mb"] = peak_rss_mb(children=True)
    provenance = {
        "host_factor": host.factor,
        "host_samples": len(host.samples),
        "burst_capacity_jpm": [run["capacity_jpm"] for run in runs],
        "unscaled": raw,
        "latency_p90_ms": tail,
        "workers": workers,
        "oversubscribed": workers > nproc(),
        "open_loop_rate_per_s": cfg.rate,
        "open_loop_jobs": loop["fresh"],
        "duplicates": loop["dups"],
        "latency_samples": len(loop["latencies_ms"]),
        "generator_lateness_ms_p95": percentile(loop["lateness_ms"], 0.95),
        "generator_lateness_ms_max": max(loop["lateness_ms"]),
        "capacity_jpm": plain["capacity_jpm"],
        "cache_hit_p50_ms": (
            percentile(loop["hit_ms"], 0.5) if loop["hit_ms"] else None
        ),
        "backend_used": "numpy",
        "metrics_counters": metrics_snapshot.get("counters", {}),
    }
    outcome = Outcome(metrics, checks, provenance)
    if trace:
        table, layer = service_layer_metrics(tracer, tracer.wall_s)
        outcome.table = table
        outcome.tracer = tracer
        layer.update(
            {
                "service.retries": retries,
                "service.pool_rebuilds": pool_rebuilds,
                "service.cache_hit_ratio": _ratio(
                    len(loop["hit_ms"]), loop["dups"]
                ),
                "service.cache_hit.ms_p50": provenance["cache_hit_p50_ms"] or 0.0,
                "service.capacity_jpm": plain["capacity_jpm"],
                "service.client.lateness_ms_p95": provenance[
                    "generator_lateness_ms_p95"
                ],
                "service.client.lateness_ms_max": provenance[
                    "generator_lateness_ms_max"
                ],
                "service.jobs": loop["fresh"],
                "trace.wall_s": tracer.wall_s,
                "trace.overhead_ratio": (
                    plain["capacity_jpm"] / traced_burst["capacity_jpm"] - 1.0
                ),
            }
        )
        outcome.metrics = layer
    return outcome


def service_work_dir(root: Path) -> Path:
    work = root / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


WORKLOADS = ("sp-1000", "ami49-portfolio", "service-mix")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path) -> Outcome:
    """Dispatch one workload by name."""
    if name == "sp-1000":
        return run_engine(seed, seconds, trace, sp_job, sp_replay, SpConfig())
    if name == "ami49-portfolio":
        return run_engine(seed, seconds, trace, portfolio_job,
                          portfolio_replay, PortfolioConfig())
    if name == "service-mix":
        work = service_work_dir(root)
        try:
            return run_service(seed, seconds, trace, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
