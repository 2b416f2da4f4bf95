"""Command-line interface.

Subcommands::

    repro-floorplan circuits                 # list bundled circuits
    repro-floorplan generate ...             # write a synthetic circuit
    repro-floorplan floorplan CIRCUIT ...    # anneal, report, render
    repro-floorplan estimate CIRCUIT ...     # congestion of one packing
    repro-floorplan experiment {1,2,3} ...   # reproduce the paper tables
    repro-floorplan figure8                  # approximation accuracy
    repro-floorplan trace TRACE.jsonl        # summarize a --trace file
    repro-floorplan serve --root DIR ...     # run the floorplanning service
    repro-floorplan submit CIRCUIT ...       # submit a job to a service
    repro-floorplan peek CKPT                # identify a checkpoint file

``CIRCUIT`` is an MCNC name (apte/xerox/hp/ami33/ami49) or a path to a
YAL-flavoured circuit file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.anneal import FloorplanObjective
from repro.congestion import FixedGridModel, IrregularGridModel, JudgingModel
from repro.data import MCNC_CIRCUITS, load_mcnc, read_yal, write_yal
from repro.experiments.config import active_profile, circuit_config
from repro.experiments.exp1 import format_experiment1, run_experiment1
from repro.experiments.exp2 import format_experiment2, run_experiment2
from repro.experiments.exp3 import format_experiment3, run_experiment3
from repro.experiments.figures import figure8_default_cases
from repro.experiments.runner import run_once
from repro.experiments.tables import format_table
from repro.netlist import Netlist, clustered_circuit, random_circuit
from repro.pins import assign_pins
from repro.viz import (
    congestion_svg,
    floorplan_svg,
    render_congestion_ascii,
    render_floorplan_ascii,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-floorplan",
        description="Irregular-Grid congestion model for floorplan design "
        "(reproduction of Hsieh & Hsieh, DATE 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("circuits", help="list the bundled MCNC-like circuits")

    gen = sub.add_parser("generate", help="write a synthetic circuit file")
    gen.add_argument("output", type=Path, help="destination .yal path")
    gen.add_argument("--modules", type=int, default=20)
    gen.add_argument("--nets", type=int, default=60)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--clustered",
        action="store_true",
        help="bias nets into clusters (creates congestion hot spots)",
    )

    fp = sub.add_parser("floorplan", help="anneal a circuit and report")
    fp.add_argument(
        "circuit",
        nargs="?",
        default=None,
        help="MCNC name or .yal path (optional with --list-* flags)",
    )
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument(
        "--repr",
        dest="representation",
        choices=("polish", "sp", "btree"),
        default="polish",
        help="floorplan representation to anneal over",
    )
    fp.add_argument(
        "--driver",
        choices=("multistart", "tempering", "portfolio"),
        default="multistart",
        help="search driver: independent best-of-N restarts (default), "
        "replica-exchange tempering, or the representation portfolio",
    )
    fp.add_argument(
        "--rounds",
        type=int,
        default=None,
        metavar="N",
        help="scheduling rounds for --driver tempering/portfolio "
        "(default 3); on --resume, extends or shortens the remaining "
        "schedule",
    )
    fp.add_argument(
        "--restarts",
        type=int,
        default=1,
        help="independent seeded runs; the best result is reported "
        "(for tempering: replica count; for portfolio: legs per round)",
    )
    fp.add_argument(
        "--list-drivers",
        action="store_true",
        help="list the registered search drivers and exit",
    )
    fp.add_argument(
        "--list-reprs",
        action="store_true",
        help="list the registered floorplan representations and exit",
    )
    fp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for --restarts > 1 (1 = sequential; "
        "results are identical either way)",
    )
    fp.add_argument("--gamma", type=float, default=0.0, help="congestion weight")
    fp.add_argument("--grid-size", type=float, default=None, help="IR unit pitch (um)")
    fp.add_argument(
        "--perf",
        action="store_true",
        help="print the per-phase timing breakdown and cache statistics",
    )
    fp.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="stream a structured JSONL trace (spans, per-step events, "
        "progress snapshots) to PATH; summarize it later with the "
        "`trace` subcommand",
    )
    fp.add_argument(
        "--metrics-every",
        type=int,
        default=0,
        metavar="N",
        help="sample a progress snapshot every N temperature steps "
        "(workers stream theirs back to the coordinator); 0 disables "
        "sampling",
    )
    fp.add_argument(
        "--no-incremental",
        action="store_true",
        help="disable the dirty-net delta path and per-net congestion "
        "memoization (the always-from-scratch evaluator)",
    )
    fp.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help="write atomic checkpoints to this file during annealing "
        "(single runs, or driver-level for tempering/portfolio); "
        "resume later with --resume",
    )
    fp.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="STEPS",
        help="temperature steps between checkpoints (default 1); for "
        "tempering/portfolio: scheduling *rounds* between driver "
        "checkpoints",
    )
    fp.add_argument(
        "--resume",
        type=Path,
        default=None,
        help="continue an interrupted run from its checkpoint file "
        "(bit-identical to the uninterrupted run; the checkpoint's "
        "circuit and configuration are used; driver checkpoints "
        "restore their driver automatically)",
    )
    fp.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; the run stops gracefully with "
        "best-so-far (and a final checkpoint, if configured) when it "
        "expires",
    )
    fp.add_argument("--render", action="store_true", help="print an ASCII floorplan")
    fp.add_argument("--svg", type=Path, default=None, help="write an SVG rendering")
    fp.add_argument(
        "--save-placement",
        type=Path,
        default=None,
        help="save the annealed floorplan to a placement file",
    )

    est = sub.add_parser(
        "estimate", help="estimate congestion of an annealed floorplan"
    )
    est.add_argument("circuit", help="MCNC name or .yal path")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument(
        "--model",
        choices=("irgrid", "fixed"),
        default="irgrid",
    )
    est.add_argument("--grid-size", type=float, default=None)
    est.add_argument(
        "--placement",
        type=Path,
        default=None,
        help="estimate a saved placement instead of annealing",
    )
    est.add_argument("--render", action="store_true", help="ASCII heat map")
    est.add_argument("--svg", type=Path, default=None, help="write heat map SVG")
    est.add_argument(
        "--explain",
        action="store_true",
        help="attribute the hottest IR-grids to their contributing nets",
    )

    exp = sub.add_parser("experiment", help="reproduce a paper experiment")
    exp.add_argument("number", type=int, choices=(1, 2, 3))
    exp.add_argument(
        "--circuits",
        nargs="+",
        default=None,
        help="experiment 1 circuit subset (default: all five)",
    )
    exp.add_argument(
        "--circuit", default="ami33", help="experiment 2/3 circuit"
    )

    sub.add_parser("figure8", help="approximation accuracy curves")

    tr = sub.add_parser(
        "trace", help="validate and summarize a --trace JSONL file"
    )
    tr.add_argument("path", type=Path, help="trace file written by --trace")
    tr.add_argument(
        "--json",
        action="store_true",
        help="print the summary as JSON instead of tables",
    )
    tr.add_argument(
        "--width", type=int, default=60, help="cost-curve plot width"
    )

    srv = sub.add_parser(
        "serve",
        help="run the floorplanning job service (crash-safe queue + "
        "supervised worker fleet; SIGTERM drains gracefully)",
    )
    srv.add_argument(
        "--root",
        type=Path,
        default=Path("service-data"),
        help="state directory (journal, snapshots, results, checkpoints); "
        "restarting on the same root resumes interrupted jobs",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8712)
    srv.add_argument("--workers", type=int, default=2)
    srv.add_argument(
        "--tenant-quota",
        type=int,
        default=None,
        help="max active (queued+running) jobs per tenant (default: none)",
    )
    srv.add_argument(
        "--client-timeout",
        type=float,
        default=10.0,
        help="seconds a client may stall mid-request before a 408",
    )
    srv.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="wall-clock seconds per job attempt before the pool is killed",
    )
    srv.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=30.0,
        help="seconds of worker heartbeat staleness that count as a hang",
    )
    srv.add_argument("--max-retries", type=int, default=2)
    srv.add_argument("--max-pool-rebuilds", type=int, default=2)

    sm = sub.add_parser(
        "submit", help="submit a floorplanning job to a running service"
    )
    sm.add_argument("circuit", help="MCNC name or YAL circuit file")
    sm.add_argument("--host", default="127.0.0.1")
    sm.add_argument("--port", type=int, default=8712)
    sm.add_argument("--representation", default="polish",
                    choices=("polish", "sp", "btree"))
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--alpha", type=float, default=1.0)
    sm.add_argument("--beta", type=float, default=1.0)
    sm.add_argument("--gamma", type=float, default=0.0)
    sm.add_argument("--grid-size", type=float, default=None,
                    help="congestion grid pitch (default: per-circuit)")
    sm.add_argument("--max-steps", type=int, default=200)
    sm.add_argument("--moves-per-temperature", type=int, default=None)
    sm.add_argument("--priority", type=int, default=0,
                    help="higher runs first")
    sm.add_argument("--tenant", default="default")
    sm.add_argument("--deadline", type=float, default=None,
                    help="wall-clock budget; the job returns best-so-far")
    sm.add_argument("--idempotency-key", default=None,
                    help="client identity for safe resubmits "
                    "(default: generated)")
    sm.add_argument("--no-wait", action="store_true",
                    help="print the job id and exit instead of waiting")
    sm.add_argument("--timeout", type=float, default=600.0,
                    help="seconds to wait for the result")

    pk = sub.add_parser(
        "peek", help="identify a checkpoint file without resuming it"
    )
    pk.add_argument("path", type=Path, help="engine or driver checkpoint")
    pk.add_argument("--json", action="store_true")
    return parser


def _load_circuit(spec: str) -> Netlist:
    if spec.lower() in MCNC_CIRCUITS:
        return load_mcnc(spec)
    path = Path(spec)
    if not path.exists():
        raise SystemExit(
            f"error: {spec!r} is neither an MCNC circuit "
            f"({sorted(MCNC_CIRCUITS)}) nor an existing file"
        )
    return read_yal(path)


def _grid_size_for(netlist: Netlist, override: Optional[float]) -> float:
    if override is not None:
        return override
    try:
        return circuit_config(netlist.name).ir_grid_size
    except KeyError:
        # Synthetic circuit: a pitch around 1/30 of the chip edge keeps
        # the route model meaningful at any scale.
        edge = netlist.total_module_area ** 0.5
        return max(edge / 30.0, 1e-6)


def _cmd_circuits() -> int:
    rows = []
    for name, spec in MCNC_CIRCUITS.items():
        rows.append(
            [
                name,
                spec.n_modules,
                spec.n_nets,
                spec.total_area_um2 / 1e6,
            ]
        )
    print(
        format_table(
            ["circuit", "modules", "nets", "module area mm2"],
            rows,
            title="Bundled MCNC-like circuits",
        )
    )
    return 0


def _cmd_generate(args) -> int:
    if args.clustered:
        netlist = clustered_circuit(args.modules, args.nets, seed=args.seed)
    else:
        netlist = random_circuit(args.modules, args.nets, seed=args.seed)
    write_yal(netlist, args.output)
    print(f"wrote {netlist} to {args.output}")
    return 0


def _cmd_list_registries(args) -> int:
    """Print the requested registries (drivers, representations)
    with their one-line descriptions."""
    from repro.engine import driver_descriptions, representation_descriptions

    sections = []
    if args.list_drivers:
        sections.append(("search drivers", driver_descriptions()))
    if args.list_reprs:
        sections.append(("representations", representation_descriptions()))
    for i, (title, entries) in enumerate(sections):
        if i:
            print()
        print(f"{title}:")
        width = max(len(name) for name in entries)
        for name, description in entries.items():
            print(f"  {name:<{width}}  {description}")
    return 0


def _cmd_floorplan(args) -> int:
    if args.list_drivers or args.list_reprs:
        return _cmd_list_registries(args)
    if args.circuit is None and args.resume is None:
        raise SystemExit(
            "error: a circuit is required (or --resume / a --list-* flag)"
        )
    if args.restarts < 1:
        raise SystemExit("error: --restarts must be >= 1")
    if args.rounds is not None and args.rounds < 1:
        raise SystemExit("error: --rounds must be >= 1")
    if args.workers < 1:
        raise SystemExit("error: --workers must be >= 1")
    if args.checkpoint_every < 1:
        raise SystemExit("error: --checkpoint-every must be >= 1")
    if args.metrics_every < 0:
        raise SystemExit("error: --metrics-every must be >= 0")
    observer = _make_observer(args)
    if args.driver != "multistart":
        netlist = None
        grid_size = None
        if args.circuit is not None:
            netlist = _load_circuit(args.circuit)
            grid_size = _grid_size_for(netlist, args.grid_size)
        result, judging_cost, netlist, outcome = _run_driver(
            args, netlist, grid_size, not args.no_incremental, observer
        )
        floorplan = result.floorplan
        b = result.breakdown
        print(
            f"{netlist.name} [{args.driver}/{result.representation}, "
            f"seed {result.seed}]: area {b.area / 1e6:.4g} mm^2, "
            f"wirelength {b.wirelength:.0f} um, "
            f"congestion {b.congestion:.4g}, judge {judging_cost:.4g}"
        )
        perf, cache_stats = _merged_perf_view(
            outcome, result.perf, result.cache_stats
        )
        moves_per_second = result.moves_per_second
        n_moves = result.n_moves
        _finish_observer(args, observer)
        return _floorplan_outputs(
            args, netlist, floorplan, perf, moves_per_second, n_moves,
            cache_stats,
        )
    if args.rounds is not None:
        raise SystemExit(
            "error: --rounds only applies to --driver tempering/portfolio"
        )
    if args.circuit is None:
        raise SystemExit("error: a circuit is required")
    netlist = _load_circuit(args.circuit)
    grid_size = _grid_size_for(netlist, args.grid_size)
    incremental = not args.no_incremental
    fault_tolerant = (
        args.checkpoint is not None
        or args.resume is not None
        or args.deadline is not None
    )
    if args.restarts > 1:
        if args.checkpoint is not None or args.resume is not None:
            raise SystemExit(
                "error: --checkpoint/--resume support single runs only "
                "(--restarts 1)"
            )
        result, judging_cost, outcome = _run_multistart(
            args, netlist, grid_size, incremental, observer
        )
        floorplan = result.floorplan
        b = result.breakdown
        print(
            f"{netlist.name} [{args.representation}, best of "
            f"{args.restarts}, seed {result.seed}]: "
            f"area {b.area / 1e6:.4g} mm^2, "
            f"wirelength {b.wirelength:.0f} um, congestion {b.congestion:.4g}, "
            f"judge {judging_cost:.4g}, {result.runtime_seconds:.1f} s"
        )
        perf, cache_stats = _merged_perf_view(
            outcome, result.perf, result.cache_stats
        )
        moves_per_second = result.moves_per_second
        n_moves = result.n_moves
    elif fault_tolerant or observer is not None:
        result, judging_cost, netlist = _run_single_controlled(
            args, netlist, grid_size, incremental, observer
        )
        floorplan = result.floorplan
        b = result.breakdown
        status = (
            "" if result.completed else f", stopped early ({result.stop_reason})"
        )
        print(
            f"{netlist.name} [{result.representation}, seed {result.seed}]: "
            f"area {b.area / 1e6:.4g} mm^2, "
            f"wirelength {b.wirelength:.0f} um, congestion {b.congestion:.4g}, "
            f"judge {judging_cost:.4g}, {result.runtime_seconds:.1f} s{status}"
        )
        perf = result.perf
        moves_per_second = result.moves_per_second
        n_moves = result.n_moves
        cache_stats = result.cache_stats
    else:
        objective = _build_objective(args, netlist, grid_size, incremental)
        record = run_once(
            netlist,
            objective,
            seed=args.seed,
            representation=args.representation,
        )
        floorplan = record.floorplan
        b = record.result.breakdown
        print(
            f"{netlist.name}: area {record.area_mm2:.4g} mm^2, "
            f"wirelength {b.wirelength:.0f} um, congestion {b.congestion:.4g}, "
            f"judge {record.judging_cost:.4g}, {record.runtime_seconds:.1f} s"
        )
        perf = record.result.perf
        moves_per_second = record.result.moves_per_second
        n_moves = record.result.n_moves
        cache_stats = record.result.cache_stats
    _finish_observer(args, observer)
    return _floorplan_outputs(
        args, netlist, floorplan, perf, moves_per_second, n_moves, cache_stats
    )


def _make_observer(args):
    """Build the coordinator :class:`~repro.obs.RunObserver` from
    ``--trace``/``--metrics-every``; None when observability is off."""
    if args.trace is None and args.metrics_every == 0:
        return None
    from repro.obs import RunObserver, Tracer

    tracer = Tracer(args.trace) if args.trace is not None else None
    return RunObserver(tracer=tracer, progress_every=args.metrics_every)


def _obs_plan_for(observer):
    """The picklable worker-side recipe matching a coordinator
    observer (None when snapshot sampling is off)."""
    if observer is None or observer.progress_every <= 0:
        return None
    from repro.obs import ObsPlan

    return ObsPlan(
        progress_every=observer.progress_every,
        top_k=observer.progress_top_k,
    )


def _run_span(observer, **attrs):
    """The root ``run`` span for the whole search (a null context when
    tracing is off)."""
    from contextlib import nullcontext

    if observer is None:
        return nullcontext()
    return observer.span("run", **attrs)


def _finish_observer(args, observer) -> None:
    """Close out the observer: emit the aggregated ``run_metrics``
    line, flush the trace file, and tell the user where it went."""
    if observer is None:
        return
    observer.finalize()
    observer.tracer.close()
    if args.trace is not None:
        print(
            f"wrote trace to {args.trace} "
            f"({observer.tracer.n_events} events)"
        )


def _merged_perf_view(outcome, fallback_perf, fallback_cache_stats):
    """The ``--perf`` view for a multi-job outcome: every delivered
    job's timers/counters and cache statistics folded together
    (worker-side measurements included), falling back to the best
    result's own numbers when the outcome carries none (e.g. tempering
    sweeps, which run outside engine perf accounting)."""
    merged = outcome.merged_perf()
    caches = outcome.merged_cache_stats()
    perf = merged if (merged.timers or merged.counters) else fallback_perf
    return perf, caches if caches else fallback_cache_stats


def _floorplan_outputs(
    args, netlist, floorplan, perf, moves_per_second, n_moves, cache_stats
) -> int:
    """The floorplan subcommand's shared reporting tail (--perf,
    --render, --svg, --save-placement)."""
    if args.perf:
        if perf is not None:
            print(perf.report(title="-- perf breakdown --"))
            print(f"moves/sec: {moves_per_second:.1f} ({n_moves} moves)")
        from repro.perf import format_cache_stats

        print(format_cache_stats(cache_stats, title="-- cache statistics --"))
    if args.render:
        print(render_floorplan_ascii(floorplan))
    if args.svg is not None:
        args.svg.write_text(floorplan_svg(floorplan))
        print(f"wrote {args.svg}")
    if args.save_placement is not None:
        from repro.data import write_placement

        write_placement(floorplan, args.save_placement, netlist.name)
        print(f"wrote {args.save_placement}")
    return 0


def _build_objective(args, netlist, grid_size, incremental) -> FloorplanObjective:
    if args.gamma > 0:
        return FloorplanObjective(
            netlist,
            alpha=1.0,
            beta=1.0,
            gamma=args.gamma,
            congestion_model=IrregularGridModel(
                grid_size, use_cache=incremental
            ),
            incremental=incremental,
        )
    return FloorplanObjective(
        netlist,
        alpha=1.0,
        beta=1.0,
        gamma=0.0,
        pin_grid_size=grid_size,
        incremental=incremental,
    )


def _objective_spec(args, grid_size, incremental):
    from repro.engine import ObjectiveSpec

    return ObjectiveSpec(
        alpha=1.0,
        beta=1.0,
        gamma=args.gamma,
        congestion_grid_size=grid_size,
        pin_grid_size=grid_size if args.gamma <= 0 else None,
        incremental=incremental,
    )


def _run_single_controlled(args, netlist, grid_size, incremental, observer=None):
    """One annealing run under a RunControl: checkpointing, resume,
    deadline, graceful Ctrl-C, and (with ``--trace``) tracing."""
    from repro.engine import AnnealEngine, RunControl, install_signal_handlers
    from repro.experiments.runner import judge_floorplan

    checkpoint_path = args.checkpoint
    if args.resume is not None and checkpoint_path is None:
        # Resuming without an explicit --checkpoint keeps checkpointing
        # into the same file, so a resumed run is itself resumable.
        checkpoint_path = args.resume
    control = RunControl(
        deadline_seconds=args.deadline,
        checkpoint_path=checkpoint_path,
        checkpoint_every=args.checkpoint_every,
    )
    if args.resume is not None:
        engine = AnnealEngine.resume(args.resume)
        netlist = engine.netlist
        print(f"resuming from {args.resume}")
    else:
        profile = active_profile()
        engine = AnnealEngine(
            netlist,
            representation=args.representation,
            objective_spec=_objective_spec(args, grid_size, incremental),
            seed=args.seed,
            moves_per_temperature=profile.moves_per_temperature(
                netlist.n_modules
            ),
            schedule=profile.schedule(),
        )
    span = _run_span(
        observer, circuit=netlist.name, driver="single",
        representation=engine.representation.name, seed=engine.seed,
    )
    with install_signal_handlers(control), span:
        result = engine.run(control=control, observer=observer)
    if control.checkpoints_written:
        print(
            f"wrote {control.checkpoints_written} checkpoint(s) to "
            f"{control.checkpoint_path}"
        )
    judging_cost = judge_floorplan(result.floorplan, netlist, 10.0)
    return result, judging_cost, netlist


def _run_multistart(args, netlist, grid_size, incremental, observer=None):
    from repro.engine import (
        MultiStartEngine,
        RunControl,
        install_signal_handlers,
    )
    from repro.experiments.runner import judge_floorplan

    profile = active_profile()
    multi = MultiStartEngine(
        netlist,
        representation=args.representation,
        restarts=args.restarts,
        seed=args.seed,
        objective_spec=_objective_spec(args, grid_size, incremental),
        moves_per_temperature=profile.moves_per_temperature(netlist.n_modules),
        schedule=profile.schedule(),
        workers=args.workers,
        obs_plan=_obs_plan_for(observer),
    )
    control = RunControl(deadline_seconds=args.deadline)
    span = _run_span(
        observer, circuit=netlist.name, driver="multistart",
        representation=args.representation, restarts=args.restarts,
    )
    with install_signal_handlers(control), span:
        outcome = multi.run(control=control, observer=observer)
    costs = ", ".join(f"{r.seed}: {r.cost:.4g}" for r in outcome.results)
    print(f"restart costs ({outcome.workers} worker(s)): {costs}")
    for report in outcome.reports:
        if report.failures or report.status != "ok":
            print(f"  {report.summary()}")
    if outcome.degraded:
        print(
            f"  (pool unhealthy after {outcome.pool_rebuilds} rebuild(s); "
            f"remaining restarts ran sequentially)"
        )
    judging_cost = judge_floorplan(outcome.best.floorplan, netlist, 10.0)
    return outcome.best, judging_cost, outcome


def _run_driver(args, netlist, grid_size, incremental, observer=None):
    """Run (or resume) a tempering/portfolio search driver."""
    from dataclasses import replace

    from repro.engine import (
        DriverConfig,
        RunControl,
        install_signal_handlers,
        make_driver,
        resume_driver,
    )
    from repro.experiments.runner import judge_floorplan

    control = RunControl(deadline_seconds=args.deadline)
    if args.resume is not None:
        driver, state = resume_driver(
            args.resume, workers=args.workers, rounds=args.rounds
        )
        if driver.name != args.driver:
            raise SystemExit(
                f"error: {args.resume} is a {driver.name!r} checkpoint; "
                f"--driver {args.driver} cannot resume it"
            )
        if driver.config.checkpoint_path is None:
            # Keep checkpointing into the same file, so a resumed run
            # is itself resumable.
            driver.config = replace(
                driver.config, checkpoint_path=str(args.resume)
            )
        if args.metrics_every > 0:
            # Snapshot cadence is observability, not search state: it
            # may change across a resume without perturbing the walk.
            driver.config = replace(
                driver.config, progress_every=args.metrics_every
            )
        netlist = driver.config.netlist
        print(f"resuming {driver.name} from {args.resume}")
    else:
        profile = active_profile()
        config = DriverConfig(
            netlist=netlist,
            representation=args.representation,
            restarts=args.restarts,
            rounds=args.rounds if args.rounds is not None else 3,
            seed=args.seed,
            objective_spec=_objective_spec(args, grid_size, incremental),
            moves_per_temperature=profile.moves_per_temperature(
                netlist.n_modules
            ),
            schedule=profile.schedule(),
            workers=args.workers,
            checkpoint_path=(
                str(args.checkpoint) if args.checkpoint is not None else None
            ),
            checkpoint_every=args.checkpoint_every,
            progress_every=args.metrics_every,
        )
        driver = make_driver(args.driver, config)
        state = None
    span = _run_span(
        observer, circuit=driver.config.netlist.name, driver=args.driver,
        representation=driver.config.representation,
        restarts=driver.config.restarts,
    )
    with install_signal_handlers(control), span:
        outcome = driver.run(
            control=control, resume_state=state, observer=observer
        )
    costs = ", ".join(f"{r.cost:.4g}" for r in outcome.results)
    print(f"{args.driver} costs ({outcome.workers} worker(s)): {costs}")
    if args.driver == "tempering":
        swaps = outcome.ledger.get("swaps", [])
        taken = sum(1 for s in swaps if s["accepted"])
        print(f"replica swaps: {taken}/{len(swaps)} accepted")
    elif args.driver == "portfolio":
        rounds = outcome.ledger.get("rounds", [])
        if rounds:
            final = rounds[-1]["arm_best"]
            ranking = ", ".join(
                f"{arm}: {cost:.4g}" for arm, cost in sorted(final.items())
            )
            print(f"arm bests: {ranking}")
    for report in outcome.reports:
        if report.failures or report.status != "ok":
            print(f"  {report.summary()}")
    if outcome.degraded:
        print(
            f"  (pool unhealthy after {outcome.pool_rebuilds} rebuild(s); "
            f"remaining jobs ran sequentially)"
        )
    if not outcome.completed:
        print(f"stopped early ({outcome.stop_reason})")
    if outcome.checkpoints_written:
        print(
            f"wrote {outcome.checkpoints_written} driver checkpoint(s) to "
            f"{driver.config.checkpoint_path}"
        )
    judging_cost = judge_floorplan(outcome.best.floorplan, netlist, 10.0)
    return outcome.best, judging_cost, netlist, outcome


def _cmd_estimate(args) -> int:
    netlist = _load_circuit(args.circuit)
    grid_size = _grid_size_for(netlist, args.grid_size)
    if args.placement is not None:
        from repro.data import read_placement

        floorplan = read_placement(args.placement)
    else:
        objective = FloorplanObjective(
            netlist, alpha=1.0, beta=1.0, gamma=0.0, pin_grid_size=grid_size
        )
        record = run_once(netlist, objective, seed=args.seed)
        floorplan = record.floorplan
    assignment = assign_pins(floorplan, netlist, grid_size)
    if args.model == "irgrid":
        model = IrregularGridModel(grid_size)
        congestion_map, irgrid = model.evaluate_with_grid(
            floorplan.chip, assignment.two_pin_nets
        )
        print(
            f"IR-grid model: {irgrid.n_cells} IR-grids, score "
            f"{model.score(congestion_map):.6g}"
        )
        if args.explain:
            from repro.congestion import analyze_hotspots

            report = analyze_hotspots(
                model, floorplan.chip, assignment.two_pin_nets, top_cells=3
            )
            for rank, cell in enumerate(report.cells, start=1):
                nets_desc = ", ".join(
                    f"{name} ({amount:.2f})"
                    for name, amount in cell.contributors
                )
                r = cell.rect
                print(
                    f"  hotspot {rank}: [{r.x_lo:.0f},{r.y_lo:.0f}]-"
                    f"[{r.x_hi:.0f},{r.y_hi:.0f}] density "
                    f"{cell.density:.4g} <- {nets_desc}"
                )
    else:
        model = FixedGridModel(grid_size)
        congestion_map = model.evaluate(floorplan.chip, assignment.two_pin_nets)
        print(
            f"fixed-grid model: {congestion_map.n_cells} grids, score "
            f"{model.score(congestion_map):.6g}"
        )
    judge = JudgingModel(10.0)
    print(f"judging model (10 um): {judge.judge(floorplan, netlist):.6g}")
    if args.render:
        print(render_congestion_ascii(congestion_map))
    if args.svg is not None:
        args.svg.write_text(congestion_svg(congestion_map, floorplan=floorplan))
        print(f"wrote {args.svg}")
    return 0


def _cmd_experiment(args) -> int:
    profile = active_profile()
    print(f"profile: {profile.name} ({profile.n_seeds} seeds)")
    if args.number == 1:
        circuits = args.circuits or ("apte", "xerox", "hp", "ami33", "ami49")
        print(format_experiment1(run_experiment1(circuits, profile)))
    elif args.number == 2:
        print(format_experiment2(run_experiment2(args.circuit, profile)))
    else:
        print(
            format_experiment3(
                run_experiment3(args.circuit, profile), args.circuit
            )
        )
    return 0


def _cmd_figure8() -> int:
    case_b, case_d = figure8_default_cases()
    for label, series in (("(b) y2=15", case_b), ("(d) y2=19", case_d)):
        rows = [
            [
                p.x,
                p.exact,
                "n/a" if p.approx is None else p.approx,
                "n/a" if p.deviation is None else p.deviation,
            ]
            for p in series
        ]
        print(
            format_table(
                ["x", "exact", "approx", "|deviation|"],
                rows,
                title=f"Figure 8 {label} (31 x 21 type-I net)",
            )
        )
        print()
    return 0


def _cmd_trace(args) -> int:
    """Validate and summarize a ``--trace`` JSONL file."""
    import json

    from repro.obs import format_trace_summary, summarize_trace

    if not args.path.exists():
        raise SystemExit(f"error: no such trace file: {args.path}")
    try:
        summary = summarize_trace(args.path)
    except ValueError as exc:
        raise SystemExit(f"error: invalid trace file: {exc}")
    if args.json:
        print(json.dumps(summary.to_json(), indent=2, sort_keys=True))
    else:
        print(format_trace_summary(summary, width=args.width))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import FloorplanService
    from repro.service.server import serve as serve_async

    service = FloorplanService(
        args.root,
        workers=args.workers,
        tenant_quota=args.tenant_quota,
        client_timeout=args.client_timeout,
        job_timeout=args.job_timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        max_retries=args.max_retries,
        max_pool_rebuilds=args.max_pool_rebuilds,
    )
    recovered = service.queue.recovered_jobs
    if recovered:
        print(
            f"recovered {len(recovered)} interrupted job(s) from the "
            f"journal: {', '.join(recovered)}"
        )

    def ready(server) -> None:
        print(
            f"floorplan service on http://{server.host}:{server.port} "
            f"({args.workers} worker(s), root {args.root}); "
            f"SIGTERM drains gracefully",
            flush=True,
        )

    asyncio.run(serve_async(service, args.host, args.port, ready=ready))
    print("drained; journal compacted")
    return 0


def _cmd_submit(args) -> int:
    from repro.data import dumps_yal
    from repro.service import ServiceClient, ServiceClientError

    netlist = _load_circuit(args.circuit)
    spec = {
        "netlist_yal": dumps_yal(netlist),
        "representation": args.representation,
        "seed": args.seed,
        "alpha": args.alpha,
        "beta": args.beta,
        "gamma": args.gamma,
        "congestion_grid_size": _grid_size_for(netlist, args.grid_size),
        "max_steps": args.max_steps,
        "moves_per_temperature": args.moves_per_temperature,
        "priority": args.priority,
        "tenant": args.tenant,
        "deadline_seconds": args.deadline,
        "idempotency_key": args.idempotency_key,
    }
    client = ServiceClient(args.host, args.port)
    try:
        status = client.submit(spec)
        job_id = status["job_id"]
        print(
            f"job {job_id}: {status['state']}"
            + (" (cache hit)" if status.get("cached") else "")
        )
        if args.no_wait:
            return 0
        result = client.wait(job_id, timeout=args.timeout)
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    breakdown = result["breakdown"]
    chip = result["chip"]
    print(
        f"done: cost {breakdown['cost']:.4f} "
        f"(area {breakdown['area']:.4g}, wire {breakdown['wirelength']:.4g}, "
        f"congestion {breakdown['congestion']:.4g}), "
        f"chip {chip['width']:.1f} x {chip['height']:.1f}"
    )
    return 0


def _cmd_peek(args) -> int:
    import dataclasses
    import json as json_mod

    from repro.engine import peek_checkpoint
    from repro.errors import CheckpointError

    try:
        info = peek_checkpoint(args.path)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_mod.dumps(dataclasses.asdict(info), indent=2))
    else:
        print(info.summary())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: parse ``argv`` and dispatch to the subcommand."""
    args = build_parser().parse_args(argv)
    if args.command == "circuits":
        return _cmd_circuits()
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "floorplan":
        return _cmd_floorplan(args)
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "figure8":
        return _cmd_figure8()
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "peek":
        return _cmd_peek(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
