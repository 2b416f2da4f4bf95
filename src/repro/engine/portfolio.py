"""The representation-portfolio search driver.

No single floorplan representation dominates: slicing trees pack and
mutate fastest, sequence pairs reach non-slicing packings, B*-trees
compact hard toward the origin.  The portfolio driver treats the
registered representations as *arms* of a portfolio and races them in
rounds:

* **round 0** deals the ``restarts`` leg budget round-robin across the
  arms -- every representation gets a fair fresh start;
* **between rounds** each arm's best-so-far cost ranks the arms, and
  the next round's slots are reallocated: every arm keeps one slot
  (no arm is starved -- a late bloomer can still win), the surplus
  goes to the current leaders;
* **within an arm's slots**: the first continues the arm's own best
  state at a reduced initial temperature (``t0_decay ** round`` -- an
  iterated-local-search polish instead of a fresh scramble), the
  second *migrates* the global best solution into this representation
  through its ``from_floorplan`` conversion hook
  (:mod:`repro.floorplan.convert`), and any further slots start fresh
  from new seeds.

Every leg is a full supervised annealing run -- one
:class:`~repro.engine.multistart.RunJob` carrying the leg's
``initial_state`` and ``t0_scale``, executed by
:func:`~repro.engine.multistart.run_job` through
:class:`~repro.engine.supervise.SupervisedRunner` -- watchdog,
retries, pool rebuild, degrade-to-sequential all behave exactly as in
multistart.  Allocation and migration decisions are pure functions of
the accumulated results, the coordinator harvests results in key
order, and leg seeds are derived arithmetically
(``seed + round * 1000 + leg``), so sequential and pooled runs make
identical decisions and produce identical results.

Checkpoints have round granularity: the driver freezes its accumulated
results, reports, per-arm bests, and the allocation ledger into a
:class:`~repro.engine.checkpoint.DriverCheckpoint` after each round;
a stop mid-round discards the partial round, so a resumed run's
remaining allocation decisions match the uninterrupted run's exactly.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.drivers import DriverConfig, SearchDriver, SearchResult
from repro.engine.engine import EngineResult
from repro.engine.multistart import RunReport, run_job
from repro.engine.representation import make_representation
from repro.engine.supervise import SupervisedRunner
from repro.errors import WorkerFailure

__all__ = ["LegPlan", "PortfolioDriver"]

_ROUND_STRIDE = 1000


@dataclass(frozen=True)
class LegPlan:
    """One planned leg of one round: what to run and from where.

    ``kind`` is ``"fresh"`` (seeded random start), ``"continue"`` (the
    arm's own best state), or ``"migrate"`` (the global best converted
    into this arm's representation).  ``initial_state`` is the
    representation state to start from (``None`` for fresh) and
    ``t0_scale`` the initial-temperature multiplier the leg anneals
    with.
    """

    key: int
    arm: str
    kind: str
    seed: int
    initial_state: Any = None
    t0_scale: float = 1.0


def _allocate_slots(
    arms: Tuple[str, ...],
    budget: int,
    arm_best_cost: Dict[str, float],
) -> Dict[str, int]:
    """Deal ``budget`` slots across arms by best-cost rank.

    Round 0 (no costs yet): round-robin.  Later rounds: one slot per
    arm (no starvation), surplus slots cycle through the arms ranked
    by best cost (ties break on arm name -- fully deterministic).
    Arms that have produced nothing rank last.  With ``budget`` below
    the arm count, only the ``budget`` best-ranked arms get a slot.
    """
    if not arm_best_cost:
        counts = {arm: 0 for arm in arms}
        for i in range(budget):
            counts[arms[i % len(arms)]] += 1
        return {a: n for a, n in counts.items() if n}
    ranked = sorted(
        arms,
        key=lambda a: (arm_best_cost.get(a, float("inf")), a),
    )
    counts = {arm: 0 for arm in ranked}
    for arm in ranked[: min(budget, len(ranked))]:
        counts[arm] += 1
    surplus = budget - min(budget, len(ranked))
    for i in range(surplus):
        counts[ranked[i % len(ranked)]] += 1
    return {a: n for a, n in counts.items() if n}


class PortfolioDriver(SearchDriver):
    """Race the representation arms, reallocate slots, migrate elites.

    ``config.representations`` names the arms, ``config.restarts`` the
    per-round leg budget, ``config.rounds`` the number of rounds.  The
    result's ``ledger["rounds"]`` records every allocation and
    migration decision.
    """

    name = "portfolio"

    def run(self, control=None, resume_state=None, observer=None) -> SearchResult:
        """Run ``rounds`` racing rounds over the representation arms;
        ``resume_state`` continues a driver checkpoint with the same
        allocation and migration decisions the uninterrupted run would
        have made.

        ``observer`` mirrors every allocation and migration decision
        into the trace as it is made, counts per-arm slot grants and
        champion migrations, and folds each delivered leg's progress
        and metrics into the coordinator's registry.
        """
        cfg = self.config
        arms = tuple(cfg.representations)
        if control is not None:
            control.begin()

        if resume_state is not None:
            all_results: List[EngineResult] = list(resume_state["results"])
            all_reports = [
                RunReport.from_json(r) for r in resume_state["reports"]
            ]
            arm_best: Dict[str, EngineResult] = dict(
                resume_state["arm_best"]
            )
            round_ledger: List[Dict[str, Any]] = list(
                resume_state["rounds"]
            )
            start_round = resume_state["round"]
            rebuilds_total = resume_state["pool_rebuilds"]
            degraded = resume_state["degraded"]
        else:
            all_results = []
            all_reports = []
            arm_best = {}
            round_ledger = []
            start_round = 0
            rebuilds_total = 0
            degraded = False

        checkpoints_written = 0
        stop_reason: Optional[str] = None

        def snapshot(next_round: int) -> Dict[str, Any]:
            return {
                "round": next_round,
                "results": list(all_results),
                "reports": [r.to_json() for r in all_reports],
                "arm_best": dict(arm_best),
                "rounds": list(round_ledger),
                "pool_rebuilds": rebuilds_total,
                "degraded": degraded,
            }

        def global_best() -> Optional[EngineResult]:
            if not arm_best:
                return None
            return min(arm_best.values(), key=lambda r: (r.cost, r.seed))

        def plan_round(round_i: int) -> List[LegPlan]:
            """Pure planning: allocation + leg kinds for one round.

            Depends only on committed state (``arm_best``), so pool and
            sequential runs plan identically, and so does a resumed run.
            """
            costs = {a: r.cost for a, r in arm_best.items()}
            slots = _allocate_slots(
                arms, cfg.restarts, costs if round_i > 0 else {}
            )
            champion = global_best()
            plans: List[LegPlan] = []
            leg = 0
            for arm in arms:
                for slot in range(slots.get(arm, 0)):
                    key = round_i * _ROUND_STRIDE + leg
                    seed = cfg.seed + round_i * _ROUND_STRIDE + leg
                    scale = cfg.t0_decay**round_i
                    if round_i > 0 and slot == 0 and arm in arm_best:
                        plans.append(
                            LegPlan(
                                key=key,
                                arm=arm,
                                kind="continue",
                                seed=seed,
                                initial_state=arm_best[arm].state,
                                t0_scale=scale,
                            )
                        )
                    elif (
                        round_i > 0
                        and slot == 1
                        and champion is not None
                    ):
                        rep = make_representation(
                            arm,
                            cfg.netlist,
                            allow_rotation=cfg.spec().allow_rotation,
                        )
                        if rep.from_floorplan is None:
                            plans.append(
                                LegPlan(
                                    key=key, arm=arm, kind="fresh", seed=seed
                                )
                            )
                        else:
                            plans.append(
                                LegPlan(
                                    key=key,
                                    arm=arm,
                                    kind="migrate",
                                    seed=seed,
                                    initial_state=rep.from_floorplan(
                                        champion.floorplan
                                    ),
                                    t0_scale=scale,
                                )
                            )
                    else:
                        plans.append(
                            LegPlan(key=key, arm=arm, kind="fresh", seed=seed)
                        )
                    leg += 1
            return plans

        # One runner, so one pool, for the whole run; each round's legs
        # are looked up in ``jobs`` by key.
        jobs: Dict[int, Any] = {}
        with SupervisedRunner(
            run_job,
            lambda k, a, m: (jobs[k], a, m),
            timeout=cfg.restart_timeout,
            max_retries=cfg.max_retries,
            retry_backoff=cfg.retry_backoff,
            max_pool_rebuilds=cfg.max_pool_rebuilds,
            observer=observer,
        ) as runner:
            for round_i in range(start_round, cfg.rounds):
                if control is not None:
                    stop_reason = control.should_stop()
                    if stop_reason is not None:
                        checkpoints_written += self._write_checkpoint(
                            snapshot(round_i), control, observer
                        )
                        break
                round_span = (
                    observer.span("round", index=round_i, driver=self.name)
                    if observer is not None
                    else nullcontext()
                )
                with round_span:
                    plans = plan_round(round_i)
                    if observer is not None:
                        # The planning decisions, on disk before any leg
                        # runs: a crashed round still shows what was dealt.
                        for p in plans:
                            observer.event(
                                "leg_planned",
                                round=round_i,
                                key=p.key,
                                arm=p.arm,
                                kind=p.kind,
                                seed=p.seed,
                                t0_scale=p.t0_scale,
                            )
                            observer.metrics.count(f"slots[{p.arm}]")
                            if p.kind == "migrate":
                                observer.event(
                                    "migration",
                                    round=round_i,
                                    arm=p.arm,
                                    seed=p.seed,
                                )
                                observer.metrics.count("champion_migrations")
                    by_key = {p.key: p for p in plans}
                    keys = [p.key for p in plans]
                    reports = {
                        p.key: RunReport(
                            seed=p.seed,
                            label=f"round {round_i} / {p.arm} / {p.kind}",
                        )
                        for p in plans
                    }
                    results: Dict[int, EngineResult] = {}
                    jobs.clear()
                    jobs.update(
                        (
                            p.key,
                            cfg.job(
                                p.arm,
                                p.seed,
                                key=p.key,
                                initial_state=p.initial_state,
                                t0_scale=p.t0_scale,
                            ),
                        )
                        for p in plans
                    )
                    workers = 1 if degraded else min(cfg.workers, len(keys))
                    rebuilds, deg = runner.run(
                        keys, workers, reports, results, control
                    )
                    rebuilds_total += rebuilds
                    degraded = degraded or deg
                    stopped = control is not None and control.stop_requested
                    if stopped and len(results) + sum(
                        1 for k in keys if reports[k].status == "failed"
                    ) < len(keys):
                        # Partial round: discard it so resume replays the
                        # whole round and allocation decisions stay
                        # bit-identical.
                        for k in keys:
                            if (
                                k not in results
                                and reports[k].status == "pending"
                            ):
                                reports[k].status = "skipped"
                        all_reports.extend(reports[k] for k in keys)
                        stop_reason = control.should_stop() or "stop"
                        checkpoints_written += self._write_checkpoint(
                            snapshot(round_i), control, observer
                        )
                        break
                    # Commit the round.
                    for k in keys:
                        if k not in results and reports[k].status == "pending":
                            reports[k].status = "failed"
                    for k in keys:
                        if k in results:
                            reports[k].attach_result(results[k])
                            if observer is not None:
                                observer.merge_result(
                                    results[k],
                                    key=k,
                                    arm=by_key[k].arm,
                                    kind=by_key[k].kind,
                                )
                    all_reports.extend(reports[k] for k in keys)
                    round_results = [results[k] for k in keys if k in results]
                    all_results.extend(round_results)
                    for k in keys:
                        if k not in results:
                            continue
                        arm = by_key[k].arm
                        r = results[k]
                        cur = arm_best.get(arm)
                        if cur is None or (r.cost, r.seed) < (
                            cur.cost,
                            cur.seed,
                        ):
                            arm_best[arm] = r
                    if not arm_best:
                        raise WorkerFailure(
                            "every portfolio leg failed in round 0: "
                            + "; ".join(reports[k].summary() for k in keys)
                        )
                    entry = {
                        "round": round_i,
                        "legs": [
                            {
                                "key": p.key,
                                "arm": p.arm,
                                "kind": p.kind,
                                "seed": p.seed,
                                "t0_scale": p.t0_scale,
                                "delivered": p.key in results,
                                "cost": (
                                    results[p.key].cost
                                    if p.key in results
                                    else None
                                ),
                            }
                            for p in plans
                        ],
                        "arm_best": {
                            a: arm_best[a].cost for a in sorted(arm_best)
                        },
                    }
                    round_ledger.append(entry)
                    if observer is not None:
                        # On-disk twin of ledger["rounds"]: the allocation
                        # outcome survives even if the run dies later.
                        observer.event("allocation", **entry)
                    next_round = round_i + 1
                    if next_round % cfg.checkpoint_every == 0 or (
                        next_round == cfg.rounds
                    ):
                        checkpoints_written += self._write_checkpoint(
                            snapshot(next_round), control, observer
                        )

        if not all_results:
            raise WorkerFailure("portfolio produced no leg results")
        best = global_best()
        assert best is not None
        return SearchResult(
            driver=self.name,
            best=best,
            results=all_results,
            workers=min(cfg.workers, cfg.restarts),
            reports=all_reports,
            degraded=degraded,
            pool_rebuilds=rebuilds_total,
            completed=stop_reason is None,
            stop_reason=stop_reason,
            checkpoints_written=checkpoints_written,
            ledger={"arms": list(arms), "rounds": round_ledger},
        )
