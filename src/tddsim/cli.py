"""Command line front end.

Subcommands:
  validate  check a scenario file and report every problem
  bf        run the configured beamforming training and print the outcome
  plan      build the interference-aware slot plan and print it
  run       full pipeline: training, planning, then event simulation

Exit codes: 0 success, 2 invalid configuration, 3 infeasible plan
(starved links), 4 runtime violation: a fault after validation, such as a
slot structure the run cannot follow, a broken engine invariant (a trace
record stamped behind what was already written) or any other ValueError.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager
from itertools import groupby
from typing import Callable, Iterator, Optional

from .beamforming import (
    BeamMeasurementReport,
    BfMode,
    TrainedLink,
    run_beamforming,
)
from .channel import LinkTable
from .channel import link_snr_db  # noqa: F401  perfbench/layers.py hooks this name
from .config import ScenarioConfig, load_config, serialize_config
from .controller import (
    AssignmentResult,
    DemandSpec,
    assign_slots,
    build_interference_graph,
    verify_global,
)
from .engine import World, metrics_to_csv, run_until
from .errors import ConfigError, SimulationError
from .frames import FrameSizes
from .maintenance import PeriodicReportRequest, ReportSchedule, handle_periodic_report_request
from .schedule import Direction, SlotCategory, intervals, sp_window
from .schedule import expand_sp  # noqa: F401  perfbench/layers.py hooks this name
from .trace import TraceRecorder

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4


class Prepared:
    """Everything the planner and engine need, derived from one scenario."""

    __slots__ = (
        "cfg", "nodes", "channel", "structure", "mcs_table", "trained", "reports", "bf_results",
        "bf_sweep_counts", "epoch_us",
    )

    def __init__(self, cfg: ScenarioConfig, nodes: dict, channel, structure, mcs_table: list):
        self.cfg = cfg
        self.nodes = nodes
        self.channel = channel
        self.structure = structure
        self.mcs_table = mcs_table
        self.trained: list[TrainedLink] = []
        self.reports: list[BeamMeasurementReport] = []
        self.bf_results = []
        self.bf_sweep_counts = {}
        self.epoch_us = 0


def prepare_scenario(cfg: ScenarioConfig, trace: Optional[TraceRecorder] = None) -> Prepared:
    """Resolve nodes and channel, then run every configured training pass.

    Each beamforming run occupies the service period of its own beacon
    interval, so data traffic starts after the last one, and each run's trace
    records are written once it ends. Pre-trained links from the config are
    taken as-is with channel-model SNR.
    """
    prep = Prepared(
        cfg=cfg,
        nodes=cfg.build_nodes(),
        channel=cfg.build_channel(),
        structure=cfg.build_structure(),
        mcs_table=cfg.build_mcs_table(),
    )
    seen_pairs = set()
    links = LinkTable(prep.channel)

    for t in cfg.beamforming.trained_links:
        pair = frozenset((t.initiator, t.responder))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        snr = links.snr_db(
            prep.nodes[t.initiator], t.initiator_sector,
            prep.nodes[t.responder], t.responder_sector,
        )
        prep.trained.append(TrainedLink(
            initiator_id=t.initiator, responder_id=t.responder,
            initiator_sector=t.initiator_sector, responder_sector=t.responder_sector,
            snr_db=snr,
        ))

    bf_cfg = cfg.build_bf_config()
    for k, run in enumerate(cfg.beamforming.runs):
        sp_start_us = k * cfg.sim.beacon_interval_us + cfg.sim.sp_offset_us
        window = sp_window(prep.structure, sp_start_us, cfg.sim.sp_duration_us)
        result = run_beamforming(
            BfMode(run.mode), prep.nodes[run.initiator],
            [prep.nodes[r] for r in run.responders], prep.channel,
            window, bf_cfg, trace,
        )
        prep.bf_results.append(result)
        if trace is not None:
            trace.advance(result.end_us)  # later runs use later service periods
        prep.reports.extend(result.reports)
        prep.bf_sweep_counts[run.initiator] = (
            prep.bf_sweep_counts.get(run.initiator, 0) + result.sweep_frames
        )
        for link in result.trained_links:
            pair = frozenset((link.initiator_id, link.responder_id))
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                prep.trained.append(link)

    if cfg.beamforming.runs:
        prep.epoch_us = len(cfg.beamforming.runs) * cfg.sim.beacon_interval_us
    return prep


def plan_scenario(prep: Prepared) -> AssignmentResult:
    graph = build_interference_graph(
        prep.nodes, prep.trained, prep.reports, prep.channel
    )
    demands = [
        DemandSpec(
            link_id=t.link,
            direction=Direction(t.direction),
            demanded_rate_bps=t.demand_bps,
        )
        for t in prep.cfg.traffic
    ]
    return assign_slots(
        graph, demands, prep.structure, prep.mcs_table,
        dl_data_fraction=prep.cfg.sim.dl_data_fraction,
    )


def build_report_schedules(
    prep: Prepared, plan: AssignmentResult
) -> tuple[dict[str, ReportSchedule], list[str]]:
    """Map each periodic report request onto the reporter's BASIC tx slots.

    The reporter is the data receiver, so its transmit opportunities are the
    `(start_us, end_us)` windows of the BASIC slots granted to the
    reverse-direction activation, among the slots the engine runs, streamed
    in start order (a slot lies inside its interval). Rejected requests (no
    covering slot) are returned as warnings, not errors, and so is each BASIC
    slot that an accepted request gives more than one report.
    """
    cfg = prep.cfg
    schedules: dict[str, ReportSchedule] = {}
    warnings: list[str] = []
    if not cfg.maintenance.periodic_reports:
        return schedules, warnings

    t_end_us = prep.epoch_us + cfg.sim.duration_us
    vertices = plan.graph.by_id()
    for r in cfg.maintenance.periodic_reports:
        vid = f"{r.link}:{r.direction}"
        rev = vertices[vid].reverse_id
        own = sorted(
            (spec.start_offset_us, spec.start_offset_us + spec.duration_us)
            for index, spec in enumerate(prep.structure.slots)
            if spec.category is SlotCategory.BASIC
            and rev in plan.schedule.slot_links.get(index, ())
        )
        runs = intervals(
            prep.structure, prep.epoch_us + cfg.sim.sp_offset_us, cfg.sim.sp_duration_us,
            cfg.sim.beacon_interval_us, t_end_us,
        )
        tx_windows = ((base + s, base + e) for _, base in runs for s, e in own)
        req = PeriodicReportRequest(
            start_time_us=r.start_us, interval_us=r.interval_us, count=r.count
        )
        schedule = handle_periodic_report_request(req, tx_windows)
        if schedule.accepted:
            schedules[vid] = schedule
            # Emission times never decrease, so equal ones are adjacent.
            for t, same in groupby(schedule.emission_times_us):
                n = len(list(same))
                if n > 1:
                    warnings.append(f"report request for {vid}: {n} reports share the BASIC slot at {t} us")
        else:
            warnings.append(f"report request for {vid} rejected: {schedule.reason}")
    return schedules, warnings


def build_world(prep: Prepared, plan: AssignmentResult, trace: TraceRecorder) -> World:
    schedules, warnings = build_report_schedules(prep, plan)
    for w in warnings:
        print(w, file=sys.stderr)
    cfg = prep.cfg
    return World(
        prep.nodes, prep.channel, plan, prep.structure,
        traffic=cfg.traffic_sources(),
        frame_sizes=FrameSizes(**vars(cfg.frames)),
        mcs_table=prep.mcs_table,
        maintenance=cfg.maintenance_settings(),
        report_schedules=schedules,
        beacon_interval_us=cfg.sim.beacon_interval_us,
        sp_offset_us=cfg.sim.sp_offset_us,
        sp_duration_us=cfg.sim.sp_duration_us,
        epoch_us=prep.epoch_us,
        duration_us=cfg.sim.duration_us,
        trace=trace,
        bf_sweep_counts=prep.bf_sweep_counts,
    )


# ---------------------------------------------------------------------------
# Reporting helpers.


def _starved_payload(plan: AssignmentResult) -> list[dict]:
    return [
        {
            "link_id": s.link_id,
            "direction": s.direction.value,
            "demanded_rate_bps": s.demanded_rate_bps,
            "reason": s.reason,
        }
        for s in plan.starved
    ]


def _plan_payload(prep: Prepared, plan: AssignmentResult) -> dict:
    slots = []
    for spec_index, spec in enumerate(prep.structure.slots):
        direction = plan.schedule.slot_directions.get(spec_index)
        slots.append({
            "index": spec_index,
            "category": spec.category.value,
            "direction": direction.value if direction else None,
            "links": list(plan.schedule.slot_links.get(spec_index, ())),
        })
    violations = verify_global(plan.schedule, plan.graph, prep.mcs_table)
    return {
        "feasible": not plan.infeasible,
        "granted_rate_bps": dict(sorted(plan.granted_rate_bps.items())),
        "starved": _starved_payload(plan),
        "slots": slots,
        "violations": [{"kind": v.kind, "detail": v.detail} for v in violations],
    }


def _bf_payload(prep: Prepared) -> dict:
    return {
        "runs": [
            {
                "mode": result.mode.value,
                "end_us": result.end_us,
                "trained_links": [
                    {
                        "initiator": t.initiator_id,
                        "responder": t.responder_id,
                        "initiator_sector": t.initiator_sector,
                        "responder_sector": t.responder_sector,
                        "snr_db": round(t.snr_db, 3),
                    }
                    for t in result.trained_links
                ],
                "reports": [
                    {
                        "responder": rep.responder_id,
                        "initiator": rep.initiator_id,
                        "samples": len(rep.samples),
                    }
                    for rep in result.reports
                ],
            }
            for result in prep.bf_results
        ],
        "sweep_frames": dict(sorted(prep.bf_sweep_counts.items())),
    }


def _run_payload(prep: Prepared, metrics) -> dict:
    per_link = {}
    for vid, link in sorted(metrics.per_link.items()):
        per_link[vid] = {
            "goodput_bps": metrics.goodput_bps(vid),
            "delivered_mpdu_bits": link.delivered_mpdu_bits,
            "dropped_bits": link.dropped_bits,
            "completed_mpdus": link.completed_mpdus,
            "max_latency_us": round(link.max_latency_us, 3),
            "max_ack_delay_us": round(max(link.ack_delay_us), 3) if link.ack_delay_us else 0.0,
        }
    return {
        "scenario": prep.cfg.name,
        "seed": prep.cfg.sim.seed,
        "epoch_us": prep.epoch_us,
        "duration_us": metrics.duration_us,
        "per_link": per_link,
        "slot_utilization": {k: round(v, 6) for k, v in metrics.slot_utilization.items()},
        "bf_sweep_counts": dict(sorted(metrics.bf_sweep_counts.items())),
    }


# ---------------------------------------------------------------------------
# Subcommand implementations.


def _load(path: str, seed: Optional[int], duration_ms: Optional[int]) -> ScenarioConfig:
    cfg = load_config(path)
    if seed is not None:
        cfg.sim.seed = seed
    if duration_ms is not None:
        if duration_ms <= 0:
            raise ConfigError(["--duration-ms: must be positive"])
        cfg.sim.duration_us = duration_ms * 1000
    return cfg


def _new_trace(
    cfg: ScenarioConfig, write: Optional[Callable[[str], object]] = None
) -> TraceRecorder:
    trace = TraceRecorder(write=write)
    trace.record(0.0, "run_header", scenario=cfg.name, seed=cfg.sim.seed,
                 duration_us=cfg.sim.duration_us)
    return trace


@contextmanager
def _trace_output(cfg: ScenarioConfig, path: Optional[str]) -> Iterator[TraceRecorder]:
    """A recorder holding the run header, for the body of one command.

    Without `path` the trace stays in memory. With it, records stream into a
    temporary file beside `path` that replaces `path` only if the command
    closed the recorder, so a failed run leaves `path` as it was.
    """
    if not path:
        yield _new_trace(cfg)
        return
    directory, name = os.path.split(os.path.abspath(path))
    partial = os.path.join(directory, f".{name}.{os.getpid()}.partial")
    fh = None

    def write(text: str) -> None:
        nonlocal fh
        if fh is None:  # created at the first write, not during set-up
            fh = open(partial, "w")
        fh.write(text)

    try:
        trace = _new_trace(cfg, write)
        yield trace
        if trace.closed:
            fh.close()
            os.replace(partial, path)
    finally:
        if fh is not None:
            fh.close()
        if os.path.exists(partial):
            os.remove(partial)


def cmd_validate(args) -> int:
    cfg = _load(args.config, None, None)
    if args.print_canonical:
        sys.stdout.write(serialize_config(cfg))
    else:
        print(f"{args.config}: ok")
    return EXIT_OK


def cmd_bf(args) -> int:
    cfg = _load(args.config, args.seed, None)
    with _trace_output(cfg, args.trace) as trace:
        prep = prepare_scenario(cfg, trace)
        trace.close()
    print(json.dumps(_bf_payload(prep), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_plan(args) -> int:
    cfg = _load(args.config, args.seed, None)
    with _trace_output(cfg, args.trace) as trace:
        prep = prepare_scenario(cfg, trace)
        plan = plan_scenario(prep)
        trace.close()
    print(json.dumps(_plan_payload(prep, plan), indent=2, sort_keys=True))
    return EXIT_INFEASIBLE if plan.infeasible else EXIT_OK


def cmd_run(args) -> int:
    cfg = _load(args.config, args.seed, args.duration_ms)
    if args.validate_only:
        print(f"{args.config}: ok")
        return EXIT_OK
    with _trace_output(cfg, args.trace) as trace:
        prep = prepare_scenario(cfg, trace)
        plan = plan_scenario(prep)
        if plan.infeasible:
            print(json.dumps(
                {"error": "infeasible plan", "starved": _starved_payload(plan)},
                indent=2, sort_keys=True,
            ))
            return EXIT_INFEASIBLE
        world = build_world(prep, plan, trace)
        metrics = run_until(world)
        trace.close()
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(metrics_to_csv(metrics))
    print(json.dumps(_run_payload(prep, metrics), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tddsim",
        description="TDD mmWave fixed wireless access simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, seed=True):
        p.add_argument("--config", "-c", required=True, help="scenario YAML file")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")

    p_validate = sub.add_parser("validate", help="check a scenario file")
    add_common(p_validate, seed=False)
    p_validate.add_argument("--print-canonical", action="store_true",
                            help="emit the canonical YAML form on success")
    p_validate.set_defaults(fn=cmd_validate)

    p_bf = sub.add_parser("bf", help="run beamforming training only")
    add_common(p_bf)
    p_bf.add_argument("--trace", help="write a JSONL event trace")
    p_bf.set_defaults(fn=cmd_bf)

    p_plan = sub.add_parser("plan", help="compute the slot plan only")
    add_common(p_plan)
    p_plan.add_argument("--trace", help="write a JSONL event trace")
    p_plan.set_defaults(fn=cmd_plan)

    p_run = sub.add_parser("run", help="simulate a scenario end to end")
    add_common(p_run)
    p_run.add_argument("--trace", help="write a JSONL event trace")
    p_run.add_argument("--metrics", help="write per-link metrics CSV")
    p_run.add_argument("--duration-ms", type=int, default=None,
                       help="override the simulated duration")
    p_run.add_argument("--validate-only", action="store_true",
                       help="stop after configuration validation")
    p_run.set_defaults(fn=cmd_run)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Parse `argv` and run its subcommand; the exit code.

    The subcommand runs with the cyclic garbage collector off, and the
    collector's state is restored on every way out. A run leaves no
    reference cycles whose number grows with the simulated time, so the
    collections that its many trace rows and events would set off would
    find nothing to free.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, SimulationError) as exc:  # after validation, a program fault
        print(f"runtime violation: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
