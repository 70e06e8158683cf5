import json
import os
import pathlib
import subprocess
import sys

import pytest
import yaml

from tddsim.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RUNTIME,
    build_report_schedules,
    build_world,
    main,
    plan_scenario,
    prepare_scenario,
)
from tddsim import cli, engine
from tddsim.config import load_config, serialize_config
from tddsim.engine import run_until
from tddsim.errors import ConfigError, StructureError
from tddsim.trace import TraceRecorder

from conftest import SCENARIOS, declared_sections


def run_cli(*argv):
    return main(list(argv))


def test_validate_accepts_every_fixture(capsys, scenario_dir):
    for path in sorted(scenario_dir.glob("*.yaml")):
        assert run_cli("validate", "--config", str(path)) == EXIT_OK
        out = capsys.readouterr().out
        assert out.strip() == f"{path}: ok"


def test_validate_print_canonical(capsys):
    path = str(SCENARIOS / "two_node_dl.yaml")
    assert run_cli("validate", "--config", path, "--print-canonical") == EXIT_OK
    out = capsys.readouterr().out
    assert yaml.safe_load(out) is not None
    assert out == serialize_config(load_config(path))


def test_validate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "name: broken\n"
        "nodes:\n"
        "  - {id: ap, role: dn_ap, position: [0.0, 0.0]}\n"
        "  - {id: ap, role: mystery, position: [0.0, 0.0]}\n"
        "traffic:\n"
        "  - {link: ap-ghost, direction: downlink, demand_bps: -1, pattern: saturated}\n"
    )
    assert run_cli("validate", "--config", str(bad)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error: " in err
    # Every problem is reported, one line each.
    assert err.count("error: ") >= 4


def test_validate_missing_file(capsys):
    assert run_cli("validate", "--config", "/nonexistent.yaml") == EXIT_CONFIG
    assert "error: " in capsys.readouterr().err


def test_bf_reports_trained_pair(capsys):
    path = str(SCENARIOS / "two_node_dl.yaml")
    assert run_cli("bf", "--config", path) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["runs"]) == 1
    run = payload["runs"][0]
    assert run["mode"] == "individual"
    links = run["trained_links"]
    assert len(links) == 1
    assert links[0]["initiator_sector"] == 0
    assert links[0]["responder_sector"] == 4
    assert links[0]["snr_db"] == pytest.approx(22.642, abs=1e-3)
    # 8 tx sectors x 8 receive dwells per sector.
    assert payload["sweep_frames"] == {"dn1": 64}


@pytest.mark.parametrize("lowest_db, trained", [(22.0, 1), (25.0, 0)])
def test_training_decodes_at_the_scenarios_lowest_mcs(tmp_path, capsys, lowest_db, trained):
    # The pair's best sweep frame arrives at 22.642 dB: a table whose MCS 0
    # needs more trains no link, where the built-in table's 1.0 dB would.
    scenario = yaml.safe_load((SCENARIOS / "two_node_dl.yaml").read_text())
    scenario["mcs_table"] = [{"mcs": 0, "min_snr_db": lowest_db, "rate_bps": 385_000_000}]
    path = tmp_path / "high_mcs0.yaml"
    path.write_text(yaml.safe_dump(scenario))
    assert run_cli("bf", "--config", str(path)) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["runs"][0]["trained_links"]) == trained
    assert payload["sweep_frames"] == {"dn1": 64}


def test_plan_feasible_scenario(capsys):
    path = str(SCENARIOS / "saturated_dl.yaml")
    assert run_cli("plan", "--config", path) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert payload["starved"] == []
    assert payload["violations"] == []
    assert len(payload["slots"]) == 24
    granted = payload["granted_rate_bps"]["dn1-cn1:downlink"]
    # 22 DATA slots of 66 us per 1.6 ms interval at MCS12.
    assert granted == pytest.approx(22 * 66 / 1600 * 4.62e9)
    basic = [s for s in payload["slots"] if s["category"] == "basic"]
    assert basic[0]["links"] == ["dn1-cn1:uplink"]
    assert basic[1]["links"] == []


def test_plan_infeasible_exits_3(tmp_path, capsys):
    scenario = {
        "name": "too_far",
        "nodes": [
            {"id": "ap", "role": "dn_ap", "position": [0.0, 0.0]},
            {"id": "sta", "role": "cn_sta", "position": [50000.0, 0.0]},
        ],
        "beamforming": {
            "trained_links": [
                {"initiator": "ap", "responder": "sta",
                 "initiator_sector": 0, "responder_sector": 4},
            ],
        },
        "traffic": [
            {"link": "ap-sta", "direction": "downlink", "demand_bps": 1.0e9,
             "pattern": "saturated"},
        ],
    }
    path = tmp_path / "far.yaml"
    path.write_text(yaml.safe_dump(scenario))
    assert run_cli("plan", "--config", str(path)) == EXIT_INFEASIBLE
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is False
    assert payload["starved"][0]["reason"] == "link SNR below the lowest MCS threshold"

    capsys.readouterr()
    assert run_cli("run", "--config", str(path)) == EXIT_INFEASIBLE
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "infeasible plan"


def _untrained_scenario(tmp_path):
    # 5 km apart, no sector pair decodes, so training leaves the demanded
    # link untrained.
    scenario = yaml.safe_load((SCENARIOS / "two_node_dl.yaml").read_text())
    for node in scenario["nodes"]:
        if node["id"] == "cn1":
            node["position"] = [5000.0, 0.0]
    path = tmp_path / "untrained.yaml"
    path.write_text(yaml.safe_dump(scenario))
    return path


def test_untrained_demanded_link_is_infeasible(tmp_path, capsys):
    path = _untrained_scenario(tmp_path)
    starved = [{
        "link_id": "dn1-cn1", "direction": "downlink",
        "demanded_rate_bps": 4.2e9, "reason": "link not trained",
    }]

    assert run_cli("plan", "--config", str(path)) == EXIT_INFEASIBLE
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is False
    assert payload["starved"] == starved

    assert run_cli("run", "--config", str(path)) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": "infeasible plan", "starved": starved}
    assert captured.err == ""


def test_failed_run_writes_no_trace_file(tmp_path, capsys):
    config = _untrained_scenario(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    trace_path = out / "trace.jsonl"
    assert run_cli("run", "--config", str(config), "--trace", str(trace_path)) == EXIT_INFEASIBLE
    assert list(out.iterdir()) == []

    trace_path.write_text("earlier trace\n")
    assert run_cli("run", "--config", str(config), "--trace", str(trace_path)) == EXIT_INFEASIBLE
    assert trace_path.read_text() == "earlier trace\n"
    assert list(out.iterdir()) == [trace_path]

    # An infeasible plan is what `plan` reports, so its trace is written.
    capsys.readouterr()
    assert run_cli("plan", "--config", str(config), "--trace", str(trace_path)) == EXIT_INFEASIBLE
    assert json.loads(trace_path.read_text().split("\n")[0])["kind"] == "run_header"
    assert list(out.iterdir()) == [trace_path]


def test_late_trace_record_exits_4_and_keeps_the_old_trace(tmp_path, capsys, monkeypatch):
    # A handler that stamps a record two intervals behind the clock breaks
    # the trace's order promise; the run stops instead of writing it. So
    # does a row appended through `extend`: a tick that writes the trace
    # out past the next slot boundary makes that boundary's `slot` row late.
    tick = engine._on_maintenance_tick

    def late_record(world, now):
        tick(world, now)
        lag = 2 * world.structure.interval_duration_us
        world.trace.record(now / world.tpu - lag, "announce", node="late")

    def early_advance(world, now):
        tick(world, now)
        world.trace.advance(now / world.tpu + world.structure.interval_duration_us)

    trace_path = tmp_path / "trace.jsonl"
    for late_tick, kind in ((late_record, "announce"), (early_advance, "slot")):
        monkeypatch.setattr(engine, "_on_maintenance_tick", late_tick)
        trace_path.write_text("earlier trace\n")
        code = run_cli(
            "run", "--config", str(SCENARIOS / "trickle.yaml"), "--duration-ms", "10",
            "--trace", str(trace_path),
        )
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"runtime violation: trace record {kind!r}")
        assert trace_path.read_text() == "earlier trace\n"
        assert list(tmp_path.iterdir()) == [trace_path]


def test_structure_error_during_run_exits_4(capsys, monkeypatch):
    # StructureError subclasses ValueError, yet once the configuration has
    # been validated it is a runtime fault, not a configuration error.
    def broken_run(world, t_end_us=None):
        raise StructureError("slot timeline broke mid-run")

    monkeypatch.setattr(cli, "run_until", broken_run)
    code = run_cli("run", "--config", str(SCENARIOS / "trickle.yaml"), "--duration-ms", "10")
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime violation: slot timeline broke mid-run\n"


def test_stray_value_error_during_run_exits_4(capsys, monkeypatch):
    # Only a ConfigError is a configuration error; any other ValueError
    # raised after validation is a program fault.
    def broken_assign(*args, **kwargs):
        raise ValueError("planner broke")

    monkeypatch.setattr(cli, "assign_slots", broken_assign)
    code = run_cli("run", "--config", str(SCENARIOS / "trickle.yaml"), "--duration-ms", "10")
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime violation: planner broke\n"


REVERSE_BELOW_MCS0 = """\
name: deaf_uplink
sim: {duration_us: 20000, beacon_interval_us: 25600, sp_duration_us: 25600}
nodes:
  - {id: dn1, role: dn_ap, position: [0.0, 0.0], sectors: 8, tx_power_dbm: 20.0}
  - {id: cn1, role: cn_sta, position: [1500.0, 0.0], sectors: 8, tx_power_dbm: -10.0}
beamforming:
  trained_links:
    - {initiator: dn1, responder: cn1, initiator_sector: 0, responder_sector: 4}
traffic:
  - {link: dn1-cn1, direction: downlink, demand_bps: 1.0e+9, pattern: saturated}
"""


def test_link_whose_ack_path_is_below_mcs0_is_starved(tmp_path, capsys):
    # The downlink decodes, but the uplink carrying its BlockAcks does not:
    # scheduling it would queue data that is never acknowledged.
    path = tmp_path / "deaf_uplink.yaml"
    path.write_text(REVERSE_BELOW_MCS0)
    starved = [{
        "link_id": "dn1-cn1", "direction": "downlink", "demanded_rate_bps": 1e9,
        "reason": "reverse-path SNR below the lowest MCS threshold",
    }]
    assert run_cli("plan", "--config", str(path)) == EXIT_INFEASIBLE
    plan = json.loads(capsys.readouterr().out)
    assert (plan["feasible"], plan["starved"], plan["violations"]) == (False, starved, [])
    assert all(not slot["links"] for slot in plan["slots"])
    assert run_cli("run", "--config", str(path)) == EXIT_INFEASIBLE
    assert json.loads(capsys.readouterr().out) == {"error": "infeasible plan", "starved": starved}


def test_run_writes_trace_and_metrics(tmp_path, capsys):
    path = str(SCENARIOS / "trickle.yaml")
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.csv"
    code = run_cli(
        "run", "--config", path, "--duration-ms", "50",
        "--trace", str(trace_path), "--metrics", str(metrics_path),
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "trickle"
    assert payload["duration_us"] == 50000
    link = payload["per_link"]["dn1-cn1:downlink"]
    assert link["completed_mpdus"] > 0
    assert link["max_latency_us"] < 1600 + 66

    lines = trace_path.read_text().strip().split("\n")
    records = [json.loads(line) for line in lines]
    assert records[0]["kind"] == "run_header"
    kinds = {r["kind"] for r in records}
    assert {"slot", "frame_tx", "frame_rx"} <= kinds
    # Sequence numbers are dense and times never decrease.
    assert [r["seq"] for r in records] == list(range(len(records)))
    times = [r["t"] for r in records]
    assert times == sorted(times)

    headers = metrics_path.read_text().split("\n")[0]
    assert headers.startswith("link,offered_bits,")


def test_run_validate_only_skips_simulation(capsys):
    path = str(SCENARIOS / "saturated_dl.yaml")
    assert run_cli("run", "--config", path, "--validate-only") == EXIT_OK
    assert capsys.readouterr().out.strip() == f"{path}: ok"


def test_training_plan_that_overflows_its_service_period_is_a_config_error(tmp_path, capsys, monkeypatch):
    # 64 x 64 sectors need a 16,912 us plan; a 1,600 us SP holds 1,584 us of slots.
    text = (SCENARIOS / "two_node_dl.yaml").read_text()
    text = text.replace("sectors: 8}", "sectors: 64}").replace("sp_duration_us: 25600", "sp_duration_us: 1600")
    path = tmp_path / "overflow.yaml"
    path.write_text(text)
    problem = "beamforming.runs[0]: service period window of 1584us cannot fit a 16912us training plan"
    with pytest.raises(ConfigError) as raised:
        load_config(str(path))
    assert raised.value.problems == [problem]

    def no_training(*args, **kwargs):
        raise AssertionError("training started on an invalid configuration")

    monkeypatch.setattr(cli, "run_beamforming", no_training)
    for command in (["run", "--validate-only"], ["run"], ["bf"], ["validate"]):
        assert run_cli(*command, "--config", str(path)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {problem}\n")


@pytest.mark.parametrize("rate", ["0.5", ".nan", ".inf"])
def test_cbr_rate_below_one_bit_per_second_is_a_config_error(rate, tmp_path, capsys):
    # The engine counts CBR gaps in whole bits per second, so a rate that
    # truncates to 0, or that no integer holds, is refused at validation.
    text = (SCENARIOS / "trickle.yaml").read_text()
    assert text.count("rate_bps: 1.0e+6") == 1
    path = tmp_path / "rate.yaml"
    path.write_text(text.replace("rate_bps: 1.0e+6", f"rate_bps: {rate}"))
    problem = "traffic[0].rate_bps: cbr traffic needs a finite rate of at least 1 bit/s"
    for command in (["validate"], ["run", "--duration-ms", "5"]):
        assert run_cli(*command, "--config", str(path)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {problem}\n")


@pytest.mark.parametrize("line, problem", [
    ("mcs_table: [{mcs: x, min_snr_db: 1, rate_bps: 100}]", "mcs_table[0].mcs: expected a number"),
    (
        "channel: {extra_loss_db: [{a: dn1, b: cn1, loss_db: lots}]}",
        "channel.extra_loss_db[0].loss_db: expected a number",
    ),
    ("mcs_table: [{mcs: 0, min_snr_db: 1, rate_bps: .inf}]", "mcs_table[0].rate_bps: expected an integer"),
], ids=["mcs", "loss_db", "rate_bps"])
def test_list_entry_problem_is_a_path_qualified_config_error(line, problem, tmp_path, capsys):
    path = tmp_path / "entry.yaml"
    path.write_text((SCENARIOS / "two_node_dl.yaml").read_text() + line + "\n")
    for command in (["validate"], ["run"]):
        assert run_cli(*command, "--config", str(path)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {problem}\n")


RECORD_LISTS = [path[:-2] for path in declared_sections() if path.endswith("[]")]


@pytest.mark.parametrize("path", RECORD_LISTS)
def test_a_scalar_for_a_list_of_records_is_a_config_error(path, tmp_path, capsys):
    data = yaml.safe_load((SCENARIOS / "two_node_dl.yaml").read_text())
    *sections, key = path.split(".")
    holder = data
    for section in sections:
        holder = holder.setdefault(section, {})
    holder[key] = 5
    config = tmp_path / "scalar.yaml"
    config.write_text(yaml.safe_dump(data))
    assert run_cli("validate", "--config", str(config)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    # Without nodes, the links and training runs also name unknown nodes.
    assert captured.err.splitlines()[0] == f"error: {path}: expected a list"
    assert path == "nodes" or captured.err == f"error: {path}: expected a list\n"


def test_antenna_gains_are_checked_with_the_node_path(tmp_path, capsys):
    text = (SCENARIOS / "two_node_dl.yaml").read_text()
    config = tmp_path / "gains.yaml"
    config.write_text(text.replace("sectors: 8}", "sectors: 8, sidelobe_gain_dbi: 30.0}", 1))
    assert run_cli("validate", "--config", str(config)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: nodes[0]: mainlobe_gain_dbi must exceed sidelobe_gain_dbi\n",
    )


def test_run_rejects_bad_duration(capsys):
    path = str(SCENARIOS / "saturated_dl.yaml")
    assert run_cli("run", "--config", path, "--duration-ms", "-1") == EXIT_CONFIG
    assert "--duration-ms" in capsys.readouterr().err


def test_run_seed_override_lands_in_payload(capsys):
    path = str(SCENARIOS / "trickle.yaml")
    assert run_cli("run", "--config", path, "--duration-ms", "10",
                   "--seed", "99") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 99


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    path = str(SCENARIOS / "two_node_dl.yaml")
    outputs = []
    for name in ("a", "b"):
        trace_path = tmp_path / f"{name}.jsonl"
        metrics_path = tmp_path / f"{name}.csv"
        assert run_cli(
            "run", "--config", path, "--trace", str(trace_path),
            "--metrics", str(metrics_path),
        ) == EXIT_OK
        outputs.append((
            capsys.readouterr().out,
            trace_path.read_bytes(),
            metrics_path.read_bytes(),
        ))
    assert outputs[0] == outputs[1]


def test_reused_prep_replays_like_a_fresh_one():
    # TPC changes the AP's transmit power during the run; that must stay
    # inside the World and leave the prepared nodes as configured.
    cfg = load_config(str(SCENARIOS / "tpc.yaml"))

    def run(prep):
        trace = TraceRecorder()
        run_until(build_world(prep, plan_scenario(prep), trace))
        return trace.to_jsonl()

    prep = prepare_scenario(cfg)
    first = run(prep)
    assert '"kind": "tpc_update"' in first
    assert run(prep) == first == run(prepare_scenario(cfg))
    assert prep.nodes["dn1"].tx_power_dbm == 10.0


def test_module_entry_point_runs():
    path = str(SCENARIOS / "two_node_dl.yaml")
    src = str(pathlib.Path(engine.__file__).parents[1])  # the package under test
    proc = subprocess.run(
        [sys.executable, "-m", "tddsim", "validate", "--config", path],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


@pytest.mark.parametrize("duration_ms", range(205, 216))
def test_report_emissions_fall_on_basic_slots_the_engine_runs(duration_ms, tmp_path, capsys):
    """The third report of reports.yaml is due at 210 ms, near the run's end.

    Report scheduling and the engine must agree on which slots exist there:
    a report accepted into a slot the engine never runs would be lost.
    """
    path = SCENARIOS / "reports.yaml"
    trace_path = tmp_path / "trace.jsonl"
    assert run_cli(
        "run", "--config", str(path), "--duration-ms", str(duration_ms),
        "--trace", str(trace_path),
    ) == EXIT_OK
    err = capsys.readouterr().err
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    basic_starts = {
        r["t"] for r in records if r["kind"] == "slot" and r["category"] == "basic"
    }
    sent = [
        r["t"] for r in records
        if r["kind"] == "frame_tx" and r["frame"] == "link_measurement_report"
    ]

    cfg = load_config(str(path))
    cfg.sim.duration_us = duration_ms * 1000
    prep = prepare_scenario(cfg)
    schedules, warnings = build_report_schedules(prep, plan_scenario(prep))
    emitted = sorted(t for s in schedules.values() for t in s.emission_times_us)
    assert set(emitted) <= basic_starts
    assert sent == emitted
    assert err == "".join(f"{w}\n" for w in warnings)


def test_reports_due_during_training_sharing_one_basic_slot_are_warned(tmp_path, capsys):
    # One training run takes the first beacon interval (epoch 25,600 us), so
    # all five nominal times fall before the reporter's first BASIC slot.
    scenario = yaml.safe_load((SCENARIOS / "two_node_dl.yaml").read_text())
    scenario["maintenance"] = {"periodic_reports": [
        {"link": "dn1-cn1", "direction": "downlink", "start_us": 0, "interval_us": 1000, "count": 5},
    ]}
    path, trace_path = tmp_path / "reports.yaml", tmp_path / "trace.jsonl"
    path.write_text(yaml.safe_dump(scenario))
    assert run_cli(
        "run", "--config", str(path), "--duration-ms", "2", "--trace", str(trace_path),
    ) == EXIT_OK
    assert capsys.readouterr().err == (
        "report request for dn1-cn1:downlink: 5 reports share the BASIC slot at 25600 us\n"
    )
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    sent = [
        r["t"] for r in records
        if r["kind"] == "frame_tx" and r["frame"] == "link_measurement_report"
    ]
    assert len(sent) == 5 and all(25600 <= t < 25600 + 66 for t in sent)


def test_report_request_past_the_last_whole_interval_is_rejected(capsys):
    # At 212 ms the slot covering the 210 ms report (211.2 ms) lies in a
    # partial final interval, which the engine does not run.
    path = str(SCENARIOS / "reports.yaml")
    errs = []
    for duration_ms in ("211", "212"):
        assert run_cli("run", "--config", path, "--duration-ms", duration_ms) == EXIT_OK
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == (
        "report request for dn1-cn1:downlink rejected: "
        "no transmit slot covers report time 210000us\n"
    )
