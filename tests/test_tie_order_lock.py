"""Outputs of runs whose events tie on one tick match pinned digests.

Events that fall on the same tick run in a fixed order: slot boundaries,
then maintenance ticks, then data receptions, then control frames and CBR
timers in the order they were scheduled, then data transmissions; data
frames of different links in the order that their bursts started. The
order shows in the trace, whose records at equal `t` keep their insertion
order. Each case makes one kind of tie happen, asserts that it does, and
pins the SHA-256 of the run's trace, metrics CSV and stdout:

- a CBR link whose arrivals land exactly on the starts of DATA slots that
  it shares with a saturated link (and a second CBR link whose arrivals
  land inside open windows);
- CBR arrivals on BASIC slot starts, which are also maintenance ticks, with
  periodic reports and transmit power control;
- a service period offset from the beacon and shorter than it, so slot
  starts never meet maintenance ticks and some ticks fall between periods;
- a reception stamped less than 0.5 ns before a slot start, which rounds
  onto it and comes before the slot row, and a block ack sent at a BASIC
  slot start, which comes after it.
"""

import contextlib
import hashlib
import io
import json

import pytest

from tddsim.cli import EXIT_OK, main as tddsim_main

# One MPDU is (1500 + 40) * 8 = 12,320 bits: at 7.7 Mbit/s one arrives
# every 1600 us, once per TDD interval, at the same offset in each.
ONE_PER_INTERVAL_BPS = "7.7e+6"

# Three pairs 2 km apart: no activation interferes with another, so the
# planner puts every downlink in every DATA slot, in link-id order.
THREE_PAIRS = """\
nodes:
  - {id: dn1, role: dn_ap, position: [0.0, 0.0], sectors: 8}
  - {id: cn1, role: cn_sta, position: [100.0, 0.0], sectors: 8}
  - {id: dn2, role: dn_ap, position: [0.0, 2000.0], sectors: 8}
  - {id: cn2, role: cn_sta, position: [100.0, 2000.0], sectors: 8}
  - {id: dn3, role: dn_ap, position: [0.0, 4000.0], sectors: 8}
  - {id: cn3, role: cn_sta, position: [100.0, 4000.0], sectors: 8}
beamforming:
  trained_links:
    - {initiator: dn1, responder: cn1, initiator_sector: 0, responder_sector: 4}
    - {initiator: dn2, responder: cn2, initiator_sector: 0, responder_sector: 4}
    - {initiator: dn3, responder: cn3, initiator_sector: 0, responder_sector: 4}
"""

CASES = {
    # dn1-cn1 sorts first in every DATA slot; its arrivals fall on the start
    # of slot 1 (66 us into each interval), which dn2-cn2 fills saturated.
    "cbr_on_shared_data_slot_starts": f"""\
name: cbr_on_shared_data_slot_starts
sim: {{duration_us: 16000, seed: 1, beacon_interval_us: 25600, sp_offset_us: 0, sp_duration_us: 25600}}
{THREE_PAIRS}traffic:
  - {{link: dn1-cn1, direction: downlink, demand_bps: 1.0e+9, pattern: cbr, rate_bps: {ONE_PER_INTERVAL_BPS}, start_us: 66}}
  - {{link: dn2-cn2, direction: downlink, demand_bps: 1.0e+9, pattern: saturated}}
  - {{link: dn3-cn3, direction: downlink, demand_bps: 1.0e+9, pattern: cbr, rate_bps: 3.0e+7, start_us: 101}}
""",
    # Arrivals at every interval start: the BASIC slot 0 start and a
    # maintenance tick. dn1-cn1 reports every 3.2 ms and steers dn1's power.
    "arrivals_on_basic_slots_and_ticks": f"""\
name: arrivals_on_basic_slots_and_ticks
sim: {{duration_us: 51200, seed: 1, beacon_interval_us: 25600, sp_offset_us: 0, sp_duration_us: 25600}}
{THREE_PAIRS}traffic:
  - {{link: dn1-cn1, direction: downlink, demand_bps: 1.0e+9, pattern: cbr, rate_bps: {ONE_PER_INTERVAL_BPS}, start_us: 0}}
  - {{link: dn2-cn2, direction: downlink, demand_bps: 1.0e+9, pattern: cbr, rate_bps: {ONE_PER_INTERVAL_BPS}, start_us: 792}}
  - {{link: dn3-cn3, direction: downlink, demand_bps: 1.0e+9, pattern: none}}
maintenance:
  tpc: {{enabled: true, target_rsni_db: 30.0, max_step_db: 3.0}}
  periodic_reports:
    - {{link: dn1-cn1, direction: downlink, start_us: 0, interval_us: 3200, count: 14}}
    - {{link: dn3-cn3, direction: downlink, start_us: 1600, interval_us: 4800, count: 9}}
""",
    # The SP starts 700 us into each beacon interval and lasts half of it:
    # slots run off the maintenance-tick grid, and the ticks go on through
    # the gaps between periods.
    "service_period_off_the_tick_grid": f"""\
name: service_period_off_the_tick_grid
sim: {{duration_us: 76800, seed: 1, beacon_interval_us: 25600, sp_offset_us: 700, sp_duration_us: 12800}}
{THREE_PAIRS}traffic:
  - {{link: dn1-cn1, direction: downlink, demand_bps: 1.0e+9, pattern: cbr, rate_bps: {ONE_PER_INTERVAL_BPS}, start_us: 0}}
  - {{link: dn2-cn2, direction: downlink, demand_bps: 1.0e+9, pattern: saturated}}
  - {{link: dn3-cn3, direction: downlink, demand_bps: 1.0e+9, pattern: cbr, rate_bps: 2.0e+7, start_us: 766}}
maintenance:
  tpc: {{enabled: true, target_rsni_db: 30.0, max_step_db: 3.0}}
  periodic_reports:
    - {{link: dn1-cn1, direction: downlink, start_us: 500, interval_us: 6400, count: 10}}
""",
    # One MPDU per interval leaves dn1 at 129 us, 63 us into DATA slot 1,
    # and takes 12,320 / 4,620 = 2.666667 us at MCS 12. 99.8308885 m is a
    # propagation delay of 333,000 ps, so the reception lands 1/3 ns before
    # slot 2 starts at 132 us, inside slot 1's window, and its trace time
    # rounds onto the slot's.
    "rounded_ties_at_slot_starts": """\
name: rounded_ties_at_slot_starts
sim: {duration_us: 6400, seed: 1, beacon_interval_us: 25600, sp_offset_us: 0, sp_duration_us: 25600}
nodes:
  - {id: dn1, role: dn_ap, position: [0.0, 0.0], sectors: 8}
  - {id: cn1, role: cn_sta, position: [99.8308885, 0.0], sectors: 8}
beamforming:
  trained_links:
    - {initiator: dn1, responder: cn1, initiator_sector: 0, responder_sector: 4}
traffic:
  - {link: dn1-cn1, direction: downlink, demand_bps: 1.0e+9, pattern: cbr, rate_bps: 7.7e+6, start_us: 129}
""",
}

# SHA-256 of (trace, metrics CSV, stdout).
DIGESTS = {
    "cbr_on_shared_data_slot_starts": (
        "0ba846f45884b97abf0b7ab6a9188e5ab7edc0313ae6aa58c41975223883c73c",
        "bd04be16038ba42ebabc663e9740b6ea6f3c217bdde9a28a4f6cce09f3791f8f",
        "3325271a0ab719ac5ed129203a763530cac9c149d8cb5606901d86795e95d336",
    ),
    "arrivals_on_basic_slots_and_ticks": (
        "68065c4898c86d6fb6e9c3dcacb8a99d99fceaf6aaee6f0898ee458e8f419fd0",
        "a2f0a5c270a527eca6ca0d9b62f1358880441020d7a36e72d7607943dd6f37e8",
        "e197fc6165aa82e0b7dc47919be45a2be58311d0552b1fd0f119ac2fcfb644fd",
    ),
    "service_period_off_the_tick_grid": (
        "4221db4a8a90d30472a464c562b52565898ac47952421d440e6792f6fe10278f",
        "63b3094fa1af89dea71cca9ce5dcdc06f7919acd1821b49f9449562c6e8b8d96",
        "19ebbfd82ce6613a9f3c359fb111785aa4bbf78cb7f06574eac97bad9c60f05f",
    ),
    "rounded_ties_at_slot_starts": (
        "c3bcb784f198757ab10f7b18651eab36185d969cee18add29c4bb5f2e7297f2b",
        "a6706173a855690d778797711e7c3fd62b44c1e8f12012e20fd92e8016b732db",
        "8b86d878465ad381e6e3f77835f16611d457fbc55774ab7225858eb51eea60e5",
    ),
}


def run_case(name, tmp_path):
    """(trace, metrics CSV, stdout) of `tddsim run` on the case's config."""
    config = tmp_path / f"{name}.yaml"
    config.write_text(CASES[name])
    trace, metrics = tmp_path / "trace.jsonl", tmp_path / "metrics.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = tddsim_main([
            "run", "--config", str(config), "--trace", str(trace), "--metrics", str(metrics),
        ])
    assert rc == EXIT_OK
    return trace.read_text(), metrics.read_text(), stdout.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def parse(trace):
    return [json.loads(line) for line in trace.splitlines()]


def data_tx(records, link):
    return [
        r for r in records
        if r["kind"] == "frame_tx" and r["frame"] == "data" and r["link"] == link
    ]


def test_cbr_arrivals_tie_with_shared_data_slot_starts(tmp_path):
    records = parse(run_case("cbr_on_shared_data_slot_starts", tmp_path)[0])
    slot_1 = {r["t"]: r for r in records if r["kind"] == "slot" and r["slot_index"] == 1}
    cbr = data_tx(records, "dn1-cn1:downlink")
    # Every interval's MPDU leaves at its arrival, the start of slot 1.
    assert [r["t"] for r in cbr] == sorted(slot_1)
    for t, slot in slot_1.items():
        assert slot["links"][:2] == ["dn1-cn1:downlink", "dn2-cn2:downlink"]
        at_t = [r["link"] for r in records if r["t"] == t and r["kind"] == "frame_tx"]
        assert at_t[:2] == ["dn1-cn1:downlink", "dn2-cn2:downlink"]
    # The other CBR link resumes inside windows already open.
    starts = {r["t"] for r in records if r["kind"] == "slot"}
    assert any(r["t"] not in starts for r in data_tx(records, "dn3-cn3:downlink"))


def test_arrivals_on_basic_slots_and_maintenance_ticks(tmp_path):
    records = parse(run_case("arrivals_on_basic_slots_and_ticks", tmp_path)[0])
    basic = {r["t"] for r in records if r["kind"] == "slot" and r["category"] == "basic"}
    # Arrivals at 0 + k * 1600 and 792 + k * 1600 all fall on BASIC slot
    # starts; the first are also maintenance ticks.
    assert {k * 1600.0 for k in range(32)} | {792.0 + k * 1600 for k in range(32)} <= basic
    reports = [
        r["t"] for r in records
        if r["kind"] == "frame_tx" and r["frame"] == "link_measurement_report"
    ]
    # Each goes out in a BASIC slot, behind the block ack it may share it with.
    assert len(reports) == 14 + 9
    assert all(any(0 <= t - start < 66 for start in basic) for t in reports)
    assert any(r["kind"] == "tpc_update" for r in records)


def test_service_period_runs_off_the_tick_grid(tmp_path):
    records = parse(run_case("service_period_off_the_tick_grid", tmp_path)[0])
    starts = [r["t"] for r in records if r["kind"] == "slot"]
    assert starts and all(t % 1600 for t in starts)
    # Heartbeats go out at every beacon start, which is outside the SP.
    heartbeats = [r["t"] for r in records if r["kind"] == "announce"]
    assert set(heartbeats) == {0.0, 25600.0, 51200.0, 76800.0}
    assert any(r["kind"] == "tpc_update" for r in records)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_pinned_digests(name, tmp_path):
    assert tuple(map(sha256, run_case(name, tmp_path))) == DIGESTS[name]


def test_slot_rows_keep_their_place_among_rounded_ties(tmp_path):
    records = parse(run_case("rounded_ties_at_slot_starts", tmp_path)[0])
    slot_at = {r["t"]: r["seq"] for r in records if r["kind"] == "slot"}
    # A reception processed before the boundary, whose time rounds onto the
    # slot's, is written before the slot row: once per interval.
    received = [
        r for r in records
        if r["kind"] == "frame_rx" and r["frame"] == "data" and r["t"] in slot_at
    ]
    assert [r["t"] for r in received] == [132.0 + k * 1600 for k in range(4)]
    assert all(r["seq"] < slot_at[r["t"]] for r in received)
    # The block ack formed at a BASIC slot start is written after its row.
    acks = [r for r in records if r["kind"] == "frame_tx" and r["frame"] == "block_ack"]
    basic = {r["t"] for r in records if r["kind"] == "slot" and r["category"] == "basic"}
    assert [r["t"] for r in acks] == [1600.0 + k * 1600 for k in range(3)]
    assert all(r["t"] in basic and r["seq"] > slot_at[r["t"]] for r in acks)
