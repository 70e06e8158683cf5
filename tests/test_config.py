import copy
import math
import re

import pytest
import yaml

from tddsim.config import (
    ANY_FLOAT,
    AT_LEAST_1,
    FRACTION,
    NON_EMPTY,
    NON_NEGATIVE,
    POSITIVE,
    ScenarioConfig,
    load_config,
    parse_config,
    serialize_config,
)
from tddsim.domain import DEFAULT_MCS_TABLE, Role
from tddsim.errors import ConfigError
from tddsim.schedule import SlotCategory

from conftest import SCENARIOS, declared_sections, perfbench_workloads


def minimal_config(**overrides) -> dict:
    data = {
        "name": "unit",
        "nodes": [
            {"id": "ap", "role": "dn_ap", "position": [0.0, 0.0]},
            {"id": "sta", "role": "cn_sta", "position": [100.0, 0.0]},
        ],
        "traffic": [
            {"link": "ap-sta", "direction": "downlink", "demand_bps": 1.0e9,
             "pattern": "saturated"},
        ],
    }
    data.update(overrides)
    return data


def test_minimal_config_parses_with_defaults():
    cfg = parse_config(minimal_config())
    assert cfg.name == "unit"
    assert cfg.sim.duration_us == 300000
    assert cfg.sim.dl_data_fraction == 0.75
    assert cfg.slot_structure.n_slots == 24
    assert cfg.slot_structure.basic_slots == [0, 12]
    assert cfg.channel.carrier_freq_hz == 60e9
    assert cfg.frames.data_payload == 1500
    assert cfg.maintenance.tpc.enabled is False


def test_builders_produce_runtime_objects():
    cfg = parse_config(minimal_config())
    nodes = cfg.build_nodes()
    assert set(nodes) == {"ap", "sta"}
    assert nodes["ap"].role is Role.DN_AP
    assert len(nodes["ap"].codebook) == 8
    channel = cfg.build_channel()
    assert channel.carrier_hz == 60e9
    structure = cfg.build_structure()
    assert len(structure.slots) == 24
    assert structure.slots[0].category is SlotCategory.BASIC
    assert structure.slots[1].category is SlotCategory.DATA
    assert (cfg.sim.sp_offset_us, cfg.sim.sp_duration_us) == (0, 25600)
    assert cfg.build_mcs_table() == list(DEFAULT_MCS_TABLE)
    sources = cfg.traffic_sources()
    assert set(sources) == {"ap-sta:downlink"}
    assert sources["ap-sta:downlink"].pattern == "saturated"
    settings = cfg.maintenance_settings()
    assert settings.tpc_enabled is False


def test_custom_mcs_table_and_extra_loss():
    data = minimal_config(
        mcs_table=[
            {"mcs": 0, "min_snr_db": 1.0, "rate_bps": 385000000},
            {"mcs": 4, "min_snr_db": 9.0, "rate_bps": 1925000000},
        ],
        channel={"extra_loss_db": [{"a": "ap", "b": "sta", "loss_db": 3.5}]},
    )
    cfg = parse_config(data)
    table = cfg.build_mcs_table()
    assert [e.mcs_index for e in table] == [0, 4]
    channel = cfg.build_channel()
    assert channel.extra_loss_db == {frozenset({"ap", "sta"}): 3.5}


def test_error_collection_reports_every_problem():
    data = minimal_config(
        sim={"duration_us": -5, "dl_data_fraction": 1.5},
        mystery={"x": 1},
    )
    data["nodes"].append({"id": "ap", "role": "wizard", "position": [0.0, 0.0]})
    data["traffic"].append(
        {"link": "ap-ghost", "direction": "sideways", "demand_bps": -1,
         "pattern": "burst"},
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    problems = exc.value.problems
    text = "\n".join(problems)
    assert "mystery: unknown section" in problems
    assert "sim.duration_us: must be positive" in problems
    assert "sim.dl_data_fraction: must be between 0 and 1 exclusive" in problems
    assert "duplicate node id 'ap'" in text
    assert "nodes[2].role: unknown role 'wizard'" in problems
    assert "nodes[2].position: coincides with node 'ap'" in problems
    assert "traffic[1].link: unknown node 'ghost'" in text
    assert "traffic[1].direction: expected downlink or uplink" in problems
    assert "traffic[1].demand_bps: must be positive" in problems
    assert "traffic[1].pattern" in text
    # All problems surface in one exception.
    assert len(problems) >= 9


def test_reserved_separators_in_node_ids():
    data = minimal_config()
    data["nodes"][1]["id"] = "sta:1"
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert any("reserved separators" in p for p in exc.value.problems)


def test_link_endpoint_roles_enforced():
    data = minimal_config()
    data["traffic"][0]["link"] = "sta-ap"
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    text = "\n".join(exc.value.problems)
    assert "'sta' is not an AP" in text
    assert "'ap' must be a STA role" in text


def test_duplicate_traffic_flow_rejected():
    data = minimal_config()
    data["traffic"].append(dict(data["traffic"][0]))
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert any("duplicate traffic entry" in p for p in exc.value.problems)


def test_bf_run_and_trained_link_checks():
    data = minimal_config(
        beamforming={
            "runs": [
                {"mode": "individual", "initiator": "ap",
                 "responders": ["sta", "sta"]},
                {"mode": "teleport", "initiator": "nobody", "responders": []},
            ],
            "trained_links": [
                {"initiator": "ap", "responder": "sta",
                 "initiator_sector": 99, "responder_sector": 0},
            ],
        },
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    text = "\n".join(exc.value.problems)
    assert "duplicate responders" in text
    assert "individual mode takes exactly one responder" in text
    assert "unknown node 'nobody'" in text
    assert "must be non-empty" in text
    assert "initiator_sector: out of range" in text


def test_training_plans_must_fit_the_service_period():
    # A 1,600 us SP holds 1,584 us of slots: an 18 x 22 measurement sweep of
    # 4 us frames fills them exactly, an 18 x 23 one does not.
    data = minimal_config(
        sim={"sp_duration_us": 1600},
        nodes=[
            {"id": "ap", "role": "dn_ap", "position": [0.0, 0.0], "sectors": 18},
            {"id": "sta", "role": "cn_sta", "position": [100.0, 0.0], "sectors": 22},
            {"id": "wide", "role": "cn_sta", "position": [0.0, 100.0], "sectors": 23},
        ],
        beamforming={"runs": [
            {"mode": "measurement", "initiator": "ap", "responders": ["sta"]},
            {"mode": "measurement", "initiator": "ap", "responders": ["wide"]},
        ]},
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.problems == [
        "beamforming.runs[1]: service period window of 1584us cannot fit a 1656us training plan",
    ]
    data["beamforming"]["runs"].pop()
    parse_config(data)


@pytest.mark.parametrize("key", ["ssw_slot_us", "feedback_slot_us", "ack_slot_us", "announce_slot_us"])
def test_training_slot_pitches_must_be_positive(key):
    data = minimal_config(beamforming={
        key: 0, "runs": [{"mode": "individual", "initiator": "ap", "responders": ["sta"]}],
    })
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.problems == [f"beamforming.{key}: must be positive"]


def test_periodic_report_must_reference_traffic():
    data = minimal_config(
        maintenance={
            "periodic_reports": [
                {"link": "ap-sta", "direction": "uplink", "start_us": 0,
                 "interval_us": 1000, "count": 1},
            ],
        },
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert any("no traffic entry for ap-sta uplink" in p for p in exc.value.problems)


def test_duplicate_report_request_rejected():
    # A second request for the same link and direction would replace the
    # first one's schedule.
    report = {"link": "ap-sta", "direction": "downlink", "start_us": 10000,
              "interval_us": 100000, "count": 3}
    data = minimal_config(
        maintenance={"periodic_reports": [report, dict(report, start_us=15000, count=1)]},
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.problems == [
        "maintenance.periodic_reports[1]: duplicate report request for ap-sta downlink"
    ]
    data["maintenance"]["periodic_reports"][1]["direction"] = "uplink"
    data["traffic"].append(dict(data["traffic"][0], direction="uplink"))
    parse_config(data)


def test_sp_must_hold_whole_intervals():
    data = minimal_config(sim={"sp_duration_us": 25000})
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert any("whole number of TDD intervals" in p for p in exc.value.problems)


def test_basic_slot_bounds():
    data = minimal_config(slot_structure={"basic_slots": [0, 24]})
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert any("index 24 out of range" in p for p in exc.value.problems)


@pytest.mark.parametrize("basic_slots", [[0, True], [12, False]])
def test_boolean_basic_slot_is_not_an_index(basic_slots):
    # `True == 1`, so a boolean would otherwise pass as slot 1 (or 0).
    data = minimal_config(slot_structure={"basic_slots": basic_slots})
    flag = basic_slots[1]
    assert problems_of(data) == [f"slot_structure.basic_slots: index {flag} is not an integer"]


@pytest.mark.parametrize("node, problem", [
    # The default position [0, 0] is where `ap` stands.
    ({"position": "x"}, "nodes[1].position: expected a list"),
    # The default power, 10 dBm, is above this node's maximum.
    ({"tx_power_dbm": "x", "power_max_dbm": 5.0}, "nodes[1].tx_power_dbm: expected a number"),
])
def test_a_field_of_the_wrong_type_is_its_only_problem(node, problem):
    # The field keeps its default, which no cross-field rule may judge.
    data = minimal_config()
    data["nodes"][1].update(node)
    assert problems_of(data) == [problem]


def test_unknown_field_inside_section():
    data = minimal_config(sim={"duration_sec": 1})
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert "sim.duration_sec: unknown field" in exc.value.problems


def test_keys_no_model_reads_are_unknown_fields():
    data = minimal_config(
        maintenance={"keepalive_period_us": 25600, "sync_tolerance_us": 1.0},
        frames={"ssw": 32, "announce": 128},
    )
    data["nodes"][0]["drift_ppm"] = 5.0
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert sorted(exc.value.problems) == [
        "frames.announce: unknown field",
        "frames.ssw: unknown field",
        "maintenance.keepalive_period_us: unknown field",
        "maintenance.sync_tolerance_us: unknown field",
        "nodes[0].drift_ppm: unknown field",
    ]


def test_type_coercion_errors():
    data = minimal_config(sim={"duration_us": "long", "seed": 1.5})
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert "sim.duration_us: expected a number" in exc.value.problems
    assert "sim.seed: expected an integer" in exc.value.problems


def test_list_entry_problems_are_all_collected():
    data = minimal_config(
        mcs_table=[
            {"mcs": "x", "min_snr_db": 1.0, "rate_bps": 0},
            {"mcs": 1, "min_snr_db": "lots", "rate_bps": math.nan},
            {"mcs": 2.5, "min_snr_db": 3.0, "rate_bps": -4},
        ],
        channel={"extra_loss_db": [{"a": "ap", "b": "sta", "loss_db": "lots"}]},
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.problems == [
        "channel.extra_loss_db[0].loss_db: expected a number",
        "mcs_table[0].mcs: expected a number",
        "mcs_table[0].rate_bps: must be at least 1",
        "mcs_table[1].min_snr_db: expected a number",
        "mcs_table[1].rate_bps: expected an integer",
        "mcs_table[2].mcs: expected an integer",
        "mcs_table[2].rate_bps: must be at least 1",
    ]


def problems_of(data) -> list[str]:
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    return exc.value.problems


@pytest.mark.parametrize("section, entry, problem", [
    ("mcs_table", {"mcs": 3, "rate_bps": 100}, "mcs_table[0]: expected keys mcs, min_snr_db, rate_bps"),
    ("mcs_table", {"mcs": 3, "min_snr_db": 1, "rate_bps": 100, "x": 1},
     "mcs_table[0]: expected keys mcs, min_snr_db, rate_bps"),
    ("mcs_table", 5, "mcs_table[0]: expected keys mcs, min_snr_db, rate_bps"),
    ("channel", {"a": "ap", "loss_db": 3.0}, "channel.extra_loss_db[0]: expected keys a, b, loss_db"),
])
def test_mcs_rows_and_extra_losses_need_every_key(section, entry, problem):
    value = [entry] if section == "mcs_table" else {"extra_loss_db": [entry]}
    assert problems_of(minimal_config(**{section: value})) == [problem]


@pytest.mark.parametrize("overrides, problem", [
    # Each would also fail a rule that relates it to another field, or the
    # slot template's own check (one problem per slot of length 0).
    ({"slot_structure": {"slot_us": 0}}, "slot_structure.slot_us: must be positive"),
    ({"slot_structure": {"interval_us": 0}}, "slot_structure.interval_us: must be positive"),
    ({"sim": {"sp_duration_us": 0, "sp_offset_us": 400000}}, "sim.sp_duration_us: must be positive"),
])
def test_a_field_outside_its_bound_is_its_only_problem(overrides, problem):
    assert problems_of(minimal_config(**overrides)) == [problem]


def test_a_traffic_entry_needs_a_demand():
    data = minimal_config()
    del data["traffic"][0]["demand_bps"]
    assert problems_of(data) == ["traffic[0].demand_bps: must be positive"]


NON_FINITE = [
    ("channel", {"noise_figure_db": math.nan}, "channel.noise_figure_db"),
    ("channel", {"noise_figure_db": math.inf}, "channel.noise_figure_db"),
    ("channel", {"carrier_freq_hz": math.nan}, "channel.carrier_freq_hz"),
    ("channel", {"extra_loss_db": [{"a": "ap", "b": "sta", "loss_db": math.nan}]},
     "channel.extra_loss_db[0].loss_db"),
    ("mcs_table", [{"mcs": 0, "min_snr_db": math.nan, "rate_bps": 385000000}], "mcs_table[0].min_snr_db"),
    ("sim", {"dl_data_fraction": math.nan}, "sim.dl_data_fraction"),
    ("maintenance", {"tpc": {"target_rsni_db": -math.inf}}, "maintenance.tpc.target_rsni_db"),
]


@pytest.mark.parametrize("section, value, path", NON_FINITE)
def test_every_float_must_be_finite(section, value, path):
    assert problems_of(minimal_config(**{section: value})) == [f"{path}: must be finite"]


@pytest.mark.parametrize("key, value", [
    ("demand_bps", math.inf), ("tx_power_dbm", math.nan), ("position", [0.0, math.inf]),
])
def test_node_and_traffic_floats_must_be_finite(key, value):
    data = minimal_config()
    records = "traffic" if key == "demand_bps" else "nodes"
    data[records][0][key] = value
    assert problems_of(data) == [f"{records}[0].{key}: must be finite"]


def test_a_rate_that_no_pattern_reads_may_be_nan():
    data = minimal_config()
    data["traffic"][0]["rate_bps"] = math.nan
    assert math.isnan(parse_config(data).traffic[0].rate_bps)


@pytest.mark.parametrize("frames, problems", [
    ({"data_payload": 0, "data_overhead": 0},
     ["frames.data_payload: must be at least 1", "frames.data_overhead: must be at least 1"]),
    ({"data_payload": -100}, ["frames.data_payload: must be at least 1"]),
    ({"ack": -16}, ["frames.ack: must be at least 1"]),
])
def test_frame_sizes_must_be_at_least_one_byte(frames, problems, tmp_path):
    text = (SCENARIOS / "two_node_dl.yaml").read_text()
    path = tmp_path / "frames.yaml"
    path.write_text(text + yaml.safe_dump({"frames": frames}))
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert exc.value.problems == problems


def test_extra_loss_must_name_known_nodes():
    data = minimal_config(channel={"extra_loss_db": [
        {"a": "ap", "b": "sta", "loss_db": 3.0}, {"a": "ghost", "b": "sta", "loss_db": 1.0},
    ]})
    assert problems_of(data) == ["channel.extra_loss_db[1].a: unknown node 'ghost'"]


def test_mainlobe_gain_must_exceed_sidelobe_gain():
    data = minimal_config()
    data["nodes"][1].update(mainlobe_gain_dbi=5.0, sidelobe_gain_dbi=5.0)
    assert problems_of(data) == ["nodes[1]: mainlobe_gain_dbi must exceed sidelobe_gain_dbi"]


@pytest.mark.parametrize("section, value, problem", [
    ("slot_structure", {"basic_slots": [[0], 0, 0]},
     "slot_structure.basic_slots: index [0] out of range"),
    ("beamforming", {"runs": [{"mode": "individual", "initiator": "ap", "responders": [{"x": 1}]}]},
     "beamforming.runs[0].responders: unknown node {'x': 1}"),
])
def test_unhashable_list_entries_are_problems(section, value, problem):
    assert problem in problems_of(minimal_config(**{section: value}))


# How README's key table writes each bound.
README_BOUNDS = {
    "> 0": POSITIVE, "≥ 0": NON_NEGATIVE, "≥ 1": AT_LEAST_1, "between 0 and 1": FRACTION,
    "non-empty": NON_EMPTY, "any float": ANY_FLOAT,
}


def test_readme_key_table_is_the_declared_schema():
    readme = (SCENARIOS.parent / "README.md").read_text()
    table = readme.split("| section | keys |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        section, keys = row.strip("| ").split(" | ")
        path = "" if section == "top level" else section.strip("`")
        documented[path] = re.findall(r"`([a-z_]+)`(?: \(([^)]*)\))?", keys)
    declared = declared_sections()
    assert list(documented) == list(declared)
    for path, section in declared.items():
        assert [key for key, _ in documented[path]] == list(vars(section)), path
        bounds = {key: README_BOUNDS[bound] for key, bound in documented[path] if bound}
        assert bounds == section.LIMITS, path


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(str(tmp_path / "absent.yaml"))
    assert exc.value.problems


def test_load_config_reports_parse_position(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nnodes:\n  - id: a\n   role: b\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(bad))
    assert "line" in exc.value.problems[0]


def test_load_config_empty_file(tmp_path):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError) as exc:
        load_config(str(empty))
    assert "empty document" in exc.value.problems[0]


def test_every_scenario_fixture_round_trips(scenario_dir):
    fixtures = sorted(scenario_dir.glob("*.yaml"))
    assert len(fixtures) >= 7
    for path in fixtures:
        cfg = load_config(str(path))
        canon = serialize_config(cfg)
        reparsed = parse_config(yaml.safe_load(canon))
        assert reparsed.to_dict() == cfg.to_dict(), path.name
        assert serialize_config(reparsed) == canon, path.name


def test_serialization_is_stable_under_key_order():
    data = minimal_config()
    shuffled = dict(reversed(list(copy.deepcopy(data).items())))
    assert serialize_config(parse_config(data)) == serialize_config(parse_config(shuffled))


def _generated_configs() -> list[str]:
    """The benchmark's generated mesh_train and cbr_long scenarios, seeds 1, 2, 3 and 7."""
    generators = perfbench_workloads().GENERATORS
    return [gen(seed) for gen in generators.values() for seed in (1, 2, 3, 7)]


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_and_pure_loaders_parse_every_config_alike(scenario_dir):
    texts = [path.read_text() for path in sorted(scenario_dir.glob("*.yaml"))]
    texts += _generated_configs()
    assert len(texts) == 7 + 8
    for text in texts:
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


MALFORMED = [
    "name: x\nnodes:\n  - id: a\n   role: b\n",
    "a: [1, 2\n",
    "a: 'unterminated\n",
    'a: "bad \\q escape"\n',
    "a: b: c\n",
    "a: 1\n\tb: 2\n",
    "&x a: *y\n",
    "key: [a, b]]\n",
    "a: @foo\n",
    "%YAML 2.0\n---\na: 1\n",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_parse_errors_keep_the_pure_loaders_words(text, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    with pytest.raises(yaml.YAMLError) as pure:
        yaml.load(text, Loader=yaml.SafeLoader)
    mark = pure.value.problem_mark
    with pytest.raises(ConfigError) as exc:
        load_config(str(bad))
    assert exc.value.problems == [
        f"{bad}: parse error at line {mark.line + 1}, column {mark.column + 1}: "
        f"{pure.value.problem}"
    ]
