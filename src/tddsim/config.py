"""Scenario configuration: YAML schema, validation, and canonical round-trip.

A scenario file is one YAML document with nested sections. load_config
collects every validation problem before failing, so a broken file reports
all of its errors at once. to_dict materializes defaults, giving a canonical
form that survives load -> serialize -> load unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Collection, Optional

import yaml

from .beamforming import BeamformingConfig, BfMode, fit_sweep_plan
from .channel import LinkBudgetConfig
from .domain import (
    DEFAULT_MCS_TABLE,
    McsEntry,
    NodeModel,
    PowerLimits,
    Role,
    uniform_codebook,
    validate_mcs_table,
)
from .engine import MaintenanceSettings, TrafficSource
from .errors import ConfigError
from .frames import FrameSizes
from .schedule import (
    Direction,
    ExtendedScheduleEntry,
    SlotCategory,
    SlotSpec,
    TddSlotStructure,
    sp_window,
    validate_structure,
)

_ROLES = {role.value: role for role in Role}
_DIRECTIONS = {d.value: d for d in Direction}
_PATTERNS = ("saturated", "cbr", "none")
_BF_MODES = {m.value: m for m in BfMode}


@dataclass
class SimSection:
    duration_us: int = 300_000
    seed: int = 1
    beacon_interval_us: int = 300_000
    sp_offset_us: int = 0
    sp_duration_us: int = 25_600
    dl_data_fraction: float = 0.75


@dataclass
class ChannelSection:
    carrier_freq_hz: float = 60.0e9
    bandwidth_hz: float = 2.16e9
    noise_figure_db: float = 10.0
    interference_threshold_db: float = 0.0
    extra_loss_db: list = field(default_factory=list)  # {a, b, loss_db}


@dataclass
class SlotStructureSection:
    allocation_id: int = 1
    interval_us: int = 1600
    slot_us: int = 66
    n_slots: int = 24
    basic_slots: list = field(default_factory=lambda: [0, 12])


@dataclass
class NodeSection:
    id: str = ""
    role: str = "cn_sta"
    position: list = field(default_factory=lambda: [0.0, 0.0])
    sectors: int = 8
    tx_power_dbm: float = 10.0
    mainlobe_gain_dbi: float = 25.0
    sidelobe_gain_dbi: float = -10.0
    power_min_dbm: float = -10.0
    power_max_dbm: float = 20.0


@dataclass
class TrafficSection:
    link: str = ""
    direction: str = "downlink"
    demand_bps: float = 0.0
    pattern: str = "saturated"
    rate_bps: float = 0.0
    start_us: int = 0


@dataclass
class BfRunSection:
    mode: str = "individual"
    initiator: str = ""
    responders: list = field(default_factory=list)


@dataclass
class TrainedLinkSection:
    initiator: str = ""
    responder: str = ""
    initiator_sector: int = 0
    responder_sector: int = 0


@dataclass
class BeamformingSection:
    ssw_slot_us: int = 4
    feedback_slot_us: int = 4
    ack_slot_us: int = 4
    announce_slot_us: int = 8
    runs: list = field(default_factory=list)
    trained_links: list = field(default_factory=list)


@dataclass
class TpcSection:
    enabled: bool = False
    target_rsni_db: float = 20.0
    max_step_db: float = 3.0


@dataclass
class ReportRequestSection:
    link: str = ""
    direction: str = "downlink"
    start_us: int = 0
    interval_us: int = 100_000
    count: int = 1


@dataclass
class MaintenanceSection:
    keepalive_timeout_us: int = 1_000_000
    heartbeat_period_us: int = 25_600
    tpc: TpcSection = field(default_factory=TpcSection)
    periodic_reports: list = field(default_factory=list)


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    sim: SimSection = field(default_factory=SimSection)
    channel: ChannelSection = field(default_factory=ChannelSection)
    slot_structure: SlotStructureSection = field(default_factory=SlotStructureSection)
    frames: FrameSizes = field(default_factory=FrameSizes)
    mcs_table: list = field(default_factory=list)  # empty -> default table
    nodes: list = field(default_factory=list)
    traffic: list = field(default_factory=list)
    beamforming: BeamformingSection = field(default_factory=BeamformingSection)
    maintenance: MaintenanceSection = field(default_factory=MaintenanceSection)

    # -- builders into runtime objects ---------------------------------------

    def build_nodes(self) -> dict[str, NodeModel]:
        out = {}
        for n in self.nodes:
            out[n.id] = NodeModel(
                node_id=n.id,
                role=_ROLES[n.role],
                position=(float(n.position[0]), float(n.position[1])),
                codebook=uniform_codebook(
                    n.sectors,
                    mainlobe_gain_dbi=n.mainlobe_gain_dbi,
                    sidelobe_gain_dbi=n.sidelobe_gain_dbi,
                ),
                tx_power_dbm=n.tx_power_dbm,
                power_limits=PowerLimits(min_dbm=n.power_min_dbm, max_dbm=n.power_max_dbm),
            )
        return out

    def build_channel(self) -> LinkBudgetConfig:
        extra = {
            frozenset((e["a"], e["b"])): float(e["loss_db"])
            for e in self.channel.extra_loss_db
        }
        return LinkBudgetConfig(
            carrier_hz=self.channel.carrier_freq_hz,
            bandwidth_hz=self.channel.bandwidth_hz,
            noise_figure_db=self.channel.noise_figure_db,
            interference_threshold_db=self.channel.interference_threshold_db,
            extra_loss_db=extra,
        )

    def build_structure(self) -> TddSlotStructure:
        s = self.slot_structure
        slots = tuple(
            SlotSpec(
                start_offset_us=i * s.slot_us,
                duration_us=s.slot_us,
                category=(
                    SlotCategory.BASIC if i in s.basic_slots else SlotCategory.DATA
                ),
            )
            for i in range(s.n_slots)
        )
        return TddSlotStructure(
            allocation_id=s.allocation_id,
            interval_duration_us=s.interval_us,
            slots=slots,
        )

    def build_sp_entry(self, start_time_us: int = 0) -> ExtendedScheduleEntry:
        return ExtendedScheduleEntry(
            allocation_id=self.slot_structure.allocation_id,
            start_time_us=start_time_us + self.sim.sp_offset_us,
            duration_us=self.sim.sp_duration_us,
        )

    def build_mcs_table(self) -> list[McsEntry]:
        if not self.mcs_table:
            return list(DEFAULT_MCS_TABLE)
        return [
            McsEntry(
                mcs_index=int(e["mcs"]),
                min_snr_db=float(e["min_snr_db"]),
                phy_rate_bps=int(e["rate_bps"]),
            )
            for e in self.mcs_table
        ]

    def build_bf_config(self) -> BeamformingConfig:
        b = self.beamforming
        return BeamformingConfig(
            ssw_slot_us=b.ssw_slot_us,
            feedback_slot_us=b.feedback_slot_us,
            ack_slot_us=b.ack_slot_us,
            announce_slot_us=b.announce_slot_us,
        )

    def maintenance_settings(self) -> MaintenanceSettings:
        m = self.maintenance
        return MaintenanceSettings(
            keepalive_timeout_us=m.keepalive_timeout_us,
            heartbeat_period_us=m.heartbeat_period_us,
            tpc_enabled=m.tpc.enabled,
            tpc_target_rsni_db=m.tpc.target_rsni_db,
            tpc_max_step_db=m.tpc.max_step_db,
        )

    def traffic_sources(self) -> dict[str, TrafficSource]:
        out = {}
        for t in self.traffic:
            vid = f"{t.link}:{t.direction}"
            out[vid] = TrafficSource(
                pattern=t.pattern, rate_bps=t.rate_bps, start_us=t.start_us
            )
        return out

    # -- canonical form -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "sim": vars(self.sim).copy(),
            "channel": {
                "carrier_freq_hz": self.channel.carrier_freq_hz,
                "bandwidth_hz": self.channel.bandwidth_hz,
                "noise_figure_db": self.channel.noise_figure_db,
                "interference_threshold_db": self.channel.interference_threshold_db,
                "extra_loss_db": [
                    {"a": e["a"], "b": e["b"], "loss_db": float(e["loss_db"])}
                    for e in self.channel.extra_loss_db
                ],
            },
            "slot_structure": {
                "allocation_id": self.slot_structure.allocation_id,
                "interval_us": self.slot_structure.interval_us,
                "slot_us": self.slot_structure.slot_us,
                "n_slots": self.slot_structure.n_slots,
                "basic_slots": list(self.slot_structure.basic_slots),
            },
            "frames": {
                "data_payload": self.frames.data_payload,
                "data_overhead": self.frames.data_overhead,
                "ack": self.frames.ack,
                "measurement_report": self.frames.measurement_report,
            },
            "mcs_table": [
                {"mcs": int(e["mcs"]), "min_snr_db": float(e["min_snr_db"]),
                 "rate_bps": int(e["rate_bps"])}
                for e in self.mcs_table
            ],
            "nodes": [vars(n).copy() for n in self.nodes],
            "traffic": [vars(t).copy() for t in self.traffic],
            "beamforming": {
                "ssw_slot_us": self.beamforming.ssw_slot_us,
                "feedback_slot_us": self.beamforming.feedback_slot_us,
                "ack_slot_us": self.beamforming.ack_slot_us,
                "announce_slot_us": self.beamforming.announce_slot_us,
                "runs": [vars(r).copy() for r in self.beamforming.runs],
                "trained_links": [vars(t).copy() for t in self.beamforming.trained_links],
            },
            "maintenance": {
                "keepalive_timeout_us": self.maintenance.keepalive_timeout_us,
                "heartbeat_period_us": self.maintenance.heartbeat_period_us,
                "tpc": vars(self.maintenance.tpc).copy(),
                "periodic_reports": [vars(r).copy() for r in self.maintenance.periodic_reports],
            },
        }


# ---------------------------------------------------------------------------
# Parsing with exhaustive error collection.


def _take(data: dict, section: str, known: Collection[str], errors: list) -> dict:
    sub = data.get(section, {})
    if sub is None:
        sub = {}
    if not isinstance(sub, dict):
        errors.append(f"{section}: expected a mapping, got {type(sub).__name__}")
        return {}
    for key in sub:
        if key not in known:
            errors.append(f"{section}.{key}: unknown field")
    return sub


def _coerce(section: str, key: str, value: Any, template: Any, errors: list) -> Any:
    """Type-check a scalar against the default value's type."""
    if isinstance(template, bool):
        if not isinstance(value, bool):
            errors.append(f"{section}.{key}: expected a boolean")
            return template
        return value
    if isinstance(template, int) and not isinstance(template, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{section}.{key}: expected a number")
            return template
        if isinstance(value, float) and not value.is_integer():
            errors.append(f"{section}.{key}: expected an integer")
            return template
        return int(value)
    if isinstance(template, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{section}.{key}: expected a number")
            return template
        return float(value)
    if isinstance(template, str):
        if not isinstance(value, str):
            errors.append(f"{section}.{key}: expected a string")
            return template
        return value
    if isinstance(template, list):
        if not isinstance(value, list):
            errors.append(f"{section}.{key}: expected a list")
            return template
        return value
    return value


def _fill(section_name: str, cls, data: dict, errors: list):
    obj = cls()
    sub = _take(data, section_name, vars(obj), errors)
    for key, template in vars(obj).items():
        if key in sub:
            setattr(obj, key, _coerce(section_name, key, sub[key], template, errors))
    return obj


def _fill_item(path: str, cls, item: Any, errors: list):
    obj = cls()
    if not isinstance(item, dict):
        errors.append(f"{path}: expected a mapping")
        return obj
    for key in item:
        if key not in vars(obj):
            errors.append(f"{path}.{key}: unknown field")
    for key, template in vars(obj).items():
        if key in item:
            setattr(obj, key, _coerce(path, key, item[key], template, errors))
    return obj


_TOP_LEVEL = {
    "name", "sim", "channel", "slot_structure", "frames", "mcs_table",
    "nodes", "traffic", "beamforming", "maintenance",
}


def parse_config(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed YAML, collecting all problems."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a mapping"])
    for key in data:
        if key not in _TOP_LEVEL:
            errors.append(f"{key}: unknown section")

    cfg = ScenarioConfig()
    name = data.get("name", "scenario")
    if not isinstance(name, str) or not name:
        errors.append("name: expected a non-empty string")
    else:
        cfg.name = name

    cfg.sim = _fill("sim", SimSection, data, errors)
    channel_raw = _take(data, "channel", vars(ChannelSection()), errors)
    cfg.channel = ChannelSection()
    for key, template in vars(ChannelSection()).items():
        if key in channel_raw and key != "extra_loss_db":
            setattr(cfg.channel, key, _coerce("channel", key, channel_raw[key], template, errors))
    for i, entry in enumerate(channel_raw.get("extra_loss_db") or []):
        if not isinstance(entry, dict) or set(entry) != {"a", "b", "loss_db"}:
            errors.append(f"channel.extra_loss_db[{i}]: expected keys a, b, loss_db")
        else:
            cfg.channel.extra_loss_db.append(
                {"a": str(entry["a"]), "b": str(entry["b"]), "loss_db": float(entry["loss_db"])}
            )

    cfg.slot_structure = _fill("slot_structure", SlotStructureSection, data, errors)

    frame_keys = ("data_payload", "data_overhead", "ack", "measurement_report")
    frames_raw = _take(data, "frames", frame_keys, errors)
    frame_kwargs = {}
    for key in frame_keys:
        if key in frames_raw:
            frame_kwargs[key] = _coerce("frames", key, frames_raw[key], 0, errors)
    try:
        cfg.frames = FrameSizes(**frame_kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"frames: {exc}")
        cfg.frames = FrameSizes()

    raw_mcs = data.get("mcs_table") or []
    if not isinstance(raw_mcs, list):
        errors.append("mcs_table: expected a list")
        raw_mcs = []
    for i, entry in enumerate(raw_mcs):
        if not isinstance(entry, dict) or set(entry) != {"mcs", "min_snr_db", "rate_bps"}:
            errors.append(f"mcs_table[{i}]: expected keys mcs, min_snr_db, rate_bps")
        else:
            cfg.mcs_table.append({
                "mcs": int(entry["mcs"]),
                "min_snr_db": float(entry["min_snr_db"]),
                "rate_bps": int(entry["rate_bps"]),
            })

    for i, item in enumerate(data.get("nodes") or []):
        cfg.nodes.append(_fill_item(f"nodes[{i}]", NodeSection, item, errors))
    for i, item in enumerate(data.get("traffic") or []):
        cfg.traffic.append(_fill_item(f"traffic[{i}]", TrafficSection, item, errors))

    bf_raw = _take(data, "beamforming", vars(BeamformingSection()), errors)
    cfg.beamforming = BeamformingSection()
    for key, template in vars(BeamformingSection()).items():
        if key in bf_raw and key not in ("runs", "trained_links"):
            setattr(cfg.beamforming, key, _coerce("beamforming", key, bf_raw[key], template, errors))
    for i, item in enumerate(bf_raw.get("runs") or []):
        cfg.beamforming.runs.append(_fill_item(f"beamforming.runs[{i}]", BfRunSection, item, errors))
    for i, item in enumerate(bf_raw.get("trained_links") or []):
        cfg.beamforming.trained_links.append(
            _fill_item(f"beamforming.trained_links[{i}]", TrainedLinkSection, item, errors)
        )

    maint_raw = _take(data, "maintenance", vars(MaintenanceSection()), errors)
    cfg.maintenance = MaintenanceSection()
    for key, template in vars(MaintenanceSection()).items():
        if key in maint_raw and key not in ("tpc", "periodic_reports"):
            setattr(cfg.maintenance, key, _coerce("maintenance", key, maint_raw[key], template, errors))
    if "tpc" in maint_raw:
        cfg.maintenance.tpc = _fill_item("maintenance.tpc", TpcSection, maint_raw["tpc"], errors)
    for i, item in enumerate(maint_raw.get("periodic_reports") or []):
        cfg.maintenance.periodic_reports.append(
            _fill_item(f"maintenance.periodic_reports[{i}]", ReportRequestSection, item, errors)
        )

    errors.extend(validate_semantics(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def validate_semantics(cfg: ScenarioConfig) -> list[str]:
    """Cross-field checks; returns every problem found."""
    errors: list[str] = []
    sim = cfg.sim
    if sim.duration_us <= 0:
        errors.append("sim.duration_us: must be positive")
    if sim.beacon_interval_us <= 0:
        errors.append("sim.beacon_interval_us: must be positive")
    if sim.sp_offset_us < 0:
        errors.append("sim.sp_offset_us: must be non-negative")
    if sim.sp_duration_us <= 0:
        errors.append("sim.sp_duration_us: must be positive")
    elif sim.sp_offset_us + sim.sp_duration_us > sim.beacon_interval_us:
        errors.append("sim.sp_duration_us: service period does not fit the beacon interval")
    if not 0.0 < sim.dl_data_fraction < 1.0:
        errors.append("sim.dl_data_fraction: must be between 0 and 1 exclusive")

    ss = cfg.slot_structure
    if ss.interval_us > 0 and sim.sp_duration_us % ss.interval_us != 0:
        errors.append("sim.sp_duration_us: must be a whole number of TDD intervals")
    if ss.slot_us <= 0:
        errors.append("slot_structure.slot_us: must be positive")
    if ss.n_slots < 1:
        errors.append("slot_structure.n_slots: must be at least 1")
    if ss.interval_us <= 0:
        errors.append("slot_structure.interval_us: must be positive")
    elif ss.slot_us > 0 and ss.n_slots * ss.slot_us > ss.interval_us:
        errors.append("slot_structure.n_slots: slots overflow the TDD interval")
    if not ss.basic_slots:
        errors.append("slot_structure.basic_slots: at least one BASIC slot is required")
    for idx in ss.basic_slots:
        if not isinstance(idx, int) or not 0 <= idx < ss.n_slots:
            errors.append(f"slot_structure.basic_slots: index {idx} out of range")
    if len(set(ss.basic_slots)) != len(ss.basic_slots):
        errors.append("slot_structure.basic_slots: duplicate indices")

    if cfg.channel.carrier_freq_hz <= 0:
        errors.append("channel.carrier_freq_hz: must be positive")
    if cfg.channel.bandwidth_hz <= 0:
        errors.append("channel.bandwidth_hz: must be positive")

    if cfg.mcs_table:
        try:
            validate_mcs_table(cfg.build_mcs_table())
        except ValueError as exc:
            errors.append(f"mcs_table: {exc}")

    node_ids = set()
    roles: dict[str, str] = {}
    positions: dict[str, tuple] = {}
    for i, n in enumerate(cfg.nodes):
        path = f"nodes[{i}]"
        if not n.id:
            errors.append(f"{path}.id: must be non-empty")
            continue
        if "-" in n.id or ":" in n.id:
            errors.append(f"{path}.id: '-' and ':' are reserved separators")
        if n.id in node_ids:
            errors.append(f"{path}.id: duplicate node id {n.id!r}")
        node_ids.add(n.id)
        if n.role not in _ROLES:
            errors.append(f"{path}.role: unknown role {n.role!r}")
        else:
            roles[n.id] = n.role
        if not (isinstance(n.position, list) and len(n.position) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in n.position)):
            errors.append(f"{path}.position: expected [x, y] numbers")
        else:
            pos = (float(n.position[0]), float(n.position[1]))
            for other, other_pos in positions.items():
                if other_pos == pos:
                    errors.append(f"{path}.position: coincides with node {other!r}")
            positions[n.id] = pos
        if n.sectors < 1:
            errors.append(f"{path}.sectors: must be at least 1")
        if n.power_min_dbm > n.power_max_dbm:
            errors.append(f"{path}: power_min_dbm exceeds power_max_dbm")
        elif not n.power_min_dbm <= n.tx_power_dbm <= n.power_max_dbm:
            errors.append(f"{path}.tx_power_dbm: outside [power_min_dbm, power_max_dbm]")

    def check_link(path: str, link: str) -> Optional[tuple[str, str]]:
        parts = link.split("-")
        if len(parts) != 2 or not all(parts):
            errors.append(f"{path}: expected the form <ap>-<sta>")
            return None
        ap, sta = parts
        if ap not in node_ids:
            errors.append(f"{path}: unknown node {ap!r}")
            return None
        if sta not in node_ids:
            errors.append(f"{path}: unknown node {sta!r}")
            return None
        if roles.get(ap) != "dn_ap":
            errors.append(f"{path}: {ap!r} is not an AP")
        if roles.get(sta) == "dn_ap":
            errors.append(f"{path}: {sta!r} must be a STA role")
        return ap, sta

    seen_flows = set()
    traffic_flows = set()
    for i, t in enumerate(cfg.traffic):
        path = f"traffic[{i}]"
        check_link(f"{path}.link", t.link)
        if t.direction not in _DIRECTIONS:
            errors.append(f"{path}.direction: expected downlink or uplink")
        if t.demand_bps <= 0:
            errors.append(f"{path}.demand_bps: must be positive")
        if t.pattern not in _PATTERNS:
            errors.append(f"{path}.pattern: expected one of {', '.join(_PATTERNS)}")
        if t.pattern == "cbr" and not 1 <= t.rate_bps < math.inf:
            errors.append(f"{path}.rate_bps: cbr traffic needs a finite rate of at least 1 bit/s")
        if t.start_us < 0:
            errors.append(f"{path}.start_us: must be non-negative")
        flow = (t.link, t.direction)
        if flow in seen_flows:
            errors.append(f"{path}: duplicate traffic entry for {t.link} {t.direction}")
        seen_flows.add(flow)
        traffic_flows.add(flow)

    for i, run in enumerate(cfg.beamforming.runs):
        path = f"beamforming.runs[{i}]"
        if run.mode not in _BF_MODES:
            errors.append(f"{path}.mode: expected one of {', '.join(_BF_MODES)}")
        if run.initiator not in node_ids:
            errors.append(f"{path}.initiator: unknown node {run.initiator!r}")
        if not run.responders:
            errors.append(f"{path}.responders: must be non-empty")
        for r in run.responders:
            if r not in node_ids:
                errors.append(f"{path}.responders: unknown node {r!r}")
            if r == run.initiator:
                errors.append(f"{path}.responders: initiator cannot respond to itself")
        if len(set(run.responders)) != len(run.responders):
            errors.append(f"{path}.responders: duplicate responders")
        if run.mode == "individual" and len(run.responders) != 1:
            errors.append(f"{path}.responders: individual mode takes exactly one responder")

    for key in ("ssw_slot_us", "feedback_slot_us", "ack_slot_us", "announce_slot_us"):
        if getattr(cfg.beamforming, key) <= 0:
            errors.append(f"beamforming.{key}: must be positive")

    sectors_of = {n.id: n.sectors for n in cfg.nodes}
    for i, t in enumerate(cfg.beamforming.trained_links):
        path = f"beamforming.trained_links[{i}]"
        for who, sector in (("initiator", t.initiator_sector), ("responder", t.responder_sector)):
            node = getattr(t, who)
            if node not in node_ids:
                errors.append(f"{path}.{who}: unknown node {node!r}")
            elif not 0 <= sector < sectors_of[node]:
                errors.append(f"{path}.{who}_sector: out of range for {node!r}")
        if t.initiator in roles and t.responder in roles:
            ap_ends = [n for n in (t.initiator, t.responder) if roles[n] == "dn_ap"]
            if len(ap_ends) != 1:
                errors.append(f"{path}: exactly one endpoint must be an AP")

    m = cfg.maintenance
    for key in ("keepalive_timeout_us", "heartbeat_period_us"):
        if getattr(m, key) <= 0:
            errors.append(f"maintenance.{key}: must be positive")
    if m.tpc.max_step_db <= 0:
        errors.append("maintenance.tpc.max_step_db: must be positive")
    for i, r in enumerate(m.periodic_reports):
        path = f"maintenance.periodic_reports[{i}]"
        if r.direction not in _DIRECTIONS:
            errors.append(f"{path}.direction: expected downlink or uplink")
        if (r.link, r.direction) not in traffic_flows:
            errors.append(f"{path}.link: no traffic entry for {r.link} {r.direction}")
        if r.interval_us <= 0:
            errors.append(f"{path}.interval_us: must be positive")
        if r.count < 1:
            errors.append(f"{path}.count: must be at least 1")
        if r.start_us < 0:
            errors.append(f"{path}.start_us: must be non-negative")

    # Structural validity of the slot template itself.
    if not errors:
        for violation in validate_structure(cfg.build_structure()):
            errors.append(f"slot_structure: {violation.kind}: {violation.detail}")
    if not errors and cfg.beamforming.runs:
        errors.extend(_training_overflows(cfg))
    return errors


def _training_overflows(cfg: ScenarioConfig) -> list[str]:
    """A problem for each training run whose plan overflows its service period.

    Every run has a service period of the same shape, one beacon interval
    after the last, so the first one's window stands for all.
    """
    errors = []
    window = sp_window(cfg.build_sp_entry(), cfg.build_structure())
    nodes, bf_cfg = cfg.build_nodes(), cfg.build_bf_config()
    for i, run in enumerate(cfg.beamforming.runs):
        try:
            fit_sweep_plan(
                _BF_MODES[run.mode], nodes[run.initiator],
                [nodes[r] for r in run.responders], bf_cfg, window,
            )
        except ValueError as exc:
            errors.append(f"beamforming.runs[{i}]: {exc}")
    return errors


# libyaml's parser when PyYAML was built with it; the same safe constructor.
_FAST_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse_yaml(text: str) -> Any:
    try:
        return yaml.load(text, Loader=_FAST_LOADER)
    except yaml.YAMLError:
        # libyaml words some syntax errors differently: re-parse, so that an
        # error is always reported in the pure-Python parser's words.
        return yaml.load(text, Loader=yaml.SafeLoader)


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario file; raises ConfigError on any problem."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"{path}: {exc.strerror or exc}"])
    try:
        data = _parse_yaml(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError([f"{path}: parse error{where}: {getattr(exc, 'problem', exc)}"])
    if data is None:
        raise ConfigError([f"{path}: empty document"])
    return parse_config(data)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical YAML for a validated config; loads back to an equal config."""
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True, default_flow_style=False)
