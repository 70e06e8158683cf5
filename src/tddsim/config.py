"""Scenario configuration: YAML schema, validation, and canonical round-trip.

A scenario file is one YAML document with nested sections. Each Section
class is the one declaration of its fields; the walker _fill reads a file
against them, and to_dict writes them back. load_config collects every
validation problem before failing, so a broken file reports all of its
errors at once. to_dict materializes defaults, giving a canonical form that
survives load -> serialize -> load unchanged.
"""

from __future__ import annotations

import math
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
    SlotCategory,
    SlotSpec,
    TddSlotStructure,
    sp_window,
)

_ROLES = {role.value: role for role in Role}
_DIRECTIONS = {d.value: d for d in Direction}
_PATTERNS = ("saturated", "cbr", "none")
_BF_MODES = {m.value: m for m in BfMode}

# Each bound a field may declare in LIMITS: the message that refuses a value,
# and the test that refuses it.
_REFUSES = {
    "must be positive": lambda v: v <= 0,
    "must be non-negative": lambda v: v < 0,
    "must be at least 1": lambda v: v < 1,
    "must be between 0 and 1 exclusive": lambda v: not 0 < v < 1,
    "must be non-empty": lambda v: not v,
}
POSITIVE, NON_NEGATIVE, AT_LEAST_1, FRACTION, NON_EMPTY = _REFUSES
# Every float field must also be finite, except one declared ANY_FLOAT.
ANY_FLOAT = "may be NaN or infinite"


class Section:
    """A section of a scenario file, or one entry of a list of records in it.

    Each subclass's __init__ sets every field to its default: the walker
    takes the field names and value types from vars(), and to_dict copies
    vars() in order. ITEMS maps each list of records to its entry class, and
    LIMITS maps a field to its bound. A STRICT record has no defaults: every
    key is required, and an entry with any problem is read as None.
    """

    ITEMS: dict = {}
    LIMITS: dict = {}
    STRICT = False

    def to_dict(self) -> dict:
        out = {}
        for key, value in vars(self).items():
            if isinstance(value, Section):
                value = value.to_dict()
            elif key in self.ITEMS:
                value = [entry.to_dict() for entry in value]
            elif isinstance(value, list):
                value = list(value)
            out[key] = value
        return out


class SimSection(Section):
    LIMITS = {
        "duration_us": POSITIVE, "beacon_interval_us": POSITIVE, "sp_offset_us": NON_NEGATIVE,
        "sp_duration_us": POSITIVE, "dl_data_fraction": FRACTION,
    }

    def __init__(self):
        self.duration_us = 300_000
        self.seed = 1
        self.beacon_interval_us = 300_000
        self.sp_offset_us = 0
        self.sp_duration_us = 25_600
        self.dl_data_fraction = 0.75


class LossEntry(Section):
    STRICT = True

    def __init__(self):
        self.a = ""
        self.b = ""
        self.loss_db = 0.0


class ChannelSection(Section):
    ITEMS = {"extra_loss_db": LossEntry}
    LIMITS = {"carrier_freq_hz": POSITIVE, "bandwidth_hz": POSITIVE}

    def __init__(self):
        self.carrier_freq_hz = 60.0e9
        self.bandwidth_hz = 2.16e9
        self.noise_figure_db = 10.0
        self.interference_threshold_db = 0.0
        self.extra_loss_db = []


class SlotStructureSection(Section):
    LIMITS = {"interval_us": POSITIVE, "slot_us": POSITIVE, "n_slots": AT_LEAST_1}

    def __init__(self):
        self.allocation_id = 1
        self.interval_us = 1600
        self.slot_us = 66
        self.n_slots = 24
        self.basic_slots = [0, 12]


class FramesSection(Section):
    """The engine's FrameSizes, field for field, with the same defaults."""

    LIMITS = dict.fromkeys(FrameSizes._fields, AT_LEAST_1)

    def __init__(self):
        vars(self).update(FrameSizes()._asdict())


class McsRow(Section):
    STRICT = True
    LIMITS = {"rate_bps": AT_LEAST_1}

    def __init__(self):
        self.mcs = 0
        self.min_snr_db = 0.0
        self.rate_bps = 0


class NodeSection(Section):
    LIMITS = {"sectors": AT_LEAST_1}

    def __init__(self):
        self.id = ""
        self.role = "cn_sta"
        self.position = [0.0, 0.0]
        self.sectors = 8
        self.tx_power_dbm = 10.0
        self.mainlobe_gain_dbi = 25.0
        self.sidelobe_gain_dbi = -10.0
        self.power_min_dbm = -10.0
        self.power_max_dbm = 20.0


class TrafficSection(Section):
    # The cbr rule refuses a NaN or infinite rate, and only cbr reads it.
    LIMITS = {"demand_bps": POSITIVE, "rate_bps": ANY_FLOAT, "start_us": NON_NEGATIVE}

    def __init__(self):
        self.link = ""
        self.direction = "downlink"
        self.demand_bps = 0.0
        self.pattern = "saturated"
        self.rate_bps = 0.0
        self.start_us = 0


class BfRunSection(Section):
    def __init__(self):
        self.mode = "individual"
        self.initiator = ""
        self.responders = []


class TrainedLinkSection(Section):
    def __init__(self):
        self.initiator = ""
        self.responder = ""
        self.initiator_sector = 0
        self.responder_sector = 0


class BeamformingSection(Section):
    ITEMS = {"runs": BfRunSection, "trained_links": TrainedLinkSection}
    LIMITS = dict.fromkeys(
        ("ssw_slot_us", "feedback_slot_us", "ack_slot_us", "announce_slot_us"), POSITIVE
    )

    def __init__(self):
        self.ssw_slot_us = 4
        self.feedback_slot_us = 4
        self.ack_slot_us = 4
        self.announce_slot_us = 8
        self.runs = []
        self.trained_links = []


class TpcSection(Section):
    LIMITS = {"max_step_db": POSITIVE}

    def __init__(self):
        self.enabled = False
        self.target_rsni_db = 20.0
        self.max_step_db = 3.0


class ReportRequestSection(Section):
    LIMITS = {"start_us": NON_NEGATIVE, "interval_us": POSITIVE, "count": AT_LEAST_1}

    def __init__(self):
        self.link = ""
        self.direction = "downlink"
        self.start_us = 0
        self.interval_us = 100_000
        self.count = 1


class MaintenanceSection(Section):
    ITEMS = {"periodic_reports": ReportRequestSection}
    LIMITS = {"keepalive_timeout_us": POSITIVE, "heartbeat_period_us": POSITIVE}

    def __init__(self):
        self.keepalive_timeout_us = 1_000_000
        self.heartbeat_period_us = 25_600
        self.tpc = TpcSection()
        self.periodic_reports = []


class ScenarioConfig(Section):
    ITEMS = {"mcs_table": McsRow, "nodes": NodeSection, "traffic": TrafficSection}
    LIMITS = {"name": NON_EMPTY}

    def __init__(self):
        self.name = "scenario"
        self.sim = SimSection()
        self.channel = ChannelSection()
        self.slot_structure = SlotStructureSection()
        self.frames = FramesSection()
        self.mcs_table = []  # empty -> default table
        self.nodes = []
        self.traffic = []
        self.beamforming = BeamformingSection()
        self.maintenance = MaintenanceSection()

    # -- builders into runtime objects ---------------------------------------

    def build_nodes(self) -> dict[str, NodeModel]:
        """A new NodeModel per node entry. Nodes with the same antenna share
        one read-only Codebook, built once per call."""
        out, codebooks = {}, {}
        for n in self.nodes:
            antenna = (n.sectors, n.mainlobe_gain_dbi, n.sidelobe_gain_dbi)
            # Keyed by repr, so that -0.0 and 0.0 keep codebooks of their own.
            key = repr(antenna)
            if key not in codebooks:
                codebooks[key] = uniform_codebook(*antenna)
            out[n.id] = NodeModel(
                node_id=n.id,
                role=_ROLES[n.role],
                position=(float(n.position[0]), float(n.position[1])),
                codebook=codebooks[key],
                tx_power_dbm=n.tx_power_dbm,
                power_limits=PowerLimits(min_dbm=n.power_min_dbm, max_dbm=n.power_max_dbm),
            )
        return out

    def build_channel(self) -> LinkBudgetConfig:
        c = self.channel
        return LinkBudgetConfig(
            c.carrier_freq_hz, c.bandwidth_hz, c.noise_figure_db, c.interference_threshold_db,
            {frozenset((e.a, e.b)): e.loss_db for e in c.extra_loss_db},
        )

    def build_structure(self) -> TddSlotStructure:
        s = self.slot_structure
        slots = tuple(
            SlotSpec(
                i * s.slot_us, s.slot_us,
                SlotCategory.BASIC if i in s.basic_slots else SlotCategory.DATA,
            )
            for i in range(s.n_slots)
        )
        return TddSlotStructure(s.allocation_id, s.interval_us, slots)

    def build_mcs_table(self) -> list[McsEntry]:
        if not self.mcs_table:
            return list(DEFAULT_MCS_TABLE)
        return [McsEntry(e.mcs, e.min_snr_db, e.rate_bps) for e in self.mcs_table]

    def build_bf_config(self) -> BeamformingConfig:
        b = self.beamforming
        return BeamformingConfig(
            b.ssw_slot_us, b.feedback_slot_us, b.ack_slot_us, b.announce_slot_us,
            decode_min_snr_db=self.build_mcs_table()[0].min_snr_db,
        )

    def maintenance_settings(self) -> MaintenanceSettings:
        m = self.maintenance
        return MaintenanceSettings(
            m.keepalive_timeout_us, m.heartbeat_period_us,
            m.tpc.enabled, m.tpc.target_rsni_db, m.tpc.max_step_db,
        )

    def traffic_sources(self) -> dict[str, TrafficSource]:
        return {
            f"{t.link}:{t.direction}": TrafficSource(t.pattern, t.rate_bps, t.start_us)
            for t in self.traffic
        }


# ---------------------------------------------------------------------------
# Parsing with exhaustive error collection.


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The problem with a value of another type, by the type of a field's default.
_EXPECTED = {bool: "expected a boolean", str: "expected a string", list: "expected a list"}


def _coerce(
    path: str, value: Any, default: Any, limit: Optional[str], errors: list, replaced: set,
) -> Any:
    """value read as the type of the field's default, and held to its limit.

    A value of the wrong type, or a float that is not finite, leaves the
    default, and its path joins `replaced`, so that no cross-field rule
    judges the default. A value outside its bound is kept, so that the
    cross-field rules guard against it as they would against any other value.
    """
    problem = None
    kind = type(default)
    if kind in _EXPECTED:
        if not isinstance(value, kind):
            problem = _EXPECTED[kind]
    elif not _is_number(value):
        problem = "expected a number"
    elif kind is int and isinstance(value, float) and not value.is_integer():
        problem = "expected an integer"
    else:
        value = kind(value)
        if kind is float and limit != ANY_FLOAT and not math.isfinite(value):
            problem = "must be finite"
    if problem:
        errors.append(f"{path}: {problem}")
        replaced.add(path)
        return default
    if limit in _REFUSES and _REFUSES[limit](value):
        errors.append(f"{path}: {limit}")
    return value


def _fill(path: str, obj: Section, raw: Any, errors: list, replaced: set) -> Optional[Section]:
    """Set obj's fields from the parsed mapping raw, appending every problem.

    Returns obj, or None for a STRICT record with any problem. A missing or
    null section or list of records keeps its default; one of the wrong
    type keeps it too, and its path joins `replaced`.
    """
    n_errors = len(errors)
    fields = vars(obj)
    if obj.STRICT and (not isinstance(raw, dict) or raw.keys() != fields.keys()):
        errors.append(f"{path}: expected keys {', '.join(fields)}")
        return None
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected a mapping, got {type(raw).__name__}")
        return obj
    prefix = f"{path}." if path else ""
    for key in raw:
        if key not in fields:
            errors.append(f"{prefix}{key}: unknown {'field' if path else 'section'}")
    items, limits = obj.ITEMS, obj.LIMITS
    for key, default in fields.items():
        if key not in raw and key not in limits:
            continue
        value = raw.get(key, default)  # a missing key reads as its default, which its bound may refuse
        if key in items:
            if isinstance(value, list):
                entry = items[key]
                default.extend([
                    _fill(f"{prefix}{key}[{i}]", entry(), item, errors, replaced)
                    for i, item in enumerate(value)
                ])
            elif value is not None:
                errors.append(f"{prefix}{key}: expected a list")
                replaced.add(prefix + key)
        elif isinstance(default, Section):
            if value is not None:
                _fill(prefix + key, default, value, errors, replaced)
        else:
            setattr(obj, key, _coerce(
                prefix + key, value, default, limits.get(key), errors, replaced,
            ))
    return None if obj.STRICT and len(errors) > n_errors else obj


def parse_config(data: Any) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed YAML, collecting all problems."""
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a mapping"])
    errors: list[str] = []
    replaced: set[str] = set()
    cfg = _fill("", ScenarioConfig(), data, errors, replaced)
    errors.extend(validate_semantics(cfg, replaced))
    # The bounds and rules above are the slot grid's one check: slot i
    # starts at i * slot_us and lasts slot_us, so they leave every slot
    # positive, inside the interval and clear of the next, at least one BASIC.
    # The training plans are built only from a config with no problem at all.
    if not errors and cfg.beamforming.runs:
        errors = _training_overflows(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def _has_duplicates(values: list) -> bool:
    # By equality, not hashing: an entry may be any YAML value.
    return any(v in values[:i] for i, v in enumerate(values))


def validate_semantics(cfg: ScenarioConfig, replaced: Collection[str] = ()) -> list[str]:
    """The rules that relate fields to one another; returns every problem found.

    _fill has checked each field's type and bound. A field outside its bound
    keeps its value, so the rules that divide by or count with one guard it.
    A field of the wrong type kept its default instead; `replaced` holds its
    path, and a rule that reads it is skipped, since it would judge the
    default rather than the file.
    """
    errors: list[str] = []

    def read(*paths: str) -> bool:
        """Whether every field at `paths` holds the file's own value."""
        return not any(path in replaced for path in paths)

    sim = cfg.sim
    if (
        read("sim.sp_offset_us", "sim.sp_duration_us", "sim.beacon_interval_us")
        and sim.sp_duration_us > 0
        and sim.sp_offset_us + sim.sp_duration_us > sim.beacon_interval_us
    ):
        errors.append("sim.sp_duration_us: service period does not fit the beacon interval")

    ss = cfg.slot_structure
    shape = read("slot_structure.interval_us", "slot_structure.slot_us", "slot_structure.n_slots")
    if (
        read("sim.sp_duration_us", "slot_structure.interval_us")
        and ss.interval_us > 0 and sim.sp_duration_us % ss.interval_us != 0
    ):
        errors.append("sim.sp_duration_us: must be a whole number of TDD intervals")
    if shape and ss.interval_us > 0 and ss.slot_us > 0 and ss.n_slots * ss.slot_us > ss.interval_us:
        errors.append("slot_structure.n_slots: slots overflow the TDD interval")
    if read("slot_structure.basic_slots"):
        if not ss.basic_slots:
            errors.append("slot_structure.basic_slots: at least one BASIC slot is required")
        for idx in ss.basic_slots:
            if isinstance(idx, bool):
                errors.append(f"slot_structure.basic_slots: index {idx} is not an integer")
            elif not isinstance(idx, int) or read("slot_structure.n_slots") and not 0 <= idx < ss.n_slots:
                errors.append(f"slot_structure.basic_slots: index {idx} out of range")
        if _has_duplicates(ss.basic_slots):
            errors.append("slot_structure.basic_slots: duplicate indices")

    if cfg.mcs_table and None not in cfg.mcs_table:
        try:
            validate_mcs_table(cfg.build_mcs_table())
        except ValueError as exc:
            errors.append(f"mcs_table: {exc}")

    # Nodes a rule may name: with `nodes` of the wrong type, any name is.
    node_ids = set()
    named = (lambda node: node in node_ids) if read("nodes") else (lambda node: True)
    roles: dict[str, str] = {}
    role_replaced = set()
    sectors_of: dict[str, int] = {}
    positions: dict[str, tuple] = {}
    for i, n in enumerate(cfg.nodes):
        path = f"nodes[{i}]"
        if not n.id:
            if read(f"{path}.id"):
                errors.append(f"{path}.id: must be non-empty")
            continue
        if "-" in n.id or ":" in n.id:
            errors.append(f"{path}.id: '-' and ':' are reserved separators")
        if n.id in node_ids:
            errors.append(f"{path}.id: duplicate node id {n.id!r}")
        node_ids.add(n.id)
        if not read(f"{path}.role"):
            role_replaced.add(n.id)
        elif n.role not in _ROLES:
            errors.append(f"{path}.role: unknown role {n.role!r}")
        else:
            roles[n.id] = n.role
        if read(f"{path}.sectors"):
            sectors_of[n.id] = n.sectors
        if not read(f"{path}.position"):
            pass
        elif len(n.position) != 2 or not all(_is_number(v) for v in n.position):
            errors.append(f"{path}.position: expected [x, y] numbers")
        elif not all(map(math.isfinite, n.position)):
            errors.append(f"{path}.position: must be finite")
        else:
            pos = (float(n.position[0]), float(n.position[1]))
            for other, other_pos in positions.items():
                if other_pos == pos:
                    errors.append(f"{path}.position: coincides with node {other!r}")
            positions[n.id] = pos
        gains = (f"{path}.mainlobe_gain_dbi", f"{path}.sidelobe_gain_dbi")
        if read(*gains) and n.mainlobe_gain_dbi <= n.sidelobe_gain_dbi:
            errors.append(f"{path}: mainlobe_gain_dbi must exceed sidelobe_gain_dbi")
        limits = (f"{path}.power_min_dbm", f"{path}.power_max_dbm")
        if not read(*limits):
            pass
        elif n.power_min_dbm > n.power_max_dbm:
            errors.append(f"{path}: power_min_dbm exceeds power_max_dbm")
        elif read(f"{path}.tx_power_dbm") and not n.power_min_dbm <= n.tx_power_dbm <= n.power_max_dbm:
            errors.append(f"{path}.tx_power_dbm: outside [power_min_dbm, power_max_dbm]")

    for i, loss in enumerate(cfg.channel.extra_loss_db):
        for end in ("a", "b") if loss else ():
            node = getattr(loss, end)
            if read(f"channel.extra_loss_db[{i}].{end}") and not named(node):
                errors.append(f"channel.extra_loss_db[{i}].{end}: unknown node {node!r}")

    def check_link(path: str, link: str) -> Optional[tuple[str, str]]:
        parts = link.split("-")
        if len(parts) != 2 or not all(parts):
            errors.append(f"{path}: expected the form <ap>-<sta>")
            return None
        ap, sta = parts
        if not named(ap):
            errors.append(f"{path}: unknown node {ap!r}")
            return None
        if not named(sta):
            errors.append(f"{path}: unknown node {sta!r}")
            return None
        if read("nodes") and ap not in role_replaced and roles.get(ap) != "dn_ap":
            errors.append(f"{path}: {ap!r} is not an AP")
        if roles.get(sta) == "dn_ap":
            errors.append(f"{path}: {sta!r} must be a STA role")
        return ap, sta

    seen_flows = set()
    traffic_flows = set()
    flows_read = read("traffic")  # every traffic entry's flow is the file's
    for i, t in enumerate(cfg.traffic):
        path = f"traffic[{i}]"
        if read(f"{path}.link"):
            check_link(f"{path}.link", t.link)
        if t.direction not in _DIRECTIONS:
            errors.append(f"{path}.direction: expected downlink or uplink")
        if t.pattern not in _PATTERNS:
            errors.append(f"{path}.pattern: expected one of {', '.join(_PATTERNS)}")
        if (
            read(f"{path}.pattern", f"{path}.rate_bps")
            and t.pattern == "cbr" and not 1 <= t.rate_bps < math.inf
        ):
            errors.append(f"{path}.rate_bps: cbr traffic needs a finite rate of at least 1 bit/s")
        if not read(f"{path}.link", f"{path}.direction"):
            flows_read = False
            continue
        flow = (t.link, t.direction)
        if flow in seen_flows:
            errors.append(f"{path}: duplicate traffic entry for {t.link} {t.direction}")
        seen_flows.add(flow)
        traffic_flows.add(flow)

    for i, run in enumerate(cfg.beamforming.runs):
        path = f"beamforming.runs[{i}]"
        if run.mode not in _BF_MODES:
            errors.append(f"{path}.mode: expected one of {', '.join(_BF_MODES)}")
        if read(f"{path}.initiator") and not named(run.initiator):
            errors.append(f"{path}.initiator: unknown node {run.initiator!r}")
        if not read(f"{path}.responders"):
            continue
        if not run.responders:
            errors.append(f"{path}.responders: must be non-empty")
        for r in run.responders:
            if not isinstance(r, str) or not named(r):
                errors.append(f"{path}.responders: unknown node {r!r}")
            if r == run.initiator:
                errors.append(f"{path}.responders: initiator cannot respond to itself")
        if _has_duplicates(run.responders):
            errors.append(f"{path}.responders: duplicate responders")
        if read(f"{path}.mode") and run.mode == "individual" and len(run.responders) != 1:
            errors.append(f"{path}.responders: individual mode takes exactly one responder")

    for i, t in enumerate(cfg.beamforming.trained_links):
        path = f"beamforming.trained_links[{i}]"
        for who, sector in (("initiator", t.initiator_sector), ("responder", t.responder_sector)):
            node = getattr(t, who)
            if not read(f"{path}.{who}"):
                continue
            if not named(node):
                errors.append(f"{path}.{who}: unknown node {node!r}")
            elif (
                read(f"{path}.{who}_sector") and node in sectors_of
                and not 0 <= sector < sectors_of[node]
            ):
                errors.append(f"{path}.{who}_sector: out of range for {node!r}")
        if t.initiator in roles and t.responder in roles:
            ap_ends = [n for n in (t.initiator, t.responder) if roles[n] == "dn_ap"]
            if len(ap_ends) != 1:
                errors.append(f"{path}: exactly one endpoint must be an AP")

    seen_reports = set()
    for i, r in enumerate(cfg.maintenance.periodic_reports):
        path = f"maintenance.periodic_reports[{i}]"
        if r.direction not in _DIRECTIONS:
            errors.append(f"{path}.direction: expected downlink or uplink")
        if not read(f"{path}.link", f"{path}.direction"):
            continue
        flow = (r.link, r.direction)
        if flows_read and flow not in traffic_flows:
            errors.append(f"{path}.link: no traffic entry for {r.link} {r.direction}")
        if flow in seen_reports:
            errors.append(f"{path}: duplicate report request for {r.link} {r.direction}")
        seen_reports.add(flow)
    return errors


def _training_overflows(cfg: ScenarioConfig) -> list[str]:
    """A problem for each training run whose plan overflows its service period.

    Every run has a service period of the same shape, one beacon interval
    after the last, so the first one's window stands for all.
    """
    errors = []
    window = sp_window(cfg.build_structure(), cfg.sim.sp_offset_us, cfg.sim.sp_duration_us)
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
