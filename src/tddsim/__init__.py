"""Discrete-event simulator for TDD millimeter-wave fixed wireless access.

The package models the directional TDD machinery of a 60 GHz distribution
network: slot-structured service periods, sweep-based beamforming training, link
maintenance (heartbeats, keep-alives, periodic measurement reports, power
control), and a centralized interference-aware slot controller, all driven
by an exact-arithmetic event engine.
"""

from .beamforming import (
    BeamformingConfig,
    BeamformingResult,
    BeamMeasurementReport,
    BfMode,
    TrainedLink,
    run_beamforming,
)
from .channel import LinkBudgetConfig, link_snr_db, propagation_delay_us
from .config import ScenarioConfig, load_config, parse_config, serialize_config
from .controller import (
    AssignmentResult,
    DemandSpec,
    DirectedLink,
    GlobalSchedule,
    InterferenceGraph,
    StarvedLink,
    assign_slots,
    build_interference_graph,
    links_from_trained,
    verify_global,
)
from .domain import (
    DEFAULT_MCS_TABLE,
    Codebook,
    McsEntry,
    NodeModel,
    PowerLimits,
    Role,
    Sector,
    mcs_from_snr,
    uniform_codebook,
)
from .engine import (
    MaintenanceSettings,
    Metrics,
    TrafficSource,
    World,
    collect_metrics,
    metrics_to_csv,
    run_until,
)
from .errors import ConfigError, SimulationError, StructureError
from .frames import FrameSizes
from .maintenance import (
    PeriodicReportRequest,
    ReportSchedule,
    handle_periodic_report_request,
    tpc_update,
)
from .schedule import (
    AbsoluteSlot,
    Direction,
    ExtendedScheduleEntry,
    SlotCategory,
    TddSlotStructure,
    default_slot_structure,
    expand_sp,
    sp_window,
    timeline,
)
from .trace import TraceRecorder

__all__ = [
    "AbsoluteSlot",
    "AssignmentResult",
    "BeamMeasurementReport",
    "BeamformingConfig",
    "BeamformingResult",
    "BfMode",
    "Codebook",
    "ConfigError",
    "DEFAULT_MCS_TABLE",
    "DemandSpec",
    "DirectedLink",
    "Direction",
    "ExtendedScheduleEntry",
    "FrameSizes",
    "GlobalSchedule",
    "InterferenceGraph",
    "LinkBudgetConfig",
    "MaintenanceSettings",
    "McsEntry",
    "Metrics",
    "NodeModel",
    "PeriodicReportRequest",
    "PowerLimits",
    "ReportSchedule",
    "Role",
    "ScenarioConfig",
    "Sector",
    "SimulationError",
    "SlotCategory",
    "StarvedLink",
    "StructureError",
    "TddSlotStructure",
    "TraceRecorder",
    "TrafficSource",
    "TrainedLink",
    "World",
    "assign_slots",
    "build_interference_graph",
    "collect_metrics",
    "default_slot_structure",
    "expand_sp",
    "handle_periodic_report_request",
    "link_snr_db",
    "links_from_trained",
    "load_config",
    "metrics_to_csv",
    "parse_config",
    "propagation_delay_us",
    "run_beamforming",
    "run_until",
    "mcs_from_snr",
    "serialize_config",
    "sp_window",
    "timeline",
    "tpc_update",
    "uniform_codebook",
    "verify_global",
]

__version__ = "0.1.0"
