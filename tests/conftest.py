import importlib.util
import pathlib
import sys

import pytest

from tddsim.channel import LinkBudgetConfig
from tddsim.config import ScenarioConfig, Section
from tddsim.domain import NodeModel, PowerLimits, Role, uniform_codebook

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
PERFBENCH = SCENARIOS.parent / "perfbench"


def perfbench_workloads():
    """The benchmark's scenario generators, `perfbench/workloads.py`, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def declared_sections() -> dict:
    """Every declared section by path ("" for the top level, `nodes[]` for a
    list's entries), as a freshly built instance."""
    found = {}

    def walk(path, section):
        found[path] = section
        for key, value in vars(section).items():
            where = f"{path}.{key}" if path else key
            if isinstance(value, Section):
                walk(where, value)
            elif key in section.ITEMS:
                walk(f"{where}[]", section.ITEMS[key]())

    walk("", ScenarioConfig())
    return found


def make_node(
    node_id: str,
    role: Role = Role.CN_STA,
    position=(0.0, 0.0),
    sectors: int = 8,
    tx_power_dbm: float = 10.0,
    **kwargs,
) -> NodeModel:
    return NodeModel(
        node_id=node_id,
        role=role,
        position=position,
        codebook=uniform_codebook(sectors),
        tx_power_dbm=tx_power_dbm,
        power_limits=kwargs.pop("power_limits", PowerLimits()),
        **kwargs,
    )


def make_ap(node_id: str, position=(0.0, 0.0), sectors: int = 8, **kwargs) -> NodeModel:
    return make_node(node_id, role=Role.DN_AP, position=position, sectors=sectors, **kwargs)


def ssw_time(plan, frame_index: int) -> int:
    """Start of sweep frame `frame_index` of a `SweepPlan`: one frame per slot pitch."""
    return plan.start_us + frame_index * plan.cfg.ssw_slot_us


def tx_sector_of_frame(plan, frame_index: int) -> int:
    """Transmit sector of sweep frame `frame_index`: `repetitions` frames per sector."""
    return frame_index // plan.repetitions


@pytest.fixture
def channel_cfg() -> LinkBudgetConfig:
    return LinkBudgetConfig()


@pytest.fixture
def scenario_dir() -> pathlib.Path:
    return SCENARIOS
