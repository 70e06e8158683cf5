import importlib.util
import pathlib
import sys

import pytest

from tddsim.channel import LinkBudgetConfig
from tddsim.domain import NodeModel, PowerLimits, Role, uniform_codebook

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
PERFBENCH = SCENARIOS.parent / "perfbench"


def perfbench_workloads():
    """The benchmark's scenario generators, `perfbench/workloads.py`, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


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


@pytest.fixture
def channel_cfg() -> LinkBudgetConfig:
    return LinkBudgetConfig()


@pytest.fixture
def scenario_dir() -> pathlib.Path:
    return SCENARIOS
