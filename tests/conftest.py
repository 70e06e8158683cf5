import pathlib

import pytest

from tddsim.channel import LinkBudgetConfig
from tddsim.domain import NodeModel, PowerLimits, Role, uniform_codebook

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


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
