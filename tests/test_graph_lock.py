"""The interference graph of every committed scenario and of the benchmark's
generated ones is pinned by digest.

`tddsim plan` prints only the slot map that assignment draws from the graph,
so a graph change that assignment happens to absorb would pass
`test_plan_lock`. These digests cover the vertex ids in order and the sorted
edges that `build_interference_graph` returns.
"""

import hashlib
import json

import pytest

from tddsim.cli import prepare_scenario
from tddsim.config import load_config
from tddsim.controller import build_interference_graph

from conftest import SCENARIOS, perfbench_workloads

# name -> sha256 of the graph's canonical JSON; committed scenarios at seed
# 1, generated ones as the benchmark writes them for that generator seed.
# Five scenarios share one single-link graph; the three mesh seeds plan
# alike but train different graphs (72 vertices and 110-116 edges each).
DIGESTS = {
    "one_ap_two_sta": "457d7481db2478ac8fb882d143d8acf01f9351baaa573343130b4166f451cbea",
    "reports": "7fa03f548d246978fee130e1abe2d878cbd4c49d06faea8af8bcf686418cd296",
    "saturated_dl": "7fa03f548d246978fee130e1abe2d878cbd4c49d06faea8af8bcf686418cd296",
    "spatial_reuse": "5a9aca83229094c5aabe08c51f47a93c304fe0fc537b6a08e8a867f620af41db",
    "tpc": "7fa03f548d246978fee130e1abe2d878cbd4c49d06faea8af8bcf686418cd296",
    "trickle": "7fa03f548d246978fee130e1abe2d878cbd4c49d06faea8af8bcf686418cd296",
    "two_node_dl": "7fa03f548d246978fee130e1abe2d878cbd4c49d06faea8af8bcf686418cd296",
    "mesh_train-1": "e5bc5836a36f45983916ae2651b742cfde1a2cb1a72ad6d4c0b1adfbf42f2853",
    "mesh_train-2": "b4132f372e389b0614e4f758b6d7b8526dd045e5c5d32288c74c9ce6ce783706",
    "mesh_train-3": "b7548039643326514715e836630495e47d4ab1156f7f3fbf9e726c98b8350d68",
    "cbr_long-1": "c8c1e2722439ee9634877b4fab50cda40312180082b0deb833876fb4f73e367c",
}


def graph_digest(graph) -> str:
    canonical = {
        "vertices": [v.vertex_id for v in graph.vertices],
        "edges": sorted(sorted(edge) for edge in graph.edges),
    }
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


def scenario_graph(name, tmp_path):
    if "-" in name:
        workload, seed = name.split("-")
        path = tmp_path / f"{name}.yaml"
        path.write_text(perfbench_workloads().GENERATORS[workload](int(seed)))
        cfg = load_config(str(path))
    else:
        cfg = load_config(str(SCENARIOS / f"{name}.yaml"))
        cfg.sim.seed = 1
    prep = prepare_scenario(cfg)
    return build_interference_graph(prep.nodes, prep.trained, prep.reports, prep.channel)


def test_every_scenario_is_locked():
    scenarios = {p.stem for p in SCENARIOS.glob("*.yaml")}
    assert scenarios == {name for name in DIGESTS if "-" not in name}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_graph_is_unchanged(name, tmp_path):
    assert graph_digest(scenario_graph(name, tmp_path)) == DIGESTS[name]
