"""The interference graph of every committed scenario and of the benchmark's
generated ones is pinned by digest.

`tddsim plan` prints only the slot map that assignment draws from the graph,
so a graph change that assignment happens to absorb, and any change to
`model_derived_pairs`, which no output shows, would pass `test_plan_lock`.
These digests cover the vertex ids in order, the sorted edges and the
sorted model-derived pairs that `build_interference_graph` returns. They
were taken from the builder before it cached geometry and gains per
unordered node pair.
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
# alike but train different graphs (72 vertices, 110-116 edges, 2,448
# model-derived pairs each).
DIGESTS = {
    "one_ap_two_sta": "41d114418db5839b53f34f5bc9a5d10557372efd0ee0e4801191d01653e3e636",
    "reports": "84e2432b7cb1fe602a5be0988af8797a5441e9c8721c8eee7092ffd102e9dc3c",
    "saturated_dl": "84e2432b7cb1fe602a5be0988af8797a5441e9c8721c8eee7092ffd102e9dc3c",
    "spatial_reuse": "6d8384a66763b5a6aabc3eba5ed73782c01e6533ee293f139b8299f57c59af44",
    "tpc": "84e2432b7cb1fe602a5be0988af8797a5441e9c8721c8eee7092ffd102e9dc3c",
    "trickle": "84e2432b7cb1fe602a5be0988af8797a5441e9c8721c8eee7092ffd102e9dc3c",
    "two_node_dl": "84e2432b7cb1fe602a5be0988af8797a5441e9c8721c8eee7092ffd102e9dc3c",
    "mesh_train-1": "571c10069ee598d5b0396d9828dfdd19de6db8fe37aa89f3b43d736533556f52",
    "mesh_train-2": "1d98b9007ee1fabd5b7df081ca3e66b8b6a385a3af0586d10d82c7b90ba1ce4c",
    "mesh_train-3": "d29fbf96ffd4f8d0bdac1a1ceb0488925631eeb733991bae5260ff17d4902421",
    "cbr_long-1": "c8ca3138db93612e1fab44842d6a733dcb78781710155f9ec98cc84e1424fef0",
}


def graph_digest(graph) -> str:
    canonical = {
        "vertices": [v.vertex_id for v in graph.vertices],
        "edges": sorted(sorted(edge) for edge in graph.edges),
        "model_derived_pairs": sorted(graph.model_derived_pairs),
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
