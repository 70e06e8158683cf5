"""The `tddsim plan` output of every committed scenario and of the
benchmark's generated ones is pinned by digest.

The plan JSON holds the granted rates as floats, the slot map, the starved
reasons and the violations, none of which the run goldens cover. These
digests were taken from the planner before its slot assignment was
rewritten, so a change that moves any planning decision fails here.
"""

import hashlib

import pytest

from tddsim.cli import EXIT_OK, main

from conftest import SCENARIOS, perfbench_workloads

# name -> sha256 of the `plan` stdout; committed scenarios run at --seed 1,
# generated ones as the benchmark writes them for that generator seed. Equal
# digests are equal plans: five scenarios plan the same single link, and the
# three mesh seeds plan alike.
DIGESTS = {
    "one_ap_two_sta": "ca8a4c4d198cd9cce607def6be42da202741e171924b47262744269babae4c26",
    "reports": "5d188e74d44bacfaa7c1c6f68a99a73ee2e70d0a56b5e2effe7be867b7e5f5e9",
    "saturated_dl": "5d188e74d44bacfaa7c1c6f68a99a73ee2e70d0a56b5e2effe7be867b7e5f5e9",
    "spatial_reuse": "2d78bd666b8c4f74db22d97ad030a9d0133fd8a382784256a3d37bfc0ac5f8b7",
    "tpc": "5d188e74d44bacfaa7c1c6f68a99a73ee2e70d0a56b5e2effe7be867b7e5f5e9",
    "trickle": "5d188e74d44bacfaa7c1c6f68a99a73ee2e70d0a56b5e2effe7be867b7e5f5e9",
    "two_node_dl": "5d188e74d44bacfaa7c1c6f68a99a73ee2e70d0a56b5e2effe7be867b7e5f5e9",
    "mesh_train-1": "628a8fa29f539ffd3a2f75ee957c9bc546edfe682518727348e71ceaa98cd2d4",
    "mesh_train-2": "628a8fa29f539ffd3a2f75ee957c9bc546edfe682518727348e71ceaa98cd2d4",
    "mesh_train-3": "628a8fa29f539ffd3a2f75ee957c9bc546edfe682518727348e71ceaa98cd2d4",
    "cbr_long-1": "e73447f97b1076ef12250e8e30abcc86cc36dea70a69250fcb76593a419f00de",
}


def test_every_scenario_is_locked():
    scenarios = {p.stem for p in SCENARIOS.glob("*.yaml")}
    assert scenarios == {name for name in DIGESTS if "-" not in name}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_plan_output_is_unchanged(name, tmp_path, capsys):
    if "-" in name:
        workload, seed = name.split("-")
        path = tmp_path / f"{name}.yaml"
        path.write_text(perfbench_workloads().GENERATORS[workload](int(seed)))
        args = ["plan", "--config", str(path)]
    else:
        args = ["plan", "--config", str(SCENARIOS / f"{name}.yaml"), "--seed", "1"]
    assert main(args) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]
