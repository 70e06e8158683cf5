"""Every scenario's trace, metrics CSV and stdout match the committed digests.

The digests in tests/golden/ are written only by tests/golden/regen.py.
"""

import json
import re

import pytest

from tddsim.trace import KINDS

from golden.regen import DURATIONS_MS, GOLDEN_DIR, SCENARIOS, digests, run_scenario


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return {name: run_scenario(name, workdir) for name in sorted(DURATIONS_MS)}


def test_every_scenario_has_a_golden():
    assert sorted(DURATIONS_MS) == sorted(p.stem for p in SCENARIOS.glob("*.yaml"))


@pytest.mark.parametrize("name", sorted(DURATIONS_MS))
def test_outputs_match_golden(name, golden_outputs):
    expected = (GOLDEN_DIR / f"{name}.sha256").read_text()
    assert digests(golden_outputs[name]) == expected


def test_every_written_trace_kind_is_documented(golden_outputs):
    # README's list of record kinds is the declared table, and every kind
    # the scenarios write is declared.
    readme = (SCENARIOS.parent / "README.md").read_text()
    outputs = readme.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
    kind_list = outputs.split("Record kinds:\n", 1)[1].split("\n- ", 1)[0]
    documented = {
        kind
        for heads in re.findall(r"^  - ((?:`[a-z_]+`/?)+):", kind_list, re.M)
        for kind in re.findall(r"`([a-z_]+)`", heads)
    }
    assert documented == set(KINDS)
    written = {
        json.loads(line)["kind"]
        for out in golden_outputs.values()
        for line in out["trace"].splitlines()
    }
    assert written - set(KINDS) == set()
