"""Every scenario's trace, metrics CSV and stdout match the committed digests.

The digests in tests/golden/ are written only by tests/golden/regen.py.
"""

import hashlib
import json
import re

import pytest

from tddsim.cli import main
from tddsim.trace import KINDS

from conftest import PERFBENCH, perfbench_workloads
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


def readme_kind_list() -> str:
    """README's list of trace record kinds, from its Outputs section."""
    readme = (SCENARIOS.parent / "README.md").read_text()
    outputs = readme.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
    return outputs.split("Record kinds:\n", 1)[1].split("\n- ", 1)[0]


def documented_outcomes() -> set[str]:
    """The `frame_rx` outcome values README lists."""
    values = readme_kind_list().split("carries an `outcome`, one of:\n", 1)[1]
    return set(re.findall(r"^    - `([a-z_]+)`:", values, re.M))


def written_outcomes(trace: str) -> set[str]:
    return set(re.findall(r'"outcome": "([^"]*)"', trace))


def test_every_written_trace_kind_is_documented(golden_outputs):
    # README's list of record kinds is the declared table, and every kind
    # the scenarios write is declared.
    documented = {
        kind
        for heads in re.findall(r"^  - ((?:`[a-z_]+`/?)+):", readme_kind_list(), re.M)
        for kind in re.findall(r"`([a-z_]+)`", heads)
    }
    assert documented == set(KINDS)
    written = {
        json.loads(line)["kind"]
        for out in golden_outputs.values()
        for line in out["trace"].splitlines()
    }
    assert written - set(KINDS) == set()


def test_every_written_frame_outcome_is_documented(golden_outputs):
    written = set().union(*(written_outcomes(out["trace"].decode()) for out in golden_outputs.values()))
    assert {"decoded", "below_threshold"} <= written
    assert written - documented_outcomes() == set()


def test_trained_mesh_matches_the_benchmark_golden(tmp_path, capsys):
    # The benchmark's 18-AP mesh, trained in-sim by 36 runs of 32-sector
    # sweeps in every mode, at the seed perfbench/golden.json pins.
    golden = json.loads((PERFBENCH / "golden.json").read_text())["mesh_train"]
    config = tmp_path / "mesh_train.yaml"
    config.write_text(perfbench_workloads().mesh_train_yaml(golden["seed"]))
    trace, metrics = tmp_path / "trace.jsonl", tmp_path / "metrics.csv"
    argv = ["run", "--config", str(config), "--trace", str(trace), "--metrics", str(metrics)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    assert {
        "stdout": hashlib.sha256(stdout).hexdigest(),
        "metrics": hashlib.sha256(metrics.read_bytes()).hexdigest(),
        "trace": hashlib.sha256(trace.read_bytes()).hexdigest(),
    } == {key: golden[key] for key in ("stdout", "metrics", "trace")}
    # Every frame_rx outcome its sweeps and data write is documented too.
    assert written_outcomes(trace.read_text()) - documented_outcomes() == set()
