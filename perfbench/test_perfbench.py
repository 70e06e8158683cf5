"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import layers
import run
from workloads import GENERATORS, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SRC = os.path.join(run.ROOT, "src")
TEST_WORK = os.path.join(run.WORK, "test")


def _cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "tddsim", *args], capture_output=True, env=env, cwd=run.ROOT)


def _workdir(name: str) -> str:
    path = os.path.join(TEST_WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_deterministic_in_its_seed(name):
    gen = GENERATORS[name]
    assert gen(1) == gen(1)
    assert gen(12345) == gen(12345)
    assert gen(1) != gen(2)


@pytest.mark.parametrize("name,seed", [
    ("dl_saturated", 1), ("mesh_train", 1), ("cbr_long", 1),
    ("mesh_train", 2), ("mesh_train", 3), ("cbr_long", 2), ("cbr_long", 3),
])
def test_workload_plan_is_feasible(name, seed):
    args = WORKLOADS[name].run_args(run.ROOT, seed, _workdir(f"plan-{name}-{seed}"))
    config = args[args.index("--config") + 1]
    proc = _cli("plan", "--config", config)
    assert proc.returncode == 0, proc.stderr.decode()
    plan = json.loads(proc.stdout)
    assert plan["feasible"] and not plan["starved"] and not plan["violations"]


def test_metric_names_and_units_are_well_formed():
    spec = run.benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])


def test_benchmark_json_matches_the_tables_here():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.benchmark_spec()


def test_altered_trace_fails_the_run():
    w = WORKLOADS["dl_saturated"]
    golden = run.load_golden()
    result = run.execute(w, w.default_seed, "plain")
    assert run.check(w, w.default_seed, result, golden) == []

    with open(result.trace_path) as fh:
        lines = fh.readlines()
    altered = lines[:]
    altered[100] = altered[100].replace('"kind"', '"kind" ', 1)
    with open(result.trace_path, "w") as fh:
        fh.writelines(altered)
    assert run.check(w, w.default_seed, result, golden) == ["trace differs from the golden digest"]

    # Out of order: caught at every seed, not only where a golden exists.
    lines[100], lines[101] = lines[101], lines[100]
    with open(result.trace_path, "w") as fh:
        fh.writelines(lines)
    problems = run.check(w, w.default_seed + 1, result, golden)
    assert len(problems) == 1 and "(t, seq)" in problems[0]


@pytest.mark.parametrize("name,seed,mode", [("dl_saturated", 3, "plain"), ("mesh_train", 2, "hooks")])
def test_runner_writes_what_the_cli_writes(name, seed, mode):
    w = WORKLOADS[name]
    result = run.execute(w, seed, mode)
    assert result.exit_code == 0
    outdir = _workdir(f"cli-{name}")
    args = w.run_args(run.ROOT, seed, outdir)
    if "--trace" not in args:
        args += ["--trace", os.path.join(outdir, "trace.jsonl")]
    proc = _cli("run", *args)
    assert proc.returncode == 0
    with open(result.path("stdout.json"), "rb") as fh:
        assert fh.read() == proc.stdout
    for ours, theirs in ((result.path("metrics.csv"), "metrics.csv"), (result.trace_path, "trace.jsonl")):
        with open(ours, "rb") as a, open(os.path.join(outdir, theirs), "rb") as b:
            assert a.read() == b.read(), theirs


def test_missing_hook_target_is_reported_absent():
    sys.path.insert(0, SRC)
    try:
        tracer = layers.Tracer()
        tracer._patch("tddsim.engine", "NoSuchQueue.pop", lambda orig: orig, ("engine.events",))
        tracer._patch("tddsim.no_such_module", "f", lambda orig: orig, ("engine.heap_peak",))
    finally:
        sys.path.remove(SRC)
    assert tracer.absent == {"engine.events", "engine.heap_peak"}
    metrics = tracer.metrics()
    assert "engine.events" not in metrics and "engine.heap_peak" not in metrics
    assert "engine.loop_s" in metrics


def test_benchmark_refuses_to_run_without_the_program():
    bare = _workdir("bare")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__", "test_*.py"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dl_saturated", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_measurement_reports_every_layer_metric():
    w = WORKLOADS["dl_saturated"]
    m = run.measure(w, w.default_seed, seconds=0, traced=True)
    assert (m.attempted, m.failed) == (3, 0), m.problems
    assert sorted(m.metrics) == sorted(layers.LAYER_METRICS)
    assert m.metrics["engine.loop_s"] > 0 and m.metrics["trace.records"] > 0
