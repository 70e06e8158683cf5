"""tddsim benchmark runner.

One measurement (the form the benchmark contract in BENCHMARK.json uses):

    python3 perfbench/run.py --workload dl_saturated --seed 1 --seconds 40 --trace 0

repeats `tddsim run` on the workload, one fresh process at a time, for
about `--seconds` seconds, checks every run's outputs, prints each metric
with its unit and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--trace 0` gives the end-to-end metrics, measured on untraced runs;
`--trace 1` gives the per-layer metrics of traced and profiled runs.

Everything at once (both modes, every workload, default seeds), which also
rewrites BENCHMARK.json and perfbench/baseline.json:

    python3 perfbench/run.py --all

Run from the root of a tddsim checkout; the program is imported from its
`src/` directory. Generated inputs and outputs go to perfbench/_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from layers import LAYER_METRICS
from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
GOLDEN = os.path.join(HERE, "golden.json")

RUN_SECONDS = 40
# (name, unit, better, bound). A bound is the share of the parent's median
# by which a metric may worsen before a change counts as a regression. The
# host this was built on is shared and its speed drifts (see below), so
# timings get the largest bound allowed; memory repeats to within 1%.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("sim_us_per_s", "us/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)
MIN_PLAIN_RUNS = 3

# Host speed on a shared machine drifts by tens of percent over minutes
# (measured on 2 vCPUs: medians of 10 runs ranged over 30%). `calibrate`
# times a fixed mix of the program's hot operations that does not depend on
# tddsim; it runs before and after every untraced run, and the run's times
# are scaled to the speed at which the mix takes CALIBRATION_REF_S (measured:
# the IQR/median of 10-run medians fell from 0.22 to 0.09). Changing either
# one makes results before and after the change incomparable.
CALIBRATION_REF_S = 0.3


def calibrate() -> float:
    """Host seconds for a fixed mix of Fraction, heapq, dict and json work."""
    t0 = time.perf_counter()
    acc, heap, table = Fraction(0), [], {}
    for i in range(60_000):
        acc += Fraction(i % 97, 7 + i % 13)
        heapq.heappush(heap, (i * 7919 % 100_003, i))
        table[f"k{i % 500}"] = i
    while heap:
        heapq.heappop(heap)
    json.dumps([{"t": i / 3, "kind": "x", "seq": i} for i in range(15_000)], sort_keys=True)
    return time.perf_counter() - t0


@dataclass
class Run:
    """One finished `tddsim run` process and where its outputs are.

    `wall_s` runs from spawning the process to its exit, less the time the
    process spent on the benchmark's checks after the CLI returned; `speed`
    is the host's speed around the run relative to CALIBRATION_REF_S. The
    output files are overwritten by the next run; check them before that.
    """

    wall_s: float
    peak_rss_mb: float
    exit_code: int
    workdir: str
    sidecar: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)  # the CLI's stdout
    trace_bytes: int = 0  # size of the --trace file, if the run wrote one
    speed: float = 1.0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    @property
    def trace_path(self) -> Optional[str]:
        return self.sidecar.get("memory_trace") or (
            self.path("trace.jsonl") if os.path.exists(self.path("trace.jsonl")) else None
        )


def execute(workload: Workload, seed: int, mode: str, root: str = ROOT) -> Run:
    """Run the workload once in a fresh process; time it from spawn to exit."""
    workdir = os.path.join(WORK, workload.name)
    os.makedirs(workdir, exist_ok=True)
    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))
    run_args = workload.run_args(root, seed, workdir)
    sidecar = os.path.join(workdir, "sidecar.json")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
        "--src", os.path.join(root, "src"), "--out", sidecar, "--", *run_args,
    ]
    with open(os.path.join(workdir, "stdout.json"), "wb") as out, \
            open(os.path.join(workdir, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=root)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Run(wall, usage.ru_maxrss / 1024.0, proc.returncode, workdir)
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            run.sidecar = json.load(fh)
        run.wall_s -= run.sidecar["checks_s"]
    try:
        with open(run.path("stdout.json")) as fh:
            run.summary = json.load(fh)
    except ValueError:
        pass  # check() reports the missing summary
    if "--trace" in run_args and os.path.exists(run.path("trace.jsonl")):
        run.trace_bytes = os.path.getsize(run.path("trace.jsonl"))
    return run


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def trace_order_problem(path: str) -> Optional[str]:
    """None if the trace's (t, seq) keys strictly increase, else the first break."""
    prev = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
                key = (rec["t"], rec["seq"])
            except (ValueError, KeyError, TypeError):
                return f"trace line {lineno} is not a trace record"
            if prev is not None and key <= prev:
                return f"trace line {lineno}: (t, seq) {key} does not follow {prev}"
            prev = key
    return None


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def check(workload: Workload, seed: int, run: Run, golden: dict) -> list[str]:
    """Every reason the run failed; empty when its outputs are correct."""
    if run.exit_code != 0:
        return [f"exit code {run.exit_code}"]
    side = run.sidecar
    if "conservation_ok" not in side:
        return ["no sidecar written"]
    if "duration_us" not in run.summary:
        return ["stdout is not the run summary"]
    problems = []
    if not side["conservation_ok"]:
        problems.append("Metrics.conservation_ok() is false")
    problems += [f"plan violation {v}" for v in side["plan_violations"]]
    if side["max_ack_delay_us"] > side["ack_limit_us"]:
        problems.append(f"max ack delay {side['max_ack_delay_us']} us exceeds {side['ack_limit_us']} us")
    trace = run.trace_path
    if trace is not None:
        order = trace_order_problem(trace)
        if order:
            problems.append(order)
    if seed == workload.default_seed:
        want = golden.get(workload.name, {})
        got = {"stdout": sha256_file(run.path("stdout.json")), "metrics": sha256_file(run.path("metrics.csv"))}
        if trace is not None:
            got["trace"] = sha256_file(trace)
        for what, digest in got.items():
            if want.get(what) != digest:
                problems.append(f"{what} differs from the golden digest")
    return problems


@dataclass
class Measurement:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    # untraced only: median host speed and unscaled wall_s, for the reader
    host: dict[str, float] = field(default_factory=dict)


def measure(workload: Workload, seed: int, seconds: float, traced: bool) -> Measurement:
    """Repeat runs for about `seconds`; medians of untraced or traced metrics."""
    golden = load_golden()
    runs: dict[str, list[Run]] = {"plain": [], "hooks": [], "profile": []}
    problems: list[str] = []
    attempted = failed = 0

    def one(mode: str) -> Run:
        nonlocal attempted, failed
        run = execute(workload, seed, mode)
        attempted += 1
        found = check(workload, seed, run, golden)
        if found:
            failed += 1
            problems.extend(f"{mode} run {attempted}: {p}" for p in found)
        else:
            runs[mode].append(run)
        return run

    start = time.perf_counter()
    if traced:
        one("profile")
        step, minimum = (lambda: (one("plain"), one("hooks"))), 1
    else:
        calibrations = [calibrate()]

        def step() -> None:
            run = one("plain")
            calibrations.append(calibrate())
            run.speed = 2 * CALIBRATION_REF_S / sum(calibrations[-2:])

        minimum = MIN_PLAIN_RUNS
    count = 0
    while True:
        t0 = time.perf_counter()
        step()
        count += 1
        took = time.perf_counter() - t0
        if count >= minimum and time.perf_counter() - start + took > seconds:
            break
    if traced:
        return Measurement(traced_metrics(runs), attempted, failed, problems)
    plain = runs["plain"]
    host = {
        "speed": statistics.median(r.speed for r in plain),
        "unscaled_wall_s": statistics.median(r.wall_s for r in plain),
    } if plain else {}
    return Measurement(end_to_end_metrics(plain), attempted, failed, problems, host)


def end_to_end_metrics(plain: list[Run]) -> dict[str, float]:
    if not plain:
        return {}
    duration_us = plain[0].summary["duration_us"]
    return {
        "wall_s": statistics.median(r.wall_s * r.speed for r in plain),
        "setup_s": statistics.median(r.sidecar["setup_s"] * r.speed for r in plain),
        "sim_us_per_s": statistics.median(duration_us / (r.wall_s * r.speed) for r in plain),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
    }


def traced_metrics(runs: dict[str, list[Run]]) -> dict[str, float]:
    hooks, plain, profile = runs["hooks"], runs["plain"], runs["profile"]
    out: dict[str, float] = {}
    if hooks:
        for name in hooks[0].sidecar["layers"]:
            out[name] = statistics.median(r.sidecar["layers"][name] for r in hooks)
        out["beamforming.sweep_frames"] = sum(hooks[-1].summary["bf_sweep_counts"].values())
        out["trace.bytes"] = hooks[-1].trace_bytes
        out["import_s"] = statistics.median(r.sidecar["import_s"] for r in hooks + plain)
        if plain:
            out["trace_overhead_s"] = (
                statistics.median(r.wall_s for r in hooks) - statistics.median(r.wall_s for r in plain)
            )
    if profile:
        out.update(profile[0].sidecar["layers"])
    return {name: out[name] for name in LAYER_METRICS if name in out}


def benchmark_spec() -> dict:
    """BENCHMARK.json, from the tables in this directory."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n == "engine.events_per_s" else "lower"}
            for n, u in LAYER_METRICS.items()
        ],
    }


def units() -> dict[str, str]:
    return {**{n: u for n, u, _, _ in END_TO_END}, **LAYER_METRICS}


def print_metrics(metrics: dict[str, float], expected: list[str]) -> None:
    unit = units()
    for name in expected:
        if name in metrics:
            print(f"  {name:40s} {metrics[name]:>14.6g} {unit[name]}")
        else:
            print(f"  {name:40s} {'absent':>14s}")


def run_one(workload: Workload, seed: int, seconds: float, traced: bool) -> Measurement:
    m = measure(workload, seed, seconds, traced)
    for p in m.problems:
        print(f"FAILED {p}", file=sys.stderr)
    names = list(LAYER_METRICS) if traced else [n for n, *_ in END_TO_END]
    print(f"{workload.name} seed {seed}, {'traced' if traced else 'untraced'} runs:")
    print_metrics(m.metrics, names)
    print(f"  {'runs_failed':40s} {m.failed:>14d} of {m.attempted}")
    if m.host:
        print(f"  (host speed {m.host['speed']:.3f} of reference; unscaled wall_s {m.host['unscaled_wall_s']:.4f} s)")
    return m


def run_all(seconds: float) -> None:
    results = {}
    for w in WORKLOADS.values():
        e2e = run_one(w, w.default_seed, seconds, traced=False)
        layer = run_one(w, w.default_seed, seconds, traced=True)
        results[w.name] = {
            "seed": w.default_seed,
            "end_to_end": e2e.metrics,
            "per_layer": layer.metrics,
            "host": e2e.host,
            "runs_failed": e2e.failed + layer.failed,
            "runs_attempted": e2e.attempted + layer.attempted,
        }
    baseline = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seconds_per_measurement": seconds,
        "results": results,
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_spec(), fh, indent=2)
        fh.write("\n")


def missing_inputs(root: str) -> list[str]:
    needed = [os.path.join("src", "tddsim", "cli.py"), os.path.join("scenarios", "saturated_dl.yaml")]
    return [p for p in needed if not os.path.isfile(os.path.join(root, p))]


def main() -> int:
    parser = argparse.ArgumentParser(description="tddsim benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, both modes, default seeds")
    opts = parser.parse_args()
    missing = missing_inputs(ROOT)
    if missing:
        print(f"run.py: not a tddsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if opts.all:
        run_all(opts.seconds)
        return 0
    if opts.workload is None:
        parser.error("--workload or --all is required")
    workload = WORKLOADS[opts.workload]
    seed = workload.default_seed if opts.seed is None else opts.seed
    m = run_one(workload, seed, opts.seconds, bool(opts.trace))
    unit = units()
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {n: {"value": v, "unit": unit[n]} for n, v in m.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
