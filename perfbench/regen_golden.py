"""Regenerate perfbench/golden.json, the digests of every workload's outputs.

    python3 perfbench/regen_golden.py

Runs `python -m tddsim run` itself (not the benchmark's runner) on each
workload at its default seed, always with `--trace`, and stores the SHA-256
of the trace, the metrics CSV and stdout. The runner compares every
default-seed run against these, so the goldens also show that the runner
writes what the CLI writes. Regenerate only for a change that means to
alter the program's output, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import GOLDEN, ROOT, WORK, sha256_file
from workloads import WORKLOADS


def main() -> int:
    golden = {}
    for w in WORKLOADS.values():
        workdir = os.path.join(WORK, "golden", w.name)
        os.makedirs(workdir, exist_ok=True)
        args = w.run_args(ROOT, w.default_seed, workdir)
        trace = os.path.join(workdir, "trace.jsonl")
        if "--trace" not in args:
            args += ["--trace", trace]
        stdout = os.path.join(workdir, "stdout.json")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        with open(stdout, "wb") as out:
            subprocess.run([sys.executable, "-m", "tddsim", "run", *args], stdout=out, env=env, cwd=ROOT, check=True)
        golden[w.name] = {
            "seed": w.default_seed,
            "stdout": sha256_file(stdout),
            "metrics": sha256_file(os.path.join(workdir, "metrics.csv")),
            "trace": sha256_file(trace),
        }
        print(f"{w.name}: {golden[w.name]}")
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
