"""One `tddsim run` in a fresh process, as the benchmark runner measures it.

    python3 perfbench/child.py --mode plain|hooks|profile --src SRC \
        --out SIDECAR.json -- <tddsim run arguments>

The run goes through the real entry point, `tddsim.cli.main(["run", ...])`,
so stdout, the trace and the metrics CSV are byte for byte what
`python -m tddsim run` writes. The process exits with the CLI's exit code
after writing SIDECAR.json: set-up time, the in-memory invariant checks,
the time those checks took and, in `hooks` and `profile` mode, the
per-layer metrics.

Modes: `plain` wraps only the five calls needed for set-up time and the
checks, each called once per run; `hooks` adds the per-layer spans and
counters of layers.py; `profile` runs under cProfile instead.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import sys
import time

import layers

EXIT_WRONG_PROGRAM = 90


def _probe(module, name: str, on_call=None, on_return=None) -> None:
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        if on_call:
            on_call()
        result = original(*args, **kwargs)
        if on_return:
            on_return(result)
        return result

    setattr(module, name, wrapper)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "hooks", "profile"), required=True)
    parser.add_argument("--src", required=True, help="directory holding the tddsim package")
    parser.add_argument("--out", required=True, help="sidecar JSON to write")
    parser.add_argument("run_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    run_args = opts.run_args[1:] if opts.run_args[:1] == ["--"] else opts.run_args
    src = os.path.abspath(opts.src)

    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import tddsim.cli as cli
    import tddsim.controller as controller
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"child: imported tddsim from {cli.__file__}, not from {src}", file=sys.stderr)
        return EXIT_WRONG_PROGRAM

    tracer = None
    if opts.mode == "hooks":
        tracer = layers.Tracer()
        tracer.install()

    seen: dict = {}
    _probe(cli, "load_config", on_call=lambda: seen.setdefault("setup_start", time.perf_counter()))
    _probe(cli, "build_interference_graph", on_return=lambda g: seen.setdefault("graph", g))
    _probe(cli, "assign_slots", on_return=lambda p: seen.setdefault("plan", p))
    _probe(cli, "build_world", on_return=lambda w: seen.update(world=w, setup_end=time.perf_counter()))
    _probe(cli, "run_until", on_return=lambda m: seen.setdefault("metrics", m))

    argv = ["run", *run_args]
    profile = None
    if opts.mode == "profile":
        profile = cProfile.Profile()
        rc = profile.runcall(cli.main, argv)
    else:
        rc = cli.main(argv)
    sys.stdout.flush()
    checks_start = time.perf_counter()

    sidecar: dict = {"import_s": import_s}
    if rc == 0:
        metrics, world = seen["metrics"], seen["world"]
        ack_delays = [max(l.ack_delay_us) for l in metrics.per_link.values() if l.ack_delay_us]
        sidecar.update(
            setup_s=seen["setup_end"] - seen["setup_start"],
            conservation_ok=metrics.conservation_ok(),
            plan_violations=[
                f"{v.kind}: {v.detail}"
                for v in controller.verify_global(seen["plan"].schedule, seen["graph"], world.mcs_table)
            ],
            max_ack_delay_us=max(ack_delays, default=0.0),
            ack_limit_us=world.structure.interval_duration_us,
        )
    if tracer is not None and rc == 0:
        if "--trace" not in run_args and tracer.recorder is not None:
            # No trace file was asked for: write the in-memory trace beside
            # the sidecar so that the runner checks it like a trace file.
            path = os.path.join(os.path.dirname(opts.out), "memory-trace.jsonl")
            with open(path, "w") as fh:
                fh.write(tracer.recorder.to_jsonl())
            sidecar["memory_trace"] = path
        sidecar["layers"] = tracer.metrics()
        sidecar["absent"] = sorted(tracer.absent)
        sidecar["spans"] = tracer.spans
    if profile is not None:
        sidecar["layers"] = layers.profile_shares(profile, src)
    # The runner takes this out of the run's wall time: a user of
    # `tddsim run` does not wait for the benchmark's own checks.
    sidecar["checks_s"] = time.perf_counter() - checks_start
    with open(opts.out, "w") as fh:
        json.dump(sidecar, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
