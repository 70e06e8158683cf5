"""Golden output digests of every scenario in scenarios/.

    PYTHONPATH=src python tests/golden/regen.py

Runs each scenario through `tddsim run` at `--seed 1` and the short
`--duration-ms` in DURATIONS_MS, and writes the SHA-256 of its trace,
metrics CSV and stdout to tests/golden/<scenario>.sha256. tests/test_golden.py
checks them. Regenerate only in a change that means to alter output, and
say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

from tddsim.cli import main as tddsim_main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent
SCENARIOS = GOLDEN_DIR.parent.parent / "scenarios"
SEED = 1
# Short enough to keep the check quick, long enough for every scenario to
# reach its interesting records: several ack rounds, three trickle arrivals,
# all three periodic reports (the last is due at 210 ms, so a shorter
# `reports` run rejects the request and writes none), every TPC step.
DURATIONS_MS = {
    "one_ap_two_sta": 8,
    "reports": 300,
    "saturated_dl": 8,
    "spatial_reuse": 8,
    "tpc": 25,
    "trickle": 26,
    "two_node_dl": 8,
}
OUTPUTS = ("trace", "metrics", "stdout")


def run_scenario(name: str, workdir: pathlib.Path) -> dict[str, bytes]:
    """The trace, metrics CSV and stdout of one golden run, as bytes."""
    trace = workdir / f"{name}.jsonl"
    metrics = workdir / f"{name}.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = tddsim_main([
            "run", "--config", str(SCENARIOS / f"{name}.yaml"),
            "--seed", str(SEED), "--duration-ms", str(DURATIONS_MS[name]),
            "--trace", str(trace), "--metrics", str(metrics),
        ])
    if rc != 0:
        raise RuntimeError(f"{name}: tddsim run exited {rc}")
    return {
        "trace": trace.read_bytes(),
        "metrics": metrics.read_bytes(),
        "stdout": stdout.getvalue().encode(),
    }


def digests(outputs: dict[str, bytes]) -> str:
    """The .sha256 file text: one `<sha256>  <output>` line per output."""
    return "".join(
        f"{hashlib.sha256(outputs[key]).hexdigest()}  {key}\n" for key in OUTPUTS
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(DURATIONS_MS):
            text = digests(run_scenario(name, pathlib.Path(tmp)))
            (GOLDEN_DIR / f"{name}.sha256").write_text(text)
            print(f"wrote {name}.sha256")
    return 0


if __name__ == "__main__":
    sys.exit(main())
