"""`cli.main` runs its subcommand with the cyclic garbage collector off.

That is safe only if a run leaves no reference cycle whose number grows
with the simulated time: with the collector off, one `gc.collect()` after
a run must find as many unreachable objects after a long run as after a
short one. These tests check that on a saturated downlink, a run that
trains, a lossy run whose receptions fail under transmit power control,
and a library plan that retries and drops frames. They also check that
`cli.main` gives the collector back as it found it on every way out, and
that importing the package leaves it alone.
"""

import gc
import os
import pathlib
import subprocess
import sys

import pytest
import yaml

from tddsim import cli, engine
from tddsim.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_RUNTIME, main
from tddsim.engine import run_until
from tddsim.errors import StructureError

from conftest import SCENARIOS
from test_engine import build_world, dirty_all_but_slot_13


def unreachable_after(run):
    """What `gc.collect()` finds after `run()` ran with the collector off."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if was:
            gc.enable()


def cli_run(config, ms, tmp_path, *extra):
    def run():
        code = main([
            "run", "--config", str(config), "--duration-ms", str(ms),
            "--metrics", str(tmp_path / "metrics.csv"), *extra,
        ])
        assert code == EXIT_OK
    return run


def lossy_tpc(tmp_path):
    """scenarios/tpc.yaml with saturated traffic, a 2 dB RSNI target and 12
    reports: power control steps the AP down until its data frames fail."""
    scenario = yaml.safe_load((SCENARIOS / "tpc.yaml").read_text())
    scenario["traffic"][0]["pattern"] = "saturated"
    scenario["maintenance"]["tpc"]["target_rsni_db"] = 2.0
    scenario["maintenance"]["periodic_reports"][0]["count"] = 12
    path = tmp_path / "lossy_tpc.yaml"
    path.write_text(yaml.safe_dump(scenario))
    return path


@pytest.mark.parametrize("scenario, short_ms, long_ms", [
    ("saturated_dl.yaml", 3, 12),
    ("two_node_dl.yaml", 26, 52),
])
def test_a_cli_run_leaves_no_cycles_that_grow_with_time(scenario, short_ms, long_ms, tmp_path, capsys):
    config = SCENARIOS / scenario
    unreachable_after(cli_run(config, short_ms, tmp_path))  # first-run imports and caches
    short = unreachable_after(cli_run(config, short_ms, tmp_path))
    assert unreachable_after(cli_run(config, long_ms, tmp_path)) == short


def test_a_lossy_cli_run_leaves_no_cycles_that_grow_with_time(tmp_path, capsys):
    config = lossy_tpc(tmp_path)
    trace = tmp_path / "trace.jsonl"
    counts = []
    for ms in (26, 26, 102):
        counts.append(unreachable_after(cli_run(config, ms, tmp_path, "--trace", str(trace))))
        assert '"outcome": "interfered"' in trace.read_text()
    assert counts[1] == counts[2]


def test_a_run_with_retries_and_drops_leaves_no_cycles_that_grow_with_time():
    def run(duration_us):
        def go():
            metrics = run_until(build_world(doctor=dirty_all_but_slot_13, duration_us=duration_us))
            assert metrics.per_link["ap-sta:downlink"].dropped_bits > 0
        return go

    unreachable_after(run(25600))
    assert unreachable_after(run(25600)) == unreachable_after(run(102400))


def far_station(tmp_path):
    scenario = {
        "name": "too_far",
        "nodes": [
            {"id": "ap", "role": "dn_ap", "position": [0.0, 0.0]},
            {"id": "sta", "role": "cn_sta", "position": [50000.0, 0.0]},
        ],
        "beamforming": {"trained_links": [
            {"initiator": "ap", "responder": "sta", "initiator_sector": 0, "responder_sector": 4},
        ]},
        "traffic": [
            {"link": "ap-sta", "direction": "downlink", "demand_bps": 1.0e9, "pattern": "saturated"},
        ],
    }
    path = tmp_path / "far.yaml"
    path.write_text(yaml.safe_dump(scenario))
    return path


def broken_run(world, t_end_us=None):
    raise StructureError("slot timeline broke mid-run")


def crashing_run(world, t_end_us=None):
    raise RuntimeError("not a simulation fault")


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_on_every_exit(enabled, tmp_path, monkeypatch, capsys):
    trickle = ["run", "--config", str(SCENARIOS / "trickle.yaml"), "--duration-ms", "10"]
    cases = [
        (["validate", "--config", str(SCENARIOS / "two_node_dl.yaml")], None, EXIT_OK),
        ([*trickle[:-1], "0"], None, EXIT_CONFIG),
        (["plan", "--config", str(far_station(tmp_path))], None, EXIT_INFEASIBLE),
        (trickle, broken_run, EXIT_RUNTIME),
        (trickle, crashing_run, RuntimeError),
        (["run", "--no-such-option"], None, SystemExit),
    ]
    was = gc.isenabled()
    try:
        for argv, run, expected in cases:
            (gc.enable if enabled else gc.disable)()
            with monkeypatch.context() as patch:
                if run is not None:
                    patch.setattr(cli, "run_until", run)
                if isinstance(expected, int):
                    assert main(argv) == expected
                else:
                    with pytest.raises(expected):
                        main(argv)
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()


def test_the_library_leaves_the_collector_alone():
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            run_until(build_world(duration_us=3200))
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_importing_the_package_leaves_the_collector_alone(enabled):
    src = str(pathlib.Path(engine.__file__).parents[1])
    code = (
        "import gc\n"
        f"gc.{'enable' if enabled else 'disable'}()\n"
        "before = gc.isenabled(), gc.get_threshold()\n"
        "import tddsim, tddsim.cli\n"
        "assert (gc.isenabled(), gc.get_threshold()) == before, before\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src},
    )
