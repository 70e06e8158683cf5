import importlib.util
import re
import sys

import tddsim
from tddsim.trace import TraceRecorder

from conftest import PERFBENCH


def test_every_exported_name_resolves():
    assert [name for name in tddsim.__all__ if not hasattr(tddsim, name)] == []
    assert len(set(tddsim.__all__)) == len(tddsim.__all__)


def perfbench_layers():
    """The benchmark's hook table, `perfbench/layers.py`, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_name_the_benchmark_hooks_resolves():
    """perfbench reports the metrics of a hook whose target is gone as
    absent instead of failing, so a deleted name shows up only in its own
    self-test. This resolves every target the way its hooks do."""
    layers = perfbench_layers()
    child = (PERFBENCH / "child.py").read_text()
    probed = re.findall(r'_probe\(cli, "(\w+)"', child)
    assert probed, "no `_probe(cli, ...)` call found in perfbench/child.py"
    targets = [
        *((module, path) for module, path, _ in layers.SPANS),
        *((f"tddsim.{caller}", "link_snr_db") for caller in layers.SNR_CALLERS),
        ("tddsim.cli", "expand_sp"),
        ("tddsim.trace", "TraceRecorder.record"),
        ("tddsim.trace", "TraceRecorder.write_jsonl"),
        ("tddsim.engine", "EventQueue.push"),
        ("tddsim.engine", "EventQueue.pop"),
        *(("tddsim.cli", name) for name in probed),
        ("tddsim.cli", "main"),
        ("tddsim.controller", "verify_global"),
    ]
    assert [target for target in targets if layers._resolve(*target) is None] == []
    # The record hook reads `enabled` to pass disabled recorders through.
    assert TraceRecorder(enabled=False).enabled is False
