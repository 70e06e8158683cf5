import ast
import importlib.util
import pathlib
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


HOOK_MARKER = "perfbench/layers.py hooks this name"


def hooked_names() -> set[tuple[str, str]]:
    """`(module, module-level name)` of every target `perfbench/layers.py`
    hooks, read from the hooks its `Tracer.install` makes, with none made."""
    tracer = perfbench_layers().Tracer()
    hooked = set()
    tracer._patch = lambda module, path, make, metrics: hooked.add((module, path.split(".")[0]))
    tracer.install()
    return hooked


def test_hook_only_imports_carry_the_marker_and_no_other_does():
    """An import kept only for a benchmark hook says so, and no other
    import does: each marked name is hooked in its module and unused there
    otherwise, and each hooked name its module does not otherwise use or
    define is imported with the marker."""
    hooked = hooked_names()
    problems = []
    for path in sorted(pathlib.Path(tddsim.__file__).parent.glob("*.py")):
        module = f"tddsim.{path.stem}"
        lines = path.read_text().splitlines()
        tree = ast.parse("\n".join(lines))
        marked = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                HOOK_MARKER in line for line in lines[node.lineno - 1:node.end_lineno]
            ):
                marked.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        defined = {
            node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for name in sorted(marked):
            if (module, name) not in hooked:
                problems.append(f"{module}.{name}: marked, but layers.py does not hook it there")
            elif name in used:
                problems.append(f"{module}.{name}: marked, but the module uses it")
        for hooked_module, name in sorted(hooked):
            if hooked_module == module and name not in used | defined | marked:
                problems.append(f"{module}.{name}: hooked and otherwise unused, but not marked")
    assert problems == []


# Fields no code in `src/tddsim` reads, each with why it stays.
UNREAD_FIELDS = {
    # `perfbench/layers.py` hooks `tddsim.cli.expand_sp`, which builds every
    # AbsoluteSlot; these go with the benchmark's hook on it.
    "AbsoluteSlot.sp_allocation_id": "built by the benchmark-hooked expand_sp",
    "AbsoluteSlot.interval_index": "built by the benchmark-hooked expand_sp",
    "AbsoluteSlot.slot_index": "built by the benchmark-hooked expand_sp",
}


def test_every_declared_field_is_read():
    """Every `__slots__` entry and annotated class field in `src/tddsim` is
    read as an attribute somewhere there: a field that nothing reads is
    state computed for no one."""
    trees = [ast.parse(path.read_text()) for path in
             sorted(pathlib.Path(tddsim.__file__).parent.glob("*.py"))]
    read = {
        node.attr for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    declared = set()
    for tree in trees:
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    declared.add(f"{cls.name}.{stmt.target.id}")
                elif isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    declared.update(f"{cls.name}.{name}" for name in ast.literal_eval(stmt.value))
    unread = {field for field in declared if field.split(".")[1] not in read}
    assert sorted(unread - UNREAD_FIELDS.keys()) == []
    assert sorted(UNREAD_FIELDS.keys() - unread) == []
