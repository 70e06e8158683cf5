import ast
import importlib.util
import pathlib
import re
import sys

import yaml

import tddsim
from tddsim.cli import EXIT_INFEASIBLE, EXIT_OK, main
from tddsim.engine import run_until
from tddsim.trace import TraceRecorder

from conftest import PERFBENCH, SCENARIOS


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


# Fields that no code in `src/tddsim` reads in the runs of
# `test_every_declared_field_is_read_in_a_run`, each with why it stays.
UNREAD_IN_A_RUN = {
    **{
        f"AbsoluteSlot.{name}": "built by the benchmark-hooked expand_sp, which nothing else calls"
        for name in ("sp_allocation_id", "interval_index", "slot_index", "start_us",
                     "duration_us", "category")
    },
    "TddSlotStructure.allocation_id": "read by the benchmark-hooked expand_sp only",
    "ScheduleViolation.kind": "read when a plan fails verify_global, which no plan of assign_slots does",
    "ScheduleViolation.detail": "read when a plan fails verify_global, which no plan of assign_slots does",
}

# Saturated links spend the rest of a run repeating its first service
# period's work; these run for their first 26 ms.
CUT_TO_26_MS = {"one_ap_two_sta", "saturated_dl", "spatial_reuse", "two_node_dl"}

SRC = str(pathlib.Path(tddsim.__file__).parent)


class CountingField:
    """A stand-in for a class's field descriptor that, on the first read
    made from a frame in `src/tddsim`, notes the field and puts the original
    descriptor back; every access goes to the original."""

    def __init__(self, owner: type, name: str, read: set):
        self.owner, self.name, self.read = owner, name, read
        self.original = owner.__dict__[name]

    def __get__(self, obj, owner=None):
        if obj is not None and sys._getframe(1).f_code.co_filename.startswith(SRC):
            self.read.add(f"{self.owner.__name__}.{self.name}")
            setattr(self.owner, self.name, self.original)
        return self.original.__get__(obj, owner)

    def __set__(self, obj, value):
        self.original.__set__(obj, value)

    def __delete__(self, obj):
        self.original.__delete__(obj)


def field_descriptors() -> list[tuple[type, str]]:
    """`(class, field)` of each `__slots__` entry and NamedTuple field of
    every class defined in `src/tddsim`."""
    found = []
    for path in sorted(pathlib.Path(SRC).glob("*.py")):
        module = importlib.import_module(f"tddsim.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                names = [*cls.__dict__.get("__slots__", ()), *cls.__dict__.get("_fields", ())]
                found += [(cls, name) for name in names]
    return found


def test_every_declared_field_is_read_in_a_run(monkeypatch, tmp_path, capsys):
    """The run-time side of `test_every_declared_field_is_read`, which
    counts a field as read when any class's field of that name is read.
    Each field descriptor counts the reads made from `src/tddsim` while the
    product runs: every scenario through `validate`, `bf`, `plan` and `run
    --trace --metrics`, a hand-built world whose slots are interfered, an
    infeasible plan, a rejected report request and a measurement-mode
    training run."""
    from test_engine import build_world, dirty_all_but_slot_13

    read = set()
    declared = field_descriptors()
    for cls, name in declared:
        monkeypatch.setattr(cls, name, CountingField(cls, name, read))

    def cli(*argv, code=EXIT_OK):
        assert main(list(argv)) == code, argv
        return capsys.readouterr()

    def variant(edit):
        """two_node_dl.yaml as `edit` changes it."""
        doc = yaml.safe_load((SCENARIOS / "two_node_dl.yaml").read_text())
        edit(doc)
        path = tmp_path / f"{edit.__name__}.yaml"
        path.write_text(yaml.safe_dump(doc))
        return str(path)

    outputs = ["--trace", str(tmp_path / "trace.jsonl"), "--metrics", str(tmp_path / "metrics.csv")]
    for path in sorted(SCENARIOS.glob("*.yaml")):
        for command in ("validate", "bf", "plan"):
            cli(command, "--config", str(path))
        cut = ["--duration-ms", "26"] if path.stem in CUT_TO_26_MS else []
        cli("run", "--config", str(path), *outputs, *cut)

    run_until(build_world(doctor=dirty_all_but_slot_13, trace=TraceRecorder()))

    def untrainable(doc):  # 5 km apart: training trains no link
        next(n for n in doc["nodes"] if n["id"] == "cn1")["position"] = [5000.0, 0.0]

    infeasible = variant(untrainable)
    cli("plan", "--config", infeasible, code=EXIT_INFEASIBLE)
    cli("run", "--config", infeasible, code=EXIT_INFEASIBLE)
    # No whole interval covers the 210 ms report's slot at 211 ms.
    run = cli("run", "--config", str(SCENARIOS / "reports.yaml"), "--duration-ms", "211")
    assert "rejected" in run.err

    def measure_first(doc):
        runs = doc["beamforming"]["runs"]
        runs.insert(0, dict(runs[0], mode="measurement"))

    measured = variant(measure_first)
    assert '"samples": 1' in cli("bf", "--config", measured).out
    cli("plan", "--config", measured)

    unread = {f"{cls.__name__}.{name}" for cls, name in declared} - read
    assert sorted(unread - UNREAD_IN_A_RUN.keys()) == []
    assert sorted(UNREAD_IN_A_RUN.keys() - unread) == []
