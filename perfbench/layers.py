"""Per-layer tracing of one `tddsim run`, from outside the program.

Spans and counters come only from wrapping public module-level names of
tddsim (functions, and methods of public classes) in the run's own
process. Coarse calls get spans (name, start, end, parent); calls made
thousands of times get counters with accumulated time instead. A hook
whose target no longer exists is skipped and its metrics are reported as
absent, so a refactor that removes, say, `EventQueue` does not fail the run.
"""

from __future__ import annotations

import cProfile
import importlib
import os
import pstats
import sysconfig
import time
from collections import defaultdict

# Every trace record kind the program writes; each gets a count, 0 if the
# workload never writes it.
TRACE_KINDS = (
    "run_header", "slot", "announce", "frame_tx", "frame_rx", "frame_drop",
    "link_dead", "bf_start", "bf_report", "bf_trained", "tpc_update",
)
# Modules that call `link_snr_db`, by the name they import it under.
SNR_CALLERS = ("engine", "beamforming", "controller", "cli")
PROFILED_MODULES = (
    "fractions", "heapq", "json", "tddsim.engine", "tddsim.channel",
    "tddsim.beamforming", "tddsim.controller", "tddsim.trace",
)

# (module, attribute path, span name): one span per call.
SPANS = (
    ("tddsim.cli", "load_config", "config.load"),
    ("tddsim.cli", "prepare_scenario", "cli.prepare"),
    ("tddsim.cli", "build_report_schedules", "cli.report_schedules"),
    ("tddsim.cli", "run_beamforming", "beamforming.run"),
    ("tddsim.cli", "build_interference_graph", "controller.graph"),
    ("tddsim.cli", "assign_slots", "controller.assign"),
    ("tddsim.engine", "World.__init__", "engine.world"),
    ("tddsim.cli", "run_until", "engine.loop"),
    ("tddsim.engine", "collect_metrics", "engine.collect"),
    ("tddsim.cli", "metrics_to_csv", "engine.csv"),
    ("tddsim.trace", "TraceRecorder.write_jsonl", "trace.write"),
)

# Every per-layer metric with its unit; BENCHMARK.json lists the same.
LAYER_METRICS = {
    **{f"{span}_s": "s" for _, _, span in SPANS},
    "beamforming.runs": "count",
    "beamforming.sweep_frames": "count",
    "channel.link_snr_calls": "count",
    "channel.link_snr_s": "s",
    **{f"channel.link_snr_calls.{m}": "count" for m in SNR_CALLERS},
    **{f"channel.link_snr_s.{m}": "s" for m in SNR_CALLERS},
    "controller.vertices": "count",
    "controller.edges": "count",
    "controller.starved": "count",
    "schedule.expand_calls": "count",
    "schedule.expand_s": "s",
    "engine.events": "count",
    "engine.heap_peak": "count",
    "engine.events_per_s": "1/s",
    "trace.records": "count",
    **{f"trace.records.{k}": "count" for k in TRACE_KINDS},
    "trace.record_s": "s",
    "trace.bytes": "B",
    "import_s": "s",
    "trace_overhead_s": "s",
    **{f"profile.self_share.{m}": "share" for m in PROFILED_MODULES},
}


OUTSIDE_RUN = {
    "import_s", "trace_overhead_s", "beamforming.sweep_frames", "trace.bytes",
    *(n for n in LAYER_METRICS if n.startswith("profile.")),
}


def _resolve(module: str, path: str):
    """(owner, attribute name, current value) or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


class Tracer:
    """Spans and counters of one run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []  # indices of spans still running
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.recorder = None  # the run's TraceRecorder, once seen
        self._heap_depth = 0

    # -- wrapping -------------------------------------------------------------

    def _patch(self, module: str, path: str, make, metrics: tuple[str, ...]) -> None:
        found = _resolve(module, path)
        if found is None:
            self.absent.update(metrics)
            return
        owner, name, original = found
        setattr(owner, name, make(original))

    def _span_wrapper(self, span: str, original, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else None
            tracer.spans.append({"name": span, "start": time.perf_counter(), "end": None, "parent": parent})
            tracer._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._open.pop()
                tracer.spans[index]["end"] = time.perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _timed_counter(self, prefix: str, original, suffix: str = ""):
        counts = self.counts
        calls, secs = f"{prefix}_calls{suffix}", f"{prefix}_s{suffix}"

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                counts[secs] += time.perf_counter() - t0
                counts[calls] += 1

        return wrapper

    def install(self) -> None:
        # span -> (what to count from its result, the metrics so counted)
        on_result = {
            "controller.graph": (self._on_graph, ("controller.vertices", "controller.edges")),
            "controller.assign": (
                lambda plan: self._set("controller.starved", len(plan.starved)),
                ("controller.starved",),
            ),
            "beamforming.run": (lambda _: self._add("beamforming.runs", 1), ("beamforming.runs",)),
        }
        for module, path, span in SPANS:
            count, counted = on_result.get(span, (None, ()))
            self._patch(
                module, path,
                lambda orig, span=span, count=count: self._span_wrapper(span, orig, count),
                (f"{span}_s", *counted),
            )
        for caller in SNR_CALLERS:
            self._patch(
                f"tddsim.{caller}", "link_snr_db",
                lambda orig, caller=caller: self._timed_counter("channel.link_snr", orig, f".{caller}"),
                (f"channel.link_snr_calls.{caller}", f"channel.link_snr_s.{caller}"),
            )
        self._patch(
            "tddsim.cli", "expand_sp",
            lambda orig: self._timed_counter("schedule.expand", orig),
            ("schedule.expand_calls", "schedule.expand_s"),
        )
        self._patch("tddsim.trace", "TraceRecorder.record", self._record_wrapper,
                    ("trace.records", "trace.record_s", *(f"trace.records.{k}" for k in TRACE_KINDS)))
        self._patch("tddsim.engine", "EventQueue.push", self._push_wrapper, ("engine.heap_peak",))
        self._patch("tddsim.engine", "EventQueue.pop", self._pop_wrapper,
                    ("engine.events", "engine.events_per_s"))

    def _add(self, key: str, n: float) -> None:
        self.counts[key] += n

    def _set(self, key: str, n: float) -> None:
        self.counts[key] = n

    def _on_graph(self, graph) -> None:
        self._set("controller.vertices", len(graph.vertices))
        self._set("controller.edges", len(graph.edges))

    def _record_wrapper(self, original):
        tracer, counts = self, self.counts

        def record(recorder, t_us, kind, **fields):
            if not recorder.enabled:
                return original(recorder, t_us, kind, **fields)
            tracer.recorder = recorder
            t0 = time.perf_counter()
            original(recorder, t_us, kind, **fields)
            counts["trace.record_s"] += time.perf_counter() - t0
            counts["trace.records." + kind] += 1

        return record

    def _push_wrapper(self, original):
        tracer, counts = self, self.counts

        def push(queue, *args, **kwargs):
            original(queue, *args, **kwargs)
            tracer._heap_depth += 1
            if tracer._heap_depth > counts["engine.heap_peak"]:
                counts["engine.heap_peak"] = tracer._heap_depth

        return push

    def _pop_wrapper(self, original):
        tracer, counts = self, self.counts

        def pop(queue):
            event = original(queue)
            tracer._heap_depth -= 1
            counts["engine.events"] += 1
            return event

        return pop

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the finished run, absent ones left out.

        The metrics in OUTSIDE_RUN come from the run's process and outputs,
        not from its calls, and are added by the caller.
        """
        out = {name: 0.0 for name in LAYER_METRICS if name not in OUTSIDE_RUN}
        for span in self.spans:
            out[span["name"] + "_s"] += span["end"] - span["start"]
        out.update(self.counts)
        for stem in ("calls", "s"):
            out[f"channel.link_snr_{stem}"] = sum(
                out[f"channel.link_snr_{stem}.{m}"] for m in SNR_CALLERS
            )
        out["trace.records"] = sum(v for k, v in self.counts.items() if k.startswith("trace.records."))
        if out["engine.loop_s"] > 0:
            out["engine.events_per_s"] = out["engine.events"] / out["engine.loop_s"]
        for name in self.absent:
            out.pop(name, None)
        return out


def _module_of(filename: str, funcname: str, src_dir: str, stdlib: str) -> str:
    if filename == "~":  # a function implemented in C
        for accel, module in (("_heapq.", "heapq"), ("_json.", "json")):
            if accel in funcname:
                return module
        return "builtins"
    path = os.path.abspath(filename)
    if path.startswith(src_dir + os.sep):
        rel = os.path.relpath(path, src_dir)
        return os.path.splitext(rel)[0].replace(os.sep, ".")
    if path.startswith(stdlib + os.sep):
        top = os.path.relpath(path, stdlib).split(os.sep)[0]
        return os.path.splitext(top)[0]
    return "other"


def profile_shares(profile: cProfile.Profile, src_dir: str) -> dict[str, float]:
    """Share of all profiled self time spent in each PROFILED_MODULES entry."""
    stdlib = os.path.abspath(sysconfig.get_paths()["stdlib"])
    self_time: dict[str, float] = defaultdict(float)
    for (filename, _, funcname), (_, _, tottime, _, _) in pstats.Stats(profile).stats.items():
        self_time[_module_of(filename, funcname, os.path.abspath(src_dir), stdlib)] += tottime
    total = sum(self_time.values()) or 1.0
    return {f"profile.self_share.{m}": self_time[m] / total for m in PROFILED_MODULES}
