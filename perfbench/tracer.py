"""Layer spans for the traced benchmark run, installed from outside ``src``.

The tracer wraps the public entry points of each ``repro`` package (the
"layers") with timing shims.  Nothing in ``src/`` is edited: the shims are
set on the classes and modules at run time and removed again by
:meth:`Tracer.uninstall`.

A span is ``(index, parent, name, start, end)``.  A layer's self time is the
summed duration of its spans minus what their child spans cover, so time in
the engine's dispatch loop (``simulation``) excludes the generator resumes it
drives, and a policy's ``execute_task`` resume excludes the scheduler calls
it makes.  Generators returned by a wrapped call, and every simulation
process body, are timed per resume.

Forked workers (sweep specs, shard workers) inherit the shims.  Each process
keeps its own totals and appends its spans and totals to files in the output
directory whenever its span stack empties; :func:`collect` sums them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from array import array
from types import GeneratorType

#: Spans kept per process for the trace file.  Totals count every span;
#: only the first ``SPAN_CAP`` of each process are written out.
SPAN_CAP = 20_000

_POLICY_METHODS = ("on_session_start", "execute_task", "on_session_end",
                   "decide_batch", "provisioned_gpus", "kernel_for",
                   "request_ingress", "reply_egress",
                   "stage_model_and_dataset", "persist_model")

#: ``(layer, module, class or None for module functions, names)``: the
#: boundaries where spans are recorded.
ENTRY_POINTS = (
    ("api", "repro.api.simulation", "Simulation", ("run",)),
    ("api", "repro.api.hooks", "HookBus", ("publish",)),
    ("experiments", "repro.experiments.runner", None, ("run_specs",)),
    ("workload", "repro.experiments.scenarios", None, ("build_trace",)),
    ("simulation", "repro.simulation.engine", "Environment",
     ("run", "run_until")),
    ("core", "repro.core.platform", "NotebookOSPlatform",
     ("__init__", "begin_workload", "drain_workload", "finish_workload")),
    ("core", "repro.core.global_scheduler", "GlobalScheduler",
     ("start_kernel", "shutdown_kernel", "preferred_executor",
      "migrate_replica", "scale_out", "scale_in", "handle_replica_failure")),
    ("core", "repro.core.election", "ExecutorElection", ("decide",)),
    ("cluster", "repro.cluster.index", "HostIndex",
     ("add", "discard", "reindex", "iter_ranked", "idle_hosts",
      "idle_host_count", "hosts_with_idle_gpus", "idle_gpu_histogram",
      "most_idle_host", "iter_hosts_by_idle_desc")),
    ("policies", "repro.policies.base", "SchedulingPolicy", _POLICY_METHODS),
    ("policies", "repro.policies.notebookos", "NotebookOSPolicy",
     _POLICY_METHODS),
    ("policies", "repro.policies.batch", "BatchPolicy", _POLICY_METHODS),
    ("policies", "repro.policies.reservation", "ReservationPolicy",
     _POLICY_METHODS),
    ("policies", "repro.policies.lcp", "LargeContainerPoolPolicy",
     _POLICY_METHODS),
    ("statesync", "repro.statesync.synchronizer", "StateSynchronizer",
     ("synchronize",)),
    ("metrics", "repro.metrics.collector", "MetricsCollector",
     ("new_task", "absorb_completed_task", "record_event", "sample_cluster",
      "record_executor_decision", "to_dict", "from_dict")),
    ("metrics", "repro.metrics.collector", "ExperimentResult",
     ("to_dict", "from_dict")),
    ("telemetry", "repro.telemetry.streams", "WindowedStream",
     ("observe", "finalize")),
    ("telemetry", "repro.telemetry.sketch", "QuantileSketch",
     ("add", "merge", "quantile")),
    ("qos", "repro.qos.controller", "TargetState", ("observe",)),
    ("qos", "repro.qos.controller", "QosController", ("summary",)),
    ("shard", "repro.shard.runner", None, ("run_sharded",)),
    ("shard", "repro.shard.plan", "ShardPlan", ("from_trace",)),
    ("shard", "repro.shard.plan", None, ("shard_traces",)),
    ("shard", "repro.shard.merge", None, ("merge_results",)),
    ("shard", "repro.shard.runner", "ShardRuntime",
     ("setup", "step_epoch", "absorb", "finalize", "payload")),
    ("resilience", "repro.resilience.supervisor", "ShardSupervisor",
     ("run",)),
)

#: Span name given to every simulation-process resume, per layer of the
#: process body's module (``core`` session processes, the autoscaler, ...).
PROCESS_SPAN = "{layer}:process.{qualname}"


def layer_of_file(filename: str) -> str:
    """The ``repro`` package a source file belongs to (``other`` outside)."""
    parts = filename.replace(os.sep, "/").split("/")
    for position in range(len(parts) - 2, -1, -1):
        if parts[position] == "repro":
            return parts[position + 1]
    return "other"


class _Resumes:
    """Times each resume of a wrapped generator as one span.

    Supports ``send``/``throw``/``close`` and iteration, which is what both
    the engine's process driver and ``yield from`` use.
    """

    __slots__ = ("_generator", "_name_id", "_tracer")

    def __init__(self, generator, name_id: int, tracer: "Tracer") -> None:
        self._generator = generator
        self._name_id = name_id
        self._tracer = tracer

    @property
    def __name__(self) -> str:
        return self._generator.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        frame = tracer.open(self._name_id)
        try:
            return self._generator.send(value)
        finally:
            tracer.close(frame)

    def throw(self, *exc_info):
        tracer = self._tracer
        frame = tracer.open(self._name_id)
        try:
            return self._generator.throw(*exc_info)
        finally:
            tracer.close(frame)

    def close(self) -> None:
        self._generator.close()


class Tracer:
    """Span stack, per-name totals and the first ``SPAN_CAP`` spans."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        #: The creating process flushes once at the end; forked workers
        #: flush whenever their span stack empties.
        self.root_pid = os.getpid()
        self.names: list = []
        self.layers: list = []
        self._ids: dict = {}
        self._patches: list = []
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- state -------------------------------------------------------------
    def _reset(self) -> None:
        self.pid = os.getpid()
        self.stack: list = []
        self.next_index = 0
        self.calls = array("q")
        self.self_s = array("d")
        self.total_s = array("d")
        self._grow()
        self.spans = {"index": array("q"), "parent": array("q"),
                      "name": array("q"), "start": array("d"),
                      "end": array("d")}
        self._written = 0

    def _grow(self) -> None:
        missing = len(self.names) - len(self.calls)
        if missing > 0:
            self.calls.extend([0] * missing)
            self.self_s.extend([0.0] * missing)
            self.total_s.extend([0.0] * missing)

    def _after_fork(self) -> None:
        if self._patches:
            self._reset()

    def name_id(self, name: str, layer: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self._grow()
        return name_id

    # -- spans -------------------------------------------------------------
    def open(self, name_id: int) -> list:
        index = self.next_index
        self.next_index = index + 1
        frame = [name_id, index, 0.0, time.perf_counter()]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        name_id, index, covered, start = frame
        duration = end - start
        self.calls[name_id] += 1
        self.total_s[name_id] += duration
        self.self_s[name_id] += duration - covered
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_index = parent[1]
        else:
            parent_index = -1
        if index < SPAN_CAP:
            spans = self.spans
            spans["index"].append(index)
            spans["parent"].append(parent_index)
            spans["name"].append(name_id)
            spans["start"].append(start)
            spans["end"].append(end)
        if not stack and self.pid != self.root_pid:
            self.flush()

    # -- installation --------------------------------------------------------
    def _wrap(self, function, name_id: int):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(frame)
            if type(result) is GeneratorType:
                return _Resumes(result, name_id, tracer)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", "traced")
        traced.__qualname__ = getattr(function, "__qualname__", "traced")
        return traced

    def _set(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]
                              if attribute in owner.__dict__ else None))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS` and every
        simulation process body created from now on."""
        rebinds = {}
        for layer, module_name, owner_name, names in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            label = owner_name or module_name.rsplit(".", 1)[1]
            for name in names:
                if owner_name and name not in owner.__dict__:
                    continue  # inherited; wrapped once on the defining class
                raw = (inspect.getattr_static(owner, name) if owner_name
                       else getattr(owner, name))
                name_id = self.name_id(f"{layer}:{label}.{name}", layer)
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, name_id))
                else:
                    wrapped = self._wrap(raw, name_id)
                if owner_name:
                    self._set(owner, name, wrapped)
                else:
                    rebinds[raw] = wrapped
        # Module functions are also bound by ``from x import f`` elsewhere:
        # rebind every loaded ``repro`` module's reference to the original.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                try:
                    replacement = rebinds.get(value)
                except TypeError:
                    continue
                if replacement is not None:
                    self._patches.append((module, attribute, value))
                    setattr(module, attribute, replacement)
        self._install_process_timing()

    def _install_process_timing(self) -> None:
        from repro.simulation.engine import Environment

        tracer = self
        original_init = Environment.__dict__["__init__"]

        def __init__(env, *args, **kwargs):
            original_init(env, *args, **kwargs)
            process = env.process

            def traced_process(generator, name=None):
                code = getattr(generator, "gi_code", None)
                if code is not None:
                    layer = layer_of_file(code.co_filename)
                    name_id = tracer.name_id(
                        PROCESS_SPAN.format(layer=layer,
                                            qualname=generator.__qualname__),
                        layer)
                    generator = _Resumes(generator, name_id, tracer)
                return process(generator, name)

            env.process = traced_process

        self._set(Environment, "__init__", __init__)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        for owner, attribute, original in reversed(self._patches):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches = []

    # -- output --------------------------------------------------------------
    def flush(self) -> None:
        """Append this process's new spans and rewrite its totals file."""
        spans = self.spans
        count = len(spans["index"])
        if count > self._written:
            with open(os.path.join(self.out_dir, f"spans-{self.pid}.jsonl"),
                      "a", encoding="utf-8") as handle:
                for row in range(self._written, count):
                    handle.write(json.dumps(
                        [spans["index"][row], spans["parent"][row],
                         spans["name"][row], spans["start"][row],
                         spans["end"][row]]) + "\n")
            self._written = count
        totals = {"pid": self.pid, "names": self.names, "layers": self.layers,
                  "calls": list(self.calls), "self_s": list(self.self_s),
                  "total_s": list(self.total_s), "spans": self.next_index}
        path = os.path.join(self.out_dir, f"totals-{self.pid}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(totals, handle)
        os.replace(path + ".tmp", path)


def start(out_dir: str) -> Tracer:
    """Create, install and return the tracer for this process."""
    tracer = Tracer(out_dir)
    tracer.install()
    return tracer


def collect(out_dir: str):
    """Sum every process's totals.

    Returns ``(by_name, by_layer, spans, span_total)``: ``by_name`` maps
    span name to ``{"calls", "self_s", "total_s"}``; ``by_layer`` maps layer
    to self seconds; ``spans`` lists the written
    ``(pid, index, parent, name, start, end)``; ``span_total`` counts every
    span, written or not.
    """
    by_name: dict = {}
    by_layer: dict = {}
    spans: list = []
    span_total = 0
    for entry in sorted(os.listdir(out_dir)):
        if not (entry.startswith("totals-") and entry.endswith(".json")):
            continue
        with open(os.path.join(out_dir, entry), encoding="utf-8") as handle:
            totals = json.load(handle)
        span_total += totals["spans"]
        names = totals["names"]
        for name_id, name in enumerate(names):
            row = by_name.setdefault(name, {"calls": 0, "self_s": 0.0,
                                            "total_s": 0.0})
            row["calls"] += totals["calls"][name_id]
            row["self_s"] += totals["self_s"][name_id]
            row["total_s"] += totals["total_s"][name_id]
            layer = totals["layers"][name_id]
            by_layer[layer] = by_layer.get(layer, 0.0) + \
                totals["self_s"][name_id]
        span_path = os.path.join(out_dir, f"spans-{totals['pid']}.jsonl")
        if os.path.exists(span_path):
            with open(span_path, encoding="utf-8") as handle:
                for line in handle:
                    index, parent, name_id, start, end = json.loads(line)
                    spans.append((totals["pid"], index, parent,
                                  names[name_id], start, end))
    return by_name, by_layer, spans, span_total


def chrome_trace(spans, label: str) -> dict:
    """Spans in the Chrome trace-event shape the repo's ``trace`` CLI
    writes: one ``"X"`` event per span, one process row per pid."""
    origin = min((span[4] for span in spans), default=0.0)
    events = []
    for pid in sorted({span[0] for span in spans}):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": f"{label} pid {pid}"}})
    for pid, index, parent, name, start, end in spans:
        args = {"span": index}
        if parent >= 0:
            args["parent_span"] = parent
        events.append({"name": name, "cat": name.split(":", 1)[0],
                       "ph": "X", "ts": round((start - origin) * 1e6, 3),
                       "dur": round(max(0.0, (end - start) * 1e6), 3),
                       "pid": pid, "tid": 0, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
