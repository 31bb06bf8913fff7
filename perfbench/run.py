"""The repo's end-to-end benchmark: one workload, one seed, one report.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cluster_scale --seed 3 \\
        --seconds 30 --trace 0

Workloads: ``cluster_scale``, ``summer_sweep``, ``sharded_k2``,
``storm_qos`` (see ``workloads.py``; why each was chosen is in
``catalog.py``).  The run repeats the workload, each iteration in a fresh
process (``iteration.py``), for ``--seconds`` seconds, checks every output,
and prints a human-readable report followed, on the last line, by one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` (host
times are medians over the iterations).  ``--trace 1`` reports the
per-layer metrics: counters from untraced iterations' public outputs plus
one traced iteration whose spans go to ``.perfbench/traces/`` in Chrome
trace-event form.  The command exits 1 when any correctness check fails
and 2 when it cannot run at all (for instance without ``src/repro``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Hard cap on one invocation, under the 180 s a run may take.
RUN_LIMIT_S = 170.0
#: Raw work counts printed with every report.
COUNTS = ("tasks_completed", "dispatched", "batches", "rebases", "overflow",
          "cache_probes", "cache_hits", "executor_decisions")
#: Set-up-only samples per untraced run, on top of one per iteration.
SETUP_SAMPLES = 3
#: Exact counters that must repeat across every iteration of a run.
EXACT = ("tasks_completed", "trace_tasks", "platform_runs", "dispatched",
         "batches", "serials", "overflow", "rebases", "cache_probes",
         "cache_hits", "admission_batches", "batched_tasks", "ast_lookups",
         "migrations", "scale_outs", "election_failures",
         "executor_decisions", "immediate_commits", "same_executor",
         "host_failures", "breaches", "actions", "recoveries", "windows",
         "attempts", "epochs", "shard_entries", "metrics_samples",
         "max_provisioned_gpus")


class Unrunnable(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Environment.
# ----------------------------------------------------------------------
def _git_commit(root: str) -> str:
    """HEAD's commit read from ``.git`` directly (no git process)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        packed = os.path.join(git, "packed-refs")
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(root: str, workload: str, seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": _git_commit(root),
            "seeds": {workload: seed}}


# ----------------------------------------------------------------------
# Iterations.
# ----------------------------------------------------------------------
class Runner:
    """Starts iterations in fresh processes and keeps what they report."""

    def __init__(self, root: str, work: str, workload: str, seed: int,
                 small: bool, deadline: float) -> None:
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.small = small
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["REPRO_RESULTS_DIR"] = os.path.join(work, "store")

    def _command(self, out: str, workload, flags) -> list:
        command = [sys.executable, os.path.join(HERE, "iteration.py"),
                   "--workload", workload or self.workload,
                   "--seed", str(self.seed), "--out", out] + list(flags)
        return command + ["--small"] * self.small

    def setup_sample(self):
        """Seconds from the call to the first RUN_START, in a fresh process
        stopped right there; ``None`` if it did not get that far."""
        out = os.path.join(self.work, f"setup{self.count}")
        self.count += 1
        os.makedirs(out)
        command = self._command(out, None, ["--setup-only"])
        process = subprocess.Popen(command, cwd=self.root, env=self.env,
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL,
                                   start_new_session=True)
        try:
            process.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        marks = {}
        path = os.path.join(out, "runs.jsonl")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    marks.update(json.loads(line))
        if "call_started" in marks and "run_started" in marks:
            return marks["run_started"] - marks["call_started"]
        return None

    def iterate(self, workload=None, traced=False, sizes=False) -> dict:
        """One iteration; returns its record, or ``{"error": ...}``."""
        out = os.path.join(self.work, f"it{self.count}")
        self.count += 1
        command = self._command(out, workload, ["--traced"] * traced
                                + ["--sizes"] * sizes)
        started = time.monotonic()
        process = subprocess.Popen(
            command, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = process.communicate(
                timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            return {"error": "iteration timed out", "elapsed": time.monotonic()
                    - started}
        finally:
            # Forked workers share the session: none may outlive the call.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        elapsed = time.monotonic() - started
        lines = stdout.strip().splitlines()
        if process.returncode != 0 or not lines:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"exit {process.returncode}: {tail[0]}",
                    "elapsed": elapsed}
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            return {"error": "unparseable iteration record",
                    "elapsed": elapsed}
        record["elapsed"] = elapsed
        record["out"] = out
        return record


# ----------------------------------------------------------------------
# Checks.
# ----------------------------------------------------------------------
def check(records, expected_tasks: int, workload: str, seed: int,
          small: bool, baselines: dict):
    """Attach a ``violations`` list to every record; returns run-level
    violations (which fail every iteration) and notes for the report."""
    good = [record for record in records if "error" not in record]
    reference = good[0] if good else None
    for record in records:
        if "error" in record:
            record["violations"] = [record["error"]]
            continue
        violations = record["violations"]
        counters = record["counters"]
        if counters["tasks_completed"] != expected_tasks:
            violations.append(f"{counters['tasks_completed']} tasks "
                              f"completed, trace has {expected_tasks}")
        if counters["trace_tasks"] != expected_tasks:
            violations.append(f"platforms saw {counters['trace_tasks']} "
                              f"tasks, trace has {expected_tasks}")
        if record["digest"] != reference["digest"]:
            violations.append("collector digest differs between iterations")
        for key in EXACT:
            if counters.get(key) != reference["counters"].get(key):
                violations.append(f"counter {key} differs between "
                                  f"iterations: {counters.get(key)} vs "
                                  f"{reference['counters'].get(key)}")
        if record["sim"] != reference["sim"]:
            violations.append("simulated metrics differ between iterations")
    run_violations, notes = [], []
    baseline = baselines.get((workload, seed))
    if baseline and not small and reference is not None:
        for key, value in baseline.items():
            if reference["counters"].get(key) != value:
                run_violations.append(
                    f"{key} = {reference['counters'].get(key)}, the "
                    f"recorded baseline is {value}")
        if not run_violations:
            notes.append(f"baseline cross-check: {baseline} as recorded")
    return run_violations, notes


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------
def end_to_end(untraced, setups) -> dict:
    """Per-metric samples: one per iteration for host-time metrics (set-up
    also from the set-up-only samples), the exact value for simulated
    ones."""
    walls = [record["wall_s"] for record in untraced]
    sim = untraced[0]["sim"]
    return {
        "wall_s": walls,
        "setup_s": [record["setup_s"] for record in untraced] + setups,
        "peak_rss_mb": [record["peak_rss_mb"] for record in untraced],
        "sim.interactivity_p50_s": [sim["interactivity_p50_s"]],
        "sim.interactivity_p99_s": [sim["interactivity_p99_s"]],
        "sim.gpu_hours": [sim["gpu_hours"]],
    }


def fidelity_error(merged: dict, reference: dict) -> float:
    """Largest relative error of the K-shard result against K=1."""
    pairs = [(merged["counters"]["tasks_completed"],
              reference["counters"]["tasks_completed"])]
    pairs += [(merged["sim"][key], reference["sim"][key])
              for key in ("gpu_hours", "interactivity_p50_s",
                          "interactivity_p99_s")]
    return max(abs(value - ref) / abs(ref) for value, ref in pairs if ref)


def per_layer(untraced, traced, reference) -> dict:
    """Every per-layer metric from one traced and the untraced records."""
    counters = untraced[0]["counters"]
    sizes = next((record["sizes"] for record in untraced
                  if "sizes" in record), {})
    tasks = counters["tasks_completed"]
    layers = traced["layers"]
    self_s = layers["self_s"]
    spans = layers["spans"]

    def calls(prefix):
        return sum(row["calls"] for name, row in spans.items()
                   if name.startswith(prefix))

    def inclusive(name):
        return spans.get(name, {}).get("total_s", 0.0)

    wall = _median([record["wall_s"] for record in untraced])
    busy = _median([record["wall_s"] - record["setup_s"]
                    for record in untraced])
    stall = _median([record["host"].get("barrier_stall_s", 0.0)
                     for record in untraced])
    entries = counters.get("shard_entries", [])
    elections = calls("core:ExecutorElection.decide")
    index_calls = calls("cluster:HostIndex.")
    index_updates = sum(calls(f"cluster:HostIndex.{name}")
                        for name in ("add", "discard", "reindex"))
    resumes = sum(row["calls"] for name, row in spans.items()
                  if ":process." in name)
    values = {
        "simulation.entries_per_task": _ratio(counters["dispatched"], tasks),
        "simulation.batches_per_task": _ratio(counters["batches"], tasks),
        "simulation.resumes_per_task": _ratio(resumes, tasks),
        "simulation.self_s": self_s.get("simulation", 0.0),
        "simulation.rebases_per_task": _ratio(counters["rebases"], tasks),
        "simulation.overflow_frac": _ratio(counters["overflow"],
                                           counters["dispatched"]),
        "simulation.entries_per_s": _ratio(counters["dispatched"], busy),
        "core.self_s": self_s.get("core", 0.0),
        "core.elections_per_task": _ratio(elections, tasks),
        "core.election_failed_frac": _ratio(counters["election_failures"],
                                            elections),
        "core.migrations": counters["migrations"],
        "core.same_executor_frac": _ratio(counters["same_executor"],
                                          counters["executor_decisions"]),
        "core.immediate_commit_frac": _ratio(
            counters["immediate_commits"], counters["executor_decisions"]),
        "core.scale_outs": counters["scale_outs"],
        "cluster.max_provisioned_gpus": counters.get("max_provisioned_gpus",
                                                     0),
        "core.host_failures": counters["host_failures"],
        "policies.self_s": self_s.get("policies", 0.0),
        "policies.cache_probes_per_task": _ratio(counters["cache_probes"],
                                                 tasks),
        "policies.cache_hit_frac": _ratio(counters["cache_hits"],
                                          counters["cache_probes"]),
        "policies.tasks_per_admission_batch": _ratio(
            counters["batched_tasks"], counters["admission_batches"]),
        "cluster.self_s": self_s.get("cluster", 0.0),
        "cluster.index_reindex_per_task": _ratio(
            calls("cluster:HostIndex.reindex"), tasks),
        "cluster.index_queries_per_task": _ratio(index_calls - index_updates,
                                                 tasks),
        "statesync.self_s": self_s.get("statesync", 0.0),
        "statesync.syncs_per_task": _ratio(
            calls("statesync:StateSynchronizer.synchronize"), tasks),
        "statesync.ast_cache_hit_frac": _ratio(counters["ast_hits"],
                                               counters["ast_lookups"]),
        "metrics.self_s": self_s.get("metrics", 0.0),
        "metrics.samples": counters.get("metrics_samples", 0),
        "metrics.result_mb": sizes.get("result_mb", 0.0),
        "api.self_s": self_s.get("api", 0.0),
        "api.hook_publishes_per_task": _ratio(calls("api:HookBus.publish"),
                                              tasks),
        "telemetry.self_s": self_s.get("telemetry", 0.0),
        "telemetry.windows": counters.get("windows", 0),
        "qos.self_s": self_s.get("qos", 0.0),
        "qos.breaches": counters.get("breaches", 0),
        "qos.actions": counters.get("actions", 0),
        "qos.recoveries": counters.get("recoveries", 0),
        "shard.plan_s": inclusive("shard:ShardPlan.from_trace")
        + inclusive("shard:plan.shard_traces"),
        "shard.barrier_stall_s": stall,
        "shard.stall_frac": _ratio(stall, len(entries) * wall),
        "shard.imbalance": _ratio(max(entries, default=0),
                                  min(entries, default=0)),
        "shard.merge_s": inclusive("shard:merge.merge_results"),
        "shard.payload_mb": sizes.get("payload_mb", 0.0),
        "shard.epochs": counters.get("epochs", 0),
        "resilience.workers_lost": counters.get("workers_lost", 0),
        "resilience.restarts": counters.get("restarts", 0),
        "experiments.parallel_eff": _median([
            _ratio(record["host"]["spec_runtime_s"],
                   record["host"]["workers"] * record["wall_s"])
            for record in untraced if "spec_runtime_s" in record["host"]]),
        "experiments.extra_attempts": (counters["attempts"]
                                       - counters["specs"]
                                       if "attempts" in counters else 0),
        "workload.trace_build_s": inclusive(
            "workload:scenarios.build_trace"),
        "sim.gpu_hours_saved": untraced[0]["sim"].get("gpu_hours_saved",
                                                      0.0),
        "sim.fidelity_err": (fidelity_error(untraced[0], reference)
                             if reference is not None else 0.0),
        "trace.overhead": _ratio(traced["wall_s"], wall),
    }
    return values


# ----------------------------------------------------------------------
# Report.
# ----------------------------------------------------------------------
def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_lines(workload, seed, args, e2e, layer_values, bench, records,
                 run_violations, notes, attempted, failed, sim,
                 fingerprint_row):
    """The human-readable report: every metric with its unit, its
    better-direction and its sample count."""
    declared = {metric["name"]: metric
                for metric in bench["end_to_end"] + bench["per_layer"]}

    def row(name, value, note="", unit=None, better=None):
        unit = unit or declared[name]["unit"]
        better = better or declared[name]["better"]
        return (f"  {name:34s} {_format(value):>14s} {unit:12s} "
                f"({better} is better) {note}").rstrip()

    traced_count = sum(1 for record in records if "layers" in record)
    lines = [f"perfbench {workload} seed={seed} seconds={args.seconds:g} "
             f"trace={args.trace}: {len(records) - traced_count} untraced and "
             f"{traced_count} traced iteration(s), each in a fresh process",
             f"fingerprint {json.dumps(fingerprint_row, sort_keys=True)}"]
    for name, values in e2e.items():
        if name.startswith("sim."):
            lines.append(row(name, values[0], f"exact; n={sim['samples']} "
                                              f"tasks"))
        else:
            q1, q3 = _quartiles(values)
            lines.append(row(name, _median(values),
                             f"median of {len(values)} untraced "
                             f"(q1 {_format(q1)}, q3 {_format(q3)})"))
    lines.append(row("failed_frac", _ratio(failed, attempted),
                     f"{failed} of {attempted} simulated tasks",
                     unit="frac", better="lower"))
    if "gpu_hours_saved" in sim:
        lines.append(row("sim.gpu_hours_saved", sim["gpu_hours_saved"],
                         "exact; reservation minus notebookos"))
    for name, value in (layer_values or {}).items():
        lines.append(row(name, value))
    good = [record for record in records if "error" not in record]
    if good:
        counters = good[0]["counters"]
        lines.append("  exact counters, identical in every iteration: "
                     + " ".join(f"{key}={counters[key]}" for key in COUNTS))
    lines += [f"  {note}" for note in notes]
    for index, record in enumerate(records):
        for violation in record.get("violations", []):
            lines.append(f"  FAILED iteration {index}: {violation}")
    for violation in run_violations:
        lines.append(f"  FAILED run: {violation}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro simulator.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the scenario's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep repeating the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--small", action="store_true",
                        help="reduced input sizes (harness self-test)")
    args = parser.parse_args(argv)
    launched = time.monotonic()
    root = os.getcwd()
    try:
        bench_path = os.path.join(root, "BENCHMARK.json")
        with open(bench_path, encoding="utf-8") as handle:
            bench = json.load(handle)
        if not os.path.isfile(os.path.join(root, "src", "repro",
                                           "__init__.py")):
            raise Unrunnable("no repro sources under ./src: run from the "
                             "root of a repository checkout")
    except (OSError, ValueError, Unrunnable) as error:
        print(f"perfbench: cannot run: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import catalog
    import workloads

    workload = args.workload
    if workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEEDS[workload] if args.seed is None \
        else args.seed

    state = os.path.join(root, ".perfbench")
    work = os.path.join(state, "work", f"{workload}-{seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Byte-compile once so no iteration pays for it; users' installs have
    # their bytecode too.
    compileall.compile_dir(os.path.join(root, "src"), quiet=2)
    expected = workloads.expected_tasks(workload, seed, args.small)

    runner = Runner(root, work, workload, seed, args.small,
                    launched + RUN_LIMIT_S)
    budget_end = launched + args.seconds
    records = []
    setups = []
    traced = reference = None
    if args.trace:
        records.append(runner.iterate(sizes=True))
        traced = runner.iterate(traced=True)
        records.append(traced)
        if workload == "sharded_k2":
            reference = runner.iterate(workload="cluster_scale")
    else:
        # Extra set-up samples: cheap, and set-up is the noisiest figure.
        setups = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    while True:
        # Start another iteration only if a typical one still fits.
        if records and time.monotonic() + _median(
                [record["elapsed"] for record in records
                 if record is not traced]) > budget_end:
            break
        records.append(runner.iterate())
        if "error" in records[-1]:
            break

    run_violations, notes = check(records, expected, workload, seed,
                                  args.small, catalog.BASELINES)
    if None in setups:
        run_violations.append(f"{setups.count(None)} set-up sample(s) never "
                              f"reached the first simulated event")
        setups = [value for value in setups if value is not None]
    if reference is not None and "error" in reference:
        run_violations.append(f"K=1 reference run failed: "
                              f"{reference['error']}")
        reference = None
    if traced is not None and "layers" not in traced:
        run_violations.append("the traced iteration reported no spans")
    attempted = expected * len(records)
    failed = 0
    for record in records:
        if run_violations or record["violations"]:
            failed += expected
        else:
            failed += expected - record["counters"]["tasks_completed"]
    correct = failed == 0 and not run_violations

    untraced = [record for record in records
                if record is not traced and "error" not in record]
    metrics = {}
    e2e = layer_values = None
    sim = untraced[0]["sim"] if untraced else {}
    units = {metric["name"]: metric["unit"]
             for metric in bench["end_to_end"] + bench["per_layer"]}
    if untraced:
        e2e = end_to_end(untraced, setups)
        if args.trace and traced is not None and "layers" in traced:
            layer_values = per_layer(untraced, traced, reference)
            metrics = {name: {"value": layer_values[name],
                              "unit": units[name]}
                       for name in (m["name"] for m in bench["per_layer"])}
        elif not args.trace:
            metrics = {name: {"value": _median(e2e[name]),
                              "unit": units[name]}
                       for name in (m["name"] for m in bench["end_to_end"])}

    fingerprint_row = fingerprint(root, workload, seed)
    for line in report_lines(workload, seed, args, e2e or {}, layer_values,
                             bench, records, run_violations, notes,
                             attempted, failed, sim, fingerprint_row):
        print(line)
    if traced is not None and "layers" in traced:
        traces = os.path.join(state, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_file = os.path.join(traces, f"{workload}-seed{seed}.trace.json")
        shutil.move(traced["layers"]["trace_file"], trace_file)
        layers = traced["layers"]
        same = all(record["digest"] == traced["digest"]
                   for record in untraced)
        print(f"  trace: {layers['spans_written']} of {layers['span_total']} "
              f"spans written to {os.path.relpath(trace_file, root)}; the "
              f"traced collector digest {'equals' if same else 'DIFFERS FROM'}"
              f" the untraced one")
    results = os.path.join(state, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-seed{seed}-trace"
                           f"{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"fingerprint": fingerprint_row, "correct": correct,
                   "violations": run_violations, "metrics": metrics,
                   "iterations": [{key: value for key, value in
                                   record.items() if key != "layers"}
                                  for record in records]},
                  handle, indent=1, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
