"""One measured iteration of one workload, in a fresh process.

``run.py`` starts this script once per iteration, because users pay the
imports and the process-global statesync AST cache on every run, and
because peak RSS is only meaningful per process.  It prints one JSON record
on its last stdout line::

    python3 perfbench/iteration.py --workload cluster_scale --seed 3 \\
        --out .perfbench/work/it0 [--traced] [--sizes] [--small]

``--traced`` installs the layer tracer (``tracer.py``) for this iteration;
``--sizes`` also measures serialized result sizes, outside the timed call;
``--setup-only`` stops at the first simulated event and leaves only the
set-up timestamps in ``<out>/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def _peak_rss_mb() -> float:
    """Peak RSS over this process and every worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is KiB on Linux


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def collector_digest(result) -> str:
    """SHA-256 of the pickled collector.

    The collector is rebuilt in the same order on every deterministic run,
    so its pickle is byte-identical (independent of ``PYTHONHASHSEED``), and
    it costs a fraction of the canonical-JSON digest the golden tests use.
    """
    return hashlib.sha256(pickle.dumps(result.collector,
                                       protocol=5)).hexdigest()


def measure(outcome, probe_records, sizes: bool) -> dict:
    """Everything the harness reports about one finished call."""
    from repro.metrics.collector import EventKind

    results = outcome.results
    headline = results.get(outcome.headline)
    starts = [record["started"] for record in probe_records
              if record["started"] is not None]
    counters = {key: 0 for key in (
        "dispatched", "batches", "serials", "overflow", "rebases")}
    for record in probe_records:
        for key in counters:
            counters[key] += int(record["dispatch"].get(key, 0))
    decisions = [record["decisions"] for record in probe_records]
    counters.update({
        "platform_runs": len(probe_records),
        "trace_tasks": sum(record["trace_tasks"] for record in probe_records),
        "cache_hits": sum(d.get("hits", 0) for d in decisions),
        "cache_probes": sum(d.get("hits", 0) + d.get("misses", 0)
                            for d in decisions),
        "admission_batches": sum(d.get("batches", 0) for d in decisions),
        "batched_tasks": sum(d.get("batched_tasks", 0) for d in decisions),
        "ast_hits": sum(record["ast_hits"] for record in probe_records),
        "ast_lookups": sum(record["ast_hits"] + record["ast_misses"]
                           for record in probe_records),
        "host_failures": sum(record["host_failures"]
                             for record in probe_records),
        "tasks_completed": 0, "migrations": 0, "scale_outs": 0,
        "election_failures": 0, "executor_decisions": 0,
        "immediate_commits": 0, "same_executor": 0,
    })
    for result in results.values():
        collector = result.collector
        counters["tasks_completed"] += collector.completed_task_count()
        counters["migrations"] += result.migration_count()
        counters["scale_outs"] += result.scale_out_count()
        counters["election_failures"] += len(
            collector.events_of_kind(EventKind.ELECTION_FAILED))
        counters["executor_decisions"] += collector.executor_decisions
        counters["immediate_commits"] += collector.immediate_gpu_commit_count
        counters["same_executor"] += collector.same_executor_count
    extra = outcome.extra
    for key in ("breaches", "actions", "recoveries", "windows", "attempts",
                "specs", "epochs", "workers_lost", "restarts"):
        if key in extra:
            counters[key] = int(extra[key])
    if "shard_entries" in extra:
        counters["shard_entries"] = list(extra["shard_entries"])
    if headline is not None:
        counters["metrics_samples"] = len(headline.collector.provisioned_gpus)
        counters["max_provisioned_gpus"] = \
            headline.collector.provisioned_gpus.maximum()

    sim = {}
    if headline is not None:
        collector = headline.collector
        sim = {"interactivity_p50_s": collector.interactivity_percentile(0.5),
               "interactivity_p99_s": collector.interactivity_percentile(0.99),
               "gpu_hours": headline.provisioned_gpu_hours,
               "samples": collector.completed_task_count()}
        if "gpu_hours_saved" in extra:
            sim["gpu_hours_saved"] = extra["gpu_hours_saved"]

    digests = {label: collector_digest(result)
               for label, result in sorted(results.items())}
    record = {
        "wall_s": outcome.wall_s,
        "setup_s": (min(starts) - outcome.started) if starts else None,
        "sim": sim,
        "counters": counters,
        "host": {key: extra[key] for key in ("barrier_stall_s",
                                             "spec_runtime_s", "workers")
                 if key in extra},
        "digests": digests,
        "digest": hashlib.sha256(_canonical(digests).encode()).hexdigest(),
        "violations": list(outcome.violations),
    }
    if sizes:
        record["sizes"] = {
            "result_mb": sum(len(_canonical(result.to_dict()))
                             for result in results.values()) / 1e6,
            "payload_mb": sum(len(_canonical(payload)) for payload
                              in extra.get("shard_payloads", ())) / 1e6,
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="scratch directory for this iteration")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--sizes", action="store_true")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop the whole process group at the first "
                             "RUN_START (set-up sample)")
    args = parser.parse_args(argv)

    import workloads

    os.makedirs(args.out, exist_ok=True)
    probe = workloads.RunProbe(os.path.join(args.out, "runs.jsonl"),
                               stop_at_start=args.setup_only)
    probe.install()
    tracer = None
    if args.traced:
        import tracer as tracing

        tracer = tracing.start(args.out)
    outcome = workloads.run(args.workload, args.seed, probe, args.small)
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        tracer.flush()
    record = measure(outcome, probe.records(), args.sizes)
    record["peak_rss_mb"] = peak_rss_mb
    if tracer is not None:
        by_name, by_layer, spans, span_total = tracing.collect(args.out)
        trace_path = os.path.join(args.out, "trace.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(tracing.chrome_trace(
                spans, f"{args.workload} seed {args.seed}"), handle)
        record["layers"] = {"self_s": by_layer, "spans": by_name,
                            "span_total": span_total,
                            "spans_written": len(spans),
                            "trace_file": trace_path}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
