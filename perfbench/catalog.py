"""What each benchmark metric means, where it moves, and what it overlaps.

``BENCHMARK.json`` fixes every metric's name, unit, better-direction and
bound.  Its schema has no room for the rest, so it lives here:

* :data:`WORKLOADS` — why each workload was chosen, and which of the seven
  ``benchmarks/BENCH_*.json`` gates its metrics overlap;
* :data:`END_TO_END` — what a user sees, and on which workloads;
* :data:`PER_LAYER` — each layer metric, the end-to-end metric it should
  move, the workloads it is mostly on and the ones it is flat on, and
  whether it comes from the traced run or the untraced runs' public outputs;
* :data:`BASELINES` — counts recorded by earlier benchmarks that the
  harness must reproduce exactly.

Later changes cite metrics by these names.
"""

WORKLOADS = {
    "cluster_scale": {
        "why": "Registered cluster_scale scenario, serial, NotebookOS, no "
               "instrumentation: 2,000 sessions, 6 simulated hours, 100+ "
               "hosts. A dense fleet, so the per-task hot path does most "
               "of the work: engine dispatch (~13 entries/task), the core "
               "session/task chain and elections, HostIndex placement, "
               "the DecisionCache and statesync. The 'do less work per "
               "task' targets are measured here.",
        "gates": {
            "BENCH_dispatch.json": "scenarios.cluster_scale: serial_s and "
                                   "the dispatch counters (wall_s, "
                                   "simulation.entries_per_task, "
                                   "simulation.batches_per_task)",
            "BENCH_engine.json": "scenarios.cluster_scale.serial_s (wall_s)",
            "BENCH_placement.json": "scenarios.cluster_scale.serial_s "
                                    "(wall_s, cluster.*)",
            "BENCH_policy.json": "scenarios.cluster_scale batched_s and "
                                 "digest (wall_s, policies.*)",
        },
    },
    "summer_sweep": {
        "why": "Registered summer scenario under reservation, batch, "
               "notebookos and lcp via run_specs(workers=2), no store: the "
               "paper's simulation study (Figs. 12-14, 20) run the way "
               "users run it. Same task count as cluster_scale but a tiny "
               "fleet and a 360x longer horizon: placement is light, "
               "calendar-queue rebases and the sampler/autoscaler loops "
               "weigh more. The reservation spec bypasses elections, "
               "replication and the DecisionCache (the 'no change "
               "expected' case for core and policy work). Each spec ships "
               "a ~20 MB result dict over the worker pipe.",
        "gates": {
            "BENCH_engine.json": "scenarios.cluster_scale parallel_s, a "
                                 "2-worker sweep (experiments.parallel_eff)",
            "BENCH_placement.json": "scenarios.*.parallel_s "
                                    "(experiments.parallel_eff)",
            "BENCH_policy.json": "scenarios.cluster_scale_dispatch "
                                 "parallel_s (experiments.parallel_eff)",
        },
    },
    "sharded_k2": {
        "why": "The cluster_scale spec through run_sharded(spec, 2, "
               "parallel=True): two supervised shard processes exchanging "
               "barrier frames. The only workload through shard plan, "
               "barrier, merge and the ShardSupervisor; shows the sharded "
               "speedup against cluster_scale and the K=2 sharding error.",
        "gates": {
            "BENCH_giga.json": "mega speedup_2, barrier_stall_s, "
                               "peak_rss_mb (wall_s, peak_rss_mb, shard.*)",
            "BENCH_resilience.json": "k2 fault_free_wall_s and "
                                     "digest_identical (wall_s, "
                                     "resilience.*)",
        },
    },
    "storm_qos": {
        "why": "Registered failure_storm scenario scaled to 800 sessions "
               "over 8 hours (~90 host kills) with default telemetry and "
               "the examples/qos_control.py target (interactivity "
               "p99>60 -> autoscaler_override, 300 s windows). The core "
               "layer serves failure recovery instead of the steady path; "
               "the only workload where hook fan-out, telemetry t-digests "
               "and the QoS controller do real work.",
        "gates": {
            "BENCH_qos.json": "smoke.storm breaches/actions/recoveries, "
                              "qos_overhead, telemetry_wall_s (qos.*, "
                              "telemetry.*, wall_s)",
        },
    },
}

ALL = tuple(WORKLOADS)

#: End-to-end metrics: what each measures and the workloads reporting it.
#: Host-time metrics are medians over the iterations of one run; simulated
#: metrics are exact for a commit and seed.  The model has no reference
#: results from real hardware, so it is unvalidated and no accuracy figure
#: is given.
END_TO_END = {
    "wall_s": "host seconds of the workload's user-facing call "
              "(Simulation.run, run_specs or run_sharded), set-up included",
    "setup_s": "the part of wall_s before the first simulated event (the "
               "first RUN_START in any process): trace generation, config "
               "resolution, platform or shard wiring",
    "peak_rss_mb": "peak resident memory, the maximum over the workload's "
                   "processes (the call's process and its forked workers)",
    "sim.interactivity_p50_s": "simulated seconds from task submission to "
                               "start of execution (Fig. 9a), median; the "
                               "notebookos spec on summer_sweep, the merged "
                               "result on sharded_k2",
    "sim.interactivity_p99_s": "the same delay at p99 (every workload has "
                               "well over ten samples beyond it)",
    "sim.gpu_hours": "provisioned GPU-hours of the same result",
}

# failed_frac, the share of the workload's simulated tasks that did not
# complete, is printed in the report but not gated in BENCHMARK.json: it is
# 0 on a correct run.  The result line carries it as ``failed / attempted``;
# a run that raises, quarantines a spec, recovers or degrades a shard, or
# fails a correctness check counts all of its tasks as failed.

TRACED = "traced"      # from the traced run's spans
OUTPUTS = "outputs"    # from the untraced runs' public outputs

#: name -> (should move, mostly on, flat on, source, meaning)
PER_LAYER = {
    "simulation.entries_per_task": (
        ("wall_s",), ("cluster_scale",), (), OUTPUTS,
        "engine queue entries dispatched per completed task (RUN_END "
        "stats.dispatch.dispatched)"),
    "simulation.batches_per_task": (
        ("wall_s",), ("cluster_scale",), (), OUTPUTS,
        "fused same-timestamp dispatch batches per task"),
    "simulation.resumes_per_task": (
        ("wall_s",), ("cluster_scale",), (), TRACED,
        "simulation-process generator resumes per task"),
    "simulation.self_s": (
        ("wall_s",), ("cluster_scale",), (), TRACED,
        "engine self time: Environment.run/run_until minus the resumes "
        "and calls they drive"),
    "simulation.rebases_per_task": (
        ("wall_s",), ("summer_sweep",), ("cluster_scale",), OUTPUTS,
        "calendar-queue window rebases per task"),
    "simulation.overflow_frac": (
        ("wall_s",), ("summer_sweep",), ("cluster_scale",), OUTPUTS,
        "share of dispatched entries that went through the overflow heap"),
    "simulation.entries_per_s": (
        ("wall_s",), ALL, (), OUTPUTS,
        "dispatched entries per host second of wall_s - setup_s, against "
        "the 807k/s engine ceiling in BENCH_dispatch.json"),
    "core.self_s": (
        ("wall_s",), ("cluster_scale",), ("summer_sweep",), TRACED,
        "platform, session processes, GlobalScheduler, elections"),
    "core.elections_per_task": (
        ("wall_s",), ("cluster_scale",), ("summer_sweep",), TRACED,
        "ExecutorElection.decide calls per task (the reservation spec "
        "makes none)"),
    "core.election_failed_frac": (
        ("sim.interactivity_p99_s", "wall_s"), ("storm_qos",),
        ("summer_sweep",), TRACED,
        "ELECTION_FAILED events per election"),
    "core.migrations": (
        ("sim.interactivity_p99_s", "wall_s"), ("storm_qos",),
        ("summer_sweep",), OUTPUTS, "kernel migrations, all results"),
    "core.same_executor_frac": (
        ("sim.interactivity_p99_s", "wall_s"), ("storm_qos",),
        ("summer_sweep",), OUTPUTS,
        "executor decisions that reused the previous executor"),
    "core.immediate_commit_frac": (
        ("sim.interactivity_p50_s",), ("storm_qos", "cluster_scale"), (),
        OUTPUTS, "executor decisions that committed GPUs without waiting"),
    "core.scale_outs": (
        ("sim.gpu_hours",), ("storm_qos", "cluster_scale"), (), OUTPUTS,
        "scale-out events, all results"),
    "cluster.max_provisioned_gpus": (
        ("sim.gpu_hours",), ("storm_qos", "cluster_scale"), (), OUTPUTS,
        "peak provisioned GPUs of the headline result"),
    "core.host_failures": (
        (), ("storm_qos",), (), OUTPUTS,
        "hosts killed by the chaos process (an input check: a changed "
        "storm shows here)"),
    "policies.self_s": (
        ("wall_s",), ("cluster_scale",), (), TRACED,
        "policy execute_task resumes and decision calls"),
    "policies.cache_probes_per_task": (
        ("wall_s",), ("cluster_scale",), (), OUTPUTS,
        "DecisionCache probes (hits + misses) per task; 0 on reservation"),
    "policies.cache_hit_frac": (
        ("wall_s",), ("cluster_scale",), (), OUTPUTS,
        "DecisionCache hits per probe"),
    "policies.tasks_per_admission_batch": (
        ("wall_s",), ("cluster_scale",), (), OUTPUTS,
        "tasks per same-timestamp admission batch (1.00: batching does no "
        "work today)"),
    "cluster.self_s": (
        ("wall_s",), ("cluster_scale",), ("summer_sweep",), TRACED,
        "HostIndex queries and reindexing, cluster processes"),
    "cluster.index_reindex_per_task": (
        ("wall_s",), ("cluster_scale",), ("summer_sweep",), TRACED,
        "HostIndex.reindex calls per task"),
    "cluster.index_queries_per_task": (
        ("wall_s",), ("cluster_scale",), ("summer_sweep",), TRACED,
        "HostIndex query calls (everything but add/discard/reindex) per "
        "task"),
    "statesync.self_s": (
        ("wall_s",), ("cluster_scale", "storm_qos"), (), TRACED,
        "StateSynchronizer.synchronize"),
    "statesync.syncs_per_task": (
        ("wall_s",), ("cluster_scale", "storm_qos"), (), TRACED,
        "synchronize calls per task"),
    "statesync.ast_cache_hit_frac": (
        ("wall_s",), ("cluster_scale", "storm_qos"), (), OUTPUTS,
        "process-global AST cache hits per lookup"),
    "metrics.self_s": (
        ("wall_s",), ("summer_sweep",), (), TRACED,
        "MetricsCollector recorders and result (de)serialization"),
    "metrics.samples": (
        ("wall_s",), ("summer_sweep",), (), OUTPUTS,
        "cluster samples in the headline result (72 on cluster_scale)"),
    "metrics.result_mb": (
        ("wall_s", "peak_rss_mb"), ("summer_sweep", "sharded_k2"), (),
        OUTPUTS, "JSON size of every result's to_dict()"),
    "api.self_s": (
        ("wall_s",), ("storm_qos",), (), TRACED,
        "HookBus.publish fan-out and the Simulation builder"),
    "api.hook_publishes_per_task": (
        ("wall_s",), ("cluster_scale",), (), TRACED,
        "HookBus.publish calls per task"),
    "telemetry.self_s": (
        ("wall_s",), ("storm_qos",), ("cluster_scale", "summer_sweep",
                                      "sharded_k2"), TRACED,
        "windowed streams and t-digest sketches"),
    "telemetry.windows": (
        ("wall_s",), ("storm_qos",), ("cluster_scale", "summer_sweep",
                                      "sharded_k2"), OUTPUTS,
        "telemetry windows closed, summed over streams (0 = no telemetry)"),
    "qos.self_s": (
        ("sim.interactivity_p99_s", "sim.gpu_hours"), ("storm_qos",), (),
        TRACED, "QoS target evaluation"),
    "qos.breaches": (
        ("sim.interactivity_p99_s", "sim.gpu_hours"), ("storm_qos",), (),
        OUTPUTS, "QoS breaches (RUN_END stats.qos)"),
    "qos.actions": (
        ("sim.interactivity_p99_s", "sim.gpu_hours"), ("storm_qos",), (),
        OUTPUTS, "QoS actions fired"),
    "qos.recoveries": (
        ("sim.interactivity_p99_s", "sim.gpu_hours"), ("storm_qos",), (),
        OUTPUTS, "QoS recoveries"),
    "shard.plan_s": (
        ("setup_s",), ("sharded_k2",), (), TRACED,
        "ShardPlan.from_trace plus shard_traces"),
    "shard.barrier_stall_s": (
        ("wall_s", "peak_rss_mb"), ("sharded_k2",), (), OUTPUTS,
        "host seconds shards waited at barriers, summed over shards"),
    "shard.stall_frac": (
        ("wall_s", "peak_rss_mb"), ("sharded_k2",), (), OUTPUTS,
        "barrier stall per shard-second of wall_s"),
    "shard.imbalance": (
        ("wall_s", "peak_rss_mb"), ("sharded_k2",), (), OUTPUTS,
        "max/min dispatched entries over shards (0 when unsharded)"),
    "shard.merge_s": (
        ("wall_s", "peak_rss_mb"), ("sharded_k2",), (), TRACED,
        "merge_results"),
    "shard.payload_mb": (
        ("wall_s", "peak_rss_mb"), ("sharded_k2",), (), OUTPUTS,
        "JSON size of the shard payloads shipped to the coordinator"),
    "shard.epochs": (
        ("wall_s", "peak_rss_mb"), ("sharded_k2",), (), OUTPUTS,
        "barrier epochs per shard"),
    "resilience.workers_lost": (
        (), ("sharded_k2",), (), OUTPUTS,
        "shard workers lost (any loss also fails the run)"),
    "resilience.restarts": (
        (), ("sharded_k2",), (), OUTPUTS, "shard worker restarts"),
    "experiments.parallel_eff": (
        ("wall_s",), ("summer_sweep",), (), OUTPUTS,
        "sum of spec runtime_s / (workers x wall_s); 0 off the sweep"),
    "experiments.extra_attempts": (
        ("wall_s",), ("summer_sweep",), (), OUTPUTS,
        "sweep attempts beyond one per spec (any also fails the run)"),
    "workload.trace_build_s": (
        ("setup_s",), ALL, (), TRACED,
        "build_trace seconds, summed over the processes that build"),
    "sim.gpu_hours_saved": (
        (), ("summer_sweep",), (), OUTPUTS,
        "end-to-end, summer_sweep only: reservation minus notebookos "
        "provisioned GPU-hours (Fig. 13); 0 elsewhere"),
    "sim.fidelity_err": (
        (), ("sharded_k2",), (), OUTPUTS,
        "end-to-end, sharded_k2 only: largest relative error of tasks "
        "completed, GPU-hours and interactivity p50/p99 against the K=1 "
        "run of the same spec (computed outside any timed span); 0 "
        "elsewhere"),
    "trace.overhead": (
        (), ALL, (), TRACED,
        "traced wall_s over the untraced median of the same run"),
}

#: Counts earlier benchmarks recorded: ``(workload, seed) -> counters``.
BASELINES = {
    ("cluster_scale", 3): {"dispatched": 296958, "batches": 221586},
}
