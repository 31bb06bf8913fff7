"""The benchmark's four workloads, each one user-facing call into ``repro``.

Every workload is a batch job of fixed input size.  ``run(name, seed,
probe, small)`` performs the call, timestamped by ``probe``, and returns an
:class:`Outcome`.  ``seed`` is the scenario seed, so the same seed gives the
same trace.  ``small`` shrinks every input for the harness self-test.

Why these four (see also ``catalog.py``):

* ``cluster_scale`` — a dense fleet, serial: the per-task hot path (engine
  dispatch, core session/election chain, HostIndex placement, the policy
  decision cache, statesync) does most of the work.
* ``summer_sweep`` — the paper's simulation study (Figs. 12-14, 20) run the
  way users run it: four policies via ``run_specs(workers=2)``.  Tiny
  fleet, 360x longer horizon; the reservation spec bypasses elections,
  replication and the decision cache.
* ``sharded_k2`` — the only workload through shard plan, barrier, merge
  and the shard supervisor.
* ``storm_qos`` — failure recovery, hook fan-out, telemetry and a QoS loop
  that closes: the only workload where those layers do real work.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List

NAMES = ("cluster_scale", "summer_sweep", "sharded_k2", "storm_qos")

#: Scenario seeds: the defaults of the registered scenarios.
DEFAULT_SEEDS = {"cluster_scale": 3, "summer_sweep": 21, "sharded_k2": 3,
                 "storm_qos": 13}

SWEEP_POLICIES = ("reservation", "batch", "notebookos", "lcp")
SWEEP_WORKERS = 2
NUM_SHARDS = 2
#: The QoS target of ``examples/qos_control.py``.
STORM_TARGET = ("interactivity:p99>60:autoscaler_override,extra_hosts=2,"
                "hold_s=900")
STORM_WINDOW_S = 300.0

#: Generator overrides per workload: ``(full size, self-test size)``.
SIZES = {
    "cluster_scale": ({}, {"num_sessions": 120, "duration_hours": 1.0}),
    "summer_sweep": ({}, {"num_sessions": 6, "duration_hours": 10 * 24.0}),
    "sharded_k2": ({}, {"num_sessions": 120, "duration_hours": 1.0}),
    "storm_qos": ({"num_sessions": 800, "duration_hours": 8.0},
                  {"num_sessions": 40, "duration_hours": 4.0}),
}
SCENARIOS = {"cluster_scale": "cluster_scale", "summer_sweep": "summer",
             "sharded_k2": "cluster_scale", "storm_qos": "failure_storm"}


@dataclass
class Outcome:
    """What one workload call returned, plus its host-time bracket."""

    #: ``time.monotonic()`` just before and after the user-facing call.
    started: float
    finished: float
    #: Every result the call produced, by label (policy or ``merged``).
    results: Dict[str, object]
    #: The label whose simulated metrics the workload reports.
    headline: str
    #: Workload-specific facts for counters and checks.
    extra: Dict[str, object] = field(default_factory=dict)
    #: Correctness violations found in the call's own outputs.
    violations: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.finished - self.started


def specs(name: str, seed: int, small: bool = False) -> list:
    """The run specs a workload executes, in order."""
    from repro.experiments.scenarios import default_registry

    scenario = default_registry().get(SCENARIOS[name])
    overrides = SIZES[name][1 if small else 0]
    if name == "summer_sweep":
        return [scenario.instantiate(policy=policy, seed=seed, **overrides)
                for policy in SWEEP_POLICIES]
    return [scenario.instantiate(seed=seed, **overrides)]


def expected_tasks(name: str, seed: int, small: bool = False) -> int:
    """Tasks in the workload's traces, generated independently of the run."""
    from repro.experiments.scenarios import build_trace

    per_trace: Dict[str, int] = {}
    total = 0
    for spec in specs(name, seed, small):
        key = json.dumps([spec.seed, spec.generator_kwargs], sort_keys=True)
        if key not in per_trace:
            per_trace[key] = sum(len(session.tasks)
                                 for session in build_trace(spec))
        total += per_trace[key]
    return total


def _cluster_scale(seed: int, small: bool, probe: "RunProbe") -> Outcome:
    from repro.api import Simulation

    simulation = Simulation.from_spec(specs("cluster_scale", seed, small)[0])
    started = probe.call_started()
    result = simulation.run()
    finished = time.monotonic()
    return Outcome(started, finished, {"notebookos": result}, "notebookos")


def _summer_sweep(seed: int, small: bool, probe: "RunProbe") -> Outcome:
    from repro.api import run_specs

    sweep = specs("summer_sweep", seed, small)
    started = probe.call_started()
    outcomes = run_specs(sweep, workers=SWEEP_WORKERS, strict=False)
    finished = time.monotonic()
    violations = []
    for outcome in outcomes:
        if outcome.failed:
            violations.append(f"{outcome.spec.label} quarantined: "
                              f"{outcome.error}")
        elif outcome.attempts != 1:
            violations.append(f"{outcome.spec.label} took "
                              f"{outcome.attempts} attempts")
    results = {outcome.spec.policy: outcome.result for outcome in outcomes
               if not outcome.failed}
    extra = {"attempts": sum(outcome.attempts for outcome in outcomes),
             "specs": len(outcomes),
             "spec_runtime_s": sum(outcome.runtime_s for outcome in outcomes),
             "workers": SWEEP_WORKERS}
    if "reservation" in results and "notebookos" in results:
        extra["gpu_hours_saved"] = (
            results["reservation"].provisioned_gpu_hours
            - results["notebookos"].provisioned_gpu_hours)
    return Outcome(started, finished, results, "notebookos", extra,
                   violations)


def _sharded_k2(seed: int, small: bool, probe: "RunProbe") -> Outcome:
    from repro.shard import run_sharded

    spec = specs("sharded_k2", seed, small)[0]
    started = probe.call_started()
    sharded = run_sharded(spec, NUM_SHARDS, parallel=True)
    finished = time.monotonic()
    violations = []
    if sharded.mode != "parallel":
        violations.append(f"sharded run mode {sharded.mode!r}, "
                          f"not 'parallel'")
    if sharded.recoveries or sharded.degraded:
        violations.append(f"sharded run recovered {sharded.recoveries} "
                          f"worker(s), degraded={sharded.degraded}")
    shards = [payload.get("shard", {}) for payload in sharded.shard_payloads]
    extra = {
        "workers_lost": int(sharded.resilience.get("workers_lost", 0)),
        "restarts": sum(sharded.resilience.get("restarts_per_shard",
                                               {}).values()),
        "barrier_stall_s": sharded.barrier_stall_s,
        "epochs": max((shard.get("epochs", 0) for shard in shards),
                      default=0),
        "shard_entries": [payload.get("events_dispatched", 0)
                          for payload in sharded.shard_payloads],
        "shard_payloads": sharded.shard_payloads,
    }
    return Outcome(started, finished, {"merged": sharded.result}, "merged",
                   extra, violations)


def _storm_qos(seed: int, small: bool, probe: "RunProbe") -> Outcome:
    from repro.api import RUN_END, Simulation

    qos = {}
    simulation = (Simulation.from_spec(specs("storm_qos", seed, small)[0])
                  .with_telemetry()
                  .with_qos(STORM_TARGET, window_s=STORM_WINDOW_S)
                  .on(RUN_END, lambda platform, result, stats:
                      qos.update(stats.get("qos", {}))))
    started = probe.call_started()
    result = simulation.run()
    finished = time.monotonic()
    targets = qos.get("targets", {}).values()
    loop = {"breaches": sum(t["breaches"] for t in targets),
            "actions": sum(t["actions_fired"] for t in targets),
            "recoveries": sum(t["recoveries"] for t in targets)}
    violations = [f"QoS loop did not close: no {kind}"
                  for kind, count in loop.items() if count < 1]
    report = simulation.telemetry.last
    loop["windows"] = (sum(len(report.windows(stream))
                           for stream in report.streams)
                       if report is not None else 0)
    return Outcome(started, finished, {"notebookos": result}, "notebookos",
                   loop, violations)


_RUNNERS = {"cluster_scale": _cluster_scale, "summer_sweep": _summer_sweep,
            "sharded_k2": _sharded_k2, "storm_qos": _storm_qos}


def run(name: str, seed: int, probe: "RunProbe",
        small: bool = False) -> Outcome:
    """Perform workload ``name``'s user-facing call once; ``probe`` (already
    installed) timestamps the call."""
    return _RUNNERS[name](seed, small, probe)


class RunProbe:
    """Records every platform's RUN_START time and RUN_END counters.

    Installed in the process that makes the call; forked sweep and shard
    workers inherit it.  Each platform appends one JSON line to ``path`` at
    RUN_END: a single ``O_APPEND`` write, so workers never interleave.  It
    subscribes two hook topics that fire once per run, so the timed run is
    otherwise untouched.

    With ``stop_at_start`` the probe only measures set-up: it records when
    the call began and when the first platform (in whichever process)
    published RUN_START, then kills its process group — the process must
    lead its own session, as ``run.py`` starts it.
    """

    def __init__(self, path: str, stop_at_start: bool = False) -> None:
        self.path = path
        self.stop_at_start = stop_at_start

    def _append(self, record: dict) -> None:
        line = (json.dumps(record) + "\n").encode("utf-8")
        descriptor = os.open(self.path,
                             os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(descriptor, line)
        finally:
            os.close(descriptor)

    def call_started(self) -> float:
        """Timestamp the start of the user-facing call."""
        now = time.monotonic()
        if self.stop_at_start:
            self._append({"call_started": now})
        return now

    def install(self) -> None:
        from repro.api.hooks import RUN_END, RUN_START
        from repro.core.platform import NotebookOSPlatform

        original = NotebookOSPlatform.__init__
        started: Dict[int, tuple] = {}
        probe = self

        def on_start(platform, trace) -> None:
            now = time.monotonic()
            if probe.stop_at_start:
                probe._append({"run_started": now})
                os.killpg(os.getpgrp(), signal.SIGKILL)
            started[id(platform)] = (now, sum(len(session.tasks)
                                              for session in trace))

        def on_end(platform, result, stats) -> None:
            start, tasks = started.pop(id(platform), (None, 0))
            probe._append({
                "pid": os.getpid(), "started": start,
                "ended": time.monotonic(), "trace_tasks": tasks,
                "policy": result.policy,
                "dispatch": stats.get("dispatch", {}),
                "decisions": stats.get("decisions", {}),
                "ast_hits": stats.get("ast_cache_hits", 0),
                "ast_misses": stats.get("ast_cache_misses", 0),
                "host_failures": len(getattr(platform, "chaos_log", ())),
            })

        def __init__(platform, *args, **kwargs):
            original(platform, *args, **kwargs)
            platform.hooks.subscribe(RUN_START, on_start)
            platform.hooks.subscribe(RUN_END, on_end)

        NotebookOSPlatform.__init__ = __init__

    def records(self) -> List[dict]:
        """Every line written so far (RUN_END records, or the two set-up
        timestamps in ``stop_at_start`` mode)."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
