"""The metrics collector and experiment result container.

Every policy run populates one :class:`MetricsCollector`:

* per-task records with interactivity delay, task completion time, and the
  per-step latency breakdown;
* cluster timelines (provisioned GPUs, GPUs committed to training, active
  sessions, active trainings, cluster-wide subscription ratio) sampled on a
  configurable interval;
* discrete platform events (kernel creations, migrations, scale-outs,
  scale-ins, failed elections);
* data-store and Raft synchronization latencies (Figure 11).

:class:`ExperimentResult` wraps a finished collector together with the policy
name and exposes the derived metrics the benchmarks print.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.cdf import CDF
from repro.analysis.timeline import Timeline
from repro.metrics.latency_breakdown import LatencyBreakdown, StepLatencies
from repro.telemetry.sketch import QuantileSketch


class EventKind(enum.Enum):
    """Discrete platform events plotted in Figure 10."""

    KERNEL_CREATED = "kernel_created"
    KERNEL_TERMINATED = "kernel_terminated"
    KERNEL_MIGRATION = "kernel_migration"
    ELECTION_FAILED = "election_failed"
    SCALE_OUT = "scale_out"
    SCALE_IN = "scale_in"
    SESSION_STARTED = "session_started"
    SESSION_TERMINATED = "session_terminated"
    IDLE_RECLAMATION = "idle_reclamation"
    REPLICA_FAILURE = "replica_failure"


@dataclass(slots=True)
class PlatformEvent:
    """One discrete platform event."""

    time: float
    kind: EventKind
    detail: str = ""


@dataclass(slots=True)
class TaskMetrics:
    """Per-task measurements."""

    session_id: str
    kernel_id: str
    submitted_at: float
    gpus: int
    is_gpu_task: bool = True
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    status: str = "pending"
    executor_replica: Optional[str] = None
    required_migration: bool = False
    steps: StepLatencies = field(default_factory=StepLatencies)

    @property
    def interactivity_delay(self) -> Optional[float]:
        """Submission -> start of user-code execution (Figure 9(a))."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def task_completion_time(self) -> Optional[float]:
        """Submission -> completion (Figure 9(b))."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def execution_time(self) -> Optional[float]:
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def to_dict(self) -> Dict[str, object]:
        return {
            "session_id": self.session_id,
            "kernel_id": self.kernel_id,
            "submitted_at": self.submitted_at,
            "gpus": self.gpus,
            "is_gpu_task": self.is_gpu_task,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "status": self.status,
            "executor_replica": self.executor_replica,
            "required_migration": self.required_migration,
            "steps": self.steps.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TaskMetrics":
        return cls(
            session_id=data["session_id"],
            kernel_id=data["kernel_id"],
            submitted_at=data["submitted_at"],
            gpus=data["gpus"],
            is_gpu_task=data["is_gpu_task"],
            started_at=data["started_at"],
            completed_at=data["completed_at"],
            status=data["status"],
            executor_replica=data["executor_replica"],
            required_migration=data["required_migration"],
            steps=StepLatencies.from_dict(data["steps"]))


class MetricsCollector:
    """Accumulates every measurement from one experiment run.

    Two storage modes:

    * **exact** (default) — every :class:`TaskMetrics` record is retained in
      ``tasks`` and percentiles are computed from full CDFs.  This is what
      the golden digests pin.
    * **sketch** (``sketch_mode=True``, see
      ``PlatformConfig.metrics_sketch_mode``) — interactivity and TCT fold
      into fixed-memory :class:`~repro.telemetry.sketch.QuantileSketch`\\ s
      instead of the unbounded task list; ``tasks`` stays empty and
      per-task records are dropped once :meth:`absorb_completed_task` (the
      platform's ``TASK_COMPLETE`` subscriber) has consumed them.  Summary
      percentiles come from the sketches.  Caveats: per-task reports, CDF
      plots and the per-step latency breakdown (``result.breakdown`` is
      ``None``) are unavailable, and tasks still in flight at run end are
      not counted.
    """

    def __init__(self, sample_interval: float = 60.0,
                 sketch_mode: bool = False,
                 sketch_compression: int = 300) -> None:
        self.sample_interval = sample_interval
        self.sketch_mode = bool(sketch_mode)
        self.sketch_compression = int(sketch_compression)
        self.tasks: List[TaskMetrics] = []
        self.events: List[PlatformEvent] = []
        self._events_by_kind: Dict[EventKind, List[PlatformEvent]] = {}
        self.sketch_task_count = 0
        self.sketch_completed_tasks = 0
        self.interactivity_sketch: Optional[QuantileSketch] = None
        self.tct_sketch: Optional[QuantileSketch] = None
        if self.sketch_mode:
            self.interactivity_sketch = QuantileSketch(sketch_compression)
            self.tct_sketch = QuantileSketch(sketch_compression)
        self.provisioned_gpus = Timeline("provisioned_gpus")
        self.committed_gpus = Timeline("committed_gpus")
        self.active_sessions = Timeline("active_sessions")
        self.active_trainings = Timeline("active_trainings")
        self.subscription_ratio = Timeline("subscription_ratio")
        self.provisioned_hosts = Timeline("provisioned_hosts")
        self.datastore_read_latencies: List[float] = []
        self.datastore_write_latencies: List[float] = []
        self.raft_sync_latencies: List[float] = []
        self.gpu_bind_count = 0
        self.immediate_gpu_commit_count = 0
        self.same_executor_count = 0
        self.executor_decisions = 0

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def new_task(self, session_id: str, kernel_id: str, submitted_at: float,
                 gpus: int, is_gpu_task: bool = True) -> TaskMetrics:
        task = TaskMetrics(session_id=session_id, kernel_id=kernel_id,
                           submitted_at=submitted_at, gpus=gpus,
                           is_gpu_task=is_gpu_task)
        if self.sketch_mode:
            # Bounded memory: the record lives only for the task's lifetime
            # (the session process holds it); absorb_completed_task folds it
            # into the sketches when the platform publishes TASK_COMPLETE.
            self.sketch_task_count += 1
        else:
            self.tasks.append(task)
        return task

    def absorb_completed_task(self, time: float, session: object, task: object,
                              metrics: TaskMetrics) -> None:
        """Fold one finished task into the sketches (sketch mode only).

        Signature matches the ``TASK_COMPLETE`` hook payload; the platform
        subscribes this callback (first, like ``record_event``) when the
        collector runs in sketch mode.
        """
        self.sketch_completed_tasks += 1
        interactivity = metrics.interactivity_delay
        if interactivity is not None:
            self.interactivity_sketch.add(interactivity)
        tct = metrics.task_completion_time
        if tct is not None:
            self.tct_sketch.add(tct)

    def record_event(self, time: float, kind: EventKind, detail: str = "") -> None:
        event = PlatformEvent(time=time, kind=kind, detail=detail)
        self.events.append(event)
        self._events_by_kind.setdefault(kind, []).append(event)

    def sample_cluster(self, time: float, provisioned_gpus: int, committed_gpus: int,
                       active_sessions: int, active_trainings: int,
                       subscription_ratio: float, provisioned_hosts: int) -> None:
        """Record one sample of every cluster timeline."""
        self.provisioned_gpus.record(time, provisioned_gpus)
        self.committed_gpus.record(time, committed_gpus)
        self.active_sessions.record(time, active_sessions)
        self.active_trainings.record(time, active_trainings)
        self.subscription_ratio.record(time, subscription_ratio)
        self.provisioned_hosts.record(time, provisioned_hosts)

    def make_cluster_sampler(self):
        """An allocation-light recorder for the periodic cluster sample.

        Long runs record hundreds of thousands of samples, and the platform's
        sampler loop feeds this from the cluster's O(1) incremental
        aggregates — so the recording side must not dominate.  The returned
        ``record(...)`` (same signature as :meth:`sample_cluster`) appends
        directly to each timeline's point list, skipping six method frames
        and six time-order validations per sample; callers must supply
        samples in nondecreasing time order, which the simulation clock
        guarantees.  Recorded values are identical to :meth:`sample_cluster`.
        """
        appends = tuple(getattr(self, name).points.append
                        for name in self._TIMELINE_FIELDS)
        pg_add, cg_add, as_add, at_add, sr_add, ph_add = appends

        def record(time: float, provisioned_gpus: int, committed_gpus: int,
                   active_sessions: int, active_trainings: int,
                   subscription_ratio: float, provisioned_hosts: int) -> None:
            pg_add((time, provisioned_gpus))
            cg_add((time, committed_gpus))
            as_add((time, active_sessions))
            at_add((time, active_trainings))
            sr_add((time, subscription_ratio))
            ph_add((time, provisioned_hosts))

        return record

    def record_executor_decision(self, immediate_commit: bool, same_executor: bool) -> None:
        """Track the §5.3.2 statistics (89.6 % immediate commits, 89.45 % reuse)."""
        self.executor_decisions += 1
        if immediate_commit:
            self.immediate_gpu_commit_count += 1
        if same_executor:
            self.same_executor_count += 1

    # ------------------------------------------------------------------
    # Derived metrics.
    # ------------------------------------------------------------------
    def completed_tasks(self) -> List[TaskMetrics]:
        return [t for t in self.tasks if t.completed_at is not None]

    def interactivity_cdf(self) -> CDF:
        return CDF.from_values(t.interactivity_delay for t in self.tasks
                               if t.interactivity_delay is not None)

    def tct_cdf(self) -> CDF:
        return CDF.from_values(t.task_completion_time for t in self.completed_tasks())

    def events_of_kind(self, kind: EventKind) -> List[PlatformEvent]:
        # Served from the per-kind index (kept by record_event) rather than
        # a linear scan of every event — hot in report assembly on
        # mega_scale-sized runs.
        return list(self._events_by_kind.get(kind, ()))

    def completed_task_count(self) -> int:
        if self.sketch_mode:
            return self.sketch_completed_tasks
        return len(self.completed_tasks())

    def interactivity_percentile(self, q: float) -> Optional[float]:
        """Interactivity percentile from whichever store this mode keeps."""
        if self.sketch_mode:
            return self.interactivity_sketch.quantile(q)
        cdf = self.interactivity_cdf()
        return None if cdf.is_empty else cdf.percentile(q)

    def tct_percentile(self, q: float) -> Optional[float]:
        """TCT percentile from whichever store this mode keeps."""
        if self.sketch_mode:
            return self.tct_sketch.quantile(q)
        cdf = self.tct_cdf()
        return None if cdf.is_empty else cdf.percentile(q)

    def provisioned_gpu_hours(self) -> float:
        return self.provisioned_gpus.integral() / 3600.0

    def committed_gpu_hours(self) -> float:
        return self.committed_gpus.integral() / 3600.0

    def immediate_commit_fraction(self) -> float:
        if self.executor_decisions == 0:
            return 0.0
        return self.immediate_gpu_commit_count / self.executor_decisions

    def same_executor_fraction(self) -> float:
        if self.executor_decisions == 0:
            return 0.0
        return self.same_executor_count / self.executor_decisions

    # ------------------------------------------------------------------
    # JSON round-trip (used by the experiment result store).
    # ------------------------------------------------------------------
    _TIMELINE_FIELDS = ("provisioned_gpus", "committed_gpus", "active_sessions",
                       "active_trainings", "subscription_ratio",
                       "provisioned_hosts")

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "sample_interval": self.sample_interval,
            "tasks": [task.to_dict() for task in self.tasks],
            "events": [[e.time, e.kind.value, e.detail] for e in self.events],
            "timelines": {name: getattr(self, name).to_dict()
                          for name in self._TIMELINE_FIELDS},
            "datastore_read_latencies": list(self.datastore_read_latencies),
            "datastore_write_latencies": list(self.datastore_write_latencies),
            "raft_sync_latencies": list(self.raft_sync_latencies),
            "gpu_bind_count": self.gpu_bind_count,
            "immediate_gpu_commit_count": self.immediate_gpu_commit_count,
            "same_executor_count": self.same_executor_count,
            "executor_decisions": self.executor_decisions,
        }
        # Sketch-mode keys appear ONLY when the mode is on, so exact-mode
        # serializations (what the golden digests pin) stay byte-identical.
        if self.sketch_mode:
            data["sketch_mode"] = True
            data["sketches"] = {
                "compression": self.sketch_compression,
                "task_count": self.sketch_task_count,
                "completed_tasks": self.sketch_completed_tasks,
                "interactivity": self.interactivity_sketch.to_dict(),
                "tct": self.tct_sketch.to_dict(),
            }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricsCollector":
        sketches = data.get("sketches")
        collector = cls(
            sample_interval=data["sample_interval"],
            sketch_mode=bool(data.get("sketch_mode", False)),
            sketch_compression=sketches["compression"] if sketches else 300)
        collector.tasks = [TaskMetrics.from_dict(t) for t in data["tasks"]]
        for time, kind, detail in data["events"]:
            collector.record_event(time, EventKind(kind), detail)
        if sketches:
            collector.sketch_task_count = sketches["task_count"]
            collector.sketch_completed_tasks = sketches["completed_tasks"]
            collector.interactivity_sketch = QuantileSketch.from_dict(
                sketches["interactivity"])
            collector.tct_sketch = QuantileSketch.from_dict(sketches["tct"])
        for name in cls._TIMELINE_FIELDS:
            setattr(collector, name, Timeline.from_dict(data["timelines"][name]))
        collector.datastore_read_latencies = list(data["datastore_read_latencies"])
        collector.datastore_write_latencies = list(data["datastore_write_latencies"])
        collector.raft_sync_latencies = list(data["raft_sync_latencies"])
        collector.gpu_bind_count = data["gpu_bind_count"]
        collector.immediate_gpu_commit_count = data["immediate_gpu_commit_count"]
        collector.same_executor_count = data["same_executor_count"]
        collector.executor_decisions = data["executor_decisions"]
        return collector


@dataclass
class ExperimentResult:
    """The outcome of running one trace under one scheduling policy.

    Serialization: every breakdown sample is the ``steps`` record of one of
    the collector's tasks (the platform adds ``metrics.steps`` when a task
    completes), so :meth:`to_dict` writes the breakdown as ``{"policy",
    "task_steps": [i, ...]}``, indices into ``collector.tasks`` in the
    recorded completion order, and :meth:`from_dict` points each sample
    back at ``collector.tasks[i].steps``.  A decoded result therefore holds
    one :class:`StepLatencies` per task, like the live one.  A sample that
    is not a task record of the collector cannot be written this way, and
    :meth:`to_dict` raises ``ValueError`` on it.
    """

    policy: str
    trace_name: str
    collector: MetricsCollector
    wall_clock_runtime: float = 0.0
    breakdown: Optional[LatencyBreakdown] = None

    # -- convenience accessors ------------------------------------------------
    @property
    def interactivity_cdf(self) -> CDF:
        return self.collector.interactivity_cdf()

    @property
    def tct_cdf(self) -> CDF:
        return self.collector.tct_cdf()

    @property
    def provisioned_gpu_hours(self) -> float:
        return self.collector.provisioned_gpu_hours()

    def gpu_hours_saved_vs(self, other: "ExperimentResult") -> float:
        """GPU-hours saved relative to another policy (Figure 8 green area)."""
        return other.provisioned_gpu_hours - self.provisioned_gpu_hours

    def migration_count(self) -> int:
        return len(self.collector.events_of_kind(EventKind.KERNEL_MIGRATION))

    def scale_out_count(self) -> int:
        return len(self.collector.events_of_kind(EventKind.SCALE_OUT))

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "trace_name": self.trace_name,
            "collector": self.collector.to_dict(),
            "wall_clock_runtime": self.wall_clock_runtime,
            "breakdown": self._breakdown_refs() if self.breakdown else None,
        }

    def _breakdown_refs(self) -> Dict[str, object]:
        """The breakdown as indices of its samples in ``collector.tasks``."""
        index = {id(task.steps): i
                 for i, task in enumerate(self.collector.tasks)}
        refs = []
        for sample in self.breakdown.samples:
            i = index.get(id(sample))
            if i is None:
                raise ValueError(
                    "breakdown sample is not the steps record of any "
                    f"collector task: {sample!r}")
            refs.append(i)
        return {"policy": self.breakdown.policy, "task_steps": refs}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        collector = MetricsCollector.from_dict(data["collector"])
        refs = data.get("breakdown")
        breakdown = None
        if refs:
            tasks = collector.tasks
            breakdown = LatencyBreakdown(
                policy=refs["policy"],
                samples=[tasks[i].steps for i in refs["task_steps"]])
        return cls(
            policy=data["policy"],
            trace_name=data["trace_name"],
            collector=collector,
            wall_clock_runtime=data.get("wall_clock_runtime", 0.0),
            breakdown=breakdown)

    def summary(self) -> Dict[str, object]:
        """The headline row the benchmarks print for this policy."""
        collector = self.collector
        return {
            "policy": self.policy,
            "trace": self.trace_name,
            "tasks_completed": collector.completed_task_count(),
            "interactivity_p50_s": collector.interactivity_percentile(0.5),
            "interactivity_p95_s": collector.interactivity_percentile(0.95),
            "tct_p50_s": collector.tct_percentile(0.5),
            "tct_p95_s": collector.tct_percentile(0.95),
            "provisioned_gpu_hours": round(self.provisioned_gpu_hours, 2),
            "max_provisioned_gpus": self.collector.provisioned_gpus.maximum(),
            "migrations": self.migration_count(),
            "scale_outs": self.scale_out_count(),
            "immediate_gpu_commit_fraction": round(
                self.collector.immediate_commit_fraction(), 4),
            "same_executor_fraction": round(
                self.collector.same_executor_fraction(), 4),
        }
