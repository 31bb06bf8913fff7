"""The ``Simulation`` builder: one façade over every way to run the platform.

Before this façade existed there were three parallel entry points —
``repro.run_experiment`` (ad-hoc trace + kwargs), ``repro.experiments``
(specs, sweeps, the result store), and hand-assembled
``NotebookOSPlatform`` wiring in the examples and benchmarks.  ``Simulation``
unifies them::

    from repro.api import Simulation

    # A registered scenario, optionally tweaked:
    result = Simulation.from_scenario("excerpt", policy="batch", seed=9).run()

    # An explicit trace with explicit configs (what the examples do):
    sim = (Simulation.from_trace(trace)
           .with_policy("notebookos")
           .with_config(cluster_config=ClusterConfig(initial_hosts=3)))
    result = sim.run()
    print(sim.platform.cluster.active_host_count)   # inspect afterwards

    # Instrumented via lifecycle hooks (zero timeline impact):
    result = (Simulation.from_scenario("smoke")
              .on(api.MIGRATION, lambda t, k, src, dst: print(k, src, dst))
              .run())

``run()`` reproduces the legacy entry points *bit for bit*: the trace
generation, config resolution, seed override, and platform wiring happen in
exactly the order ``run_experiment`` / ``experiments.runner`` performed
them, which the golden-digest and API-regression tests pin.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Optional, Union

from repro.api.hooks import HookBus
from repro.api.registry import default_policy_registry
from repro.api.spec import RunSpec
from repro.core.config import ClusterConfig, PlatformConfig
from repro.workload.trace import Trace

__all__ = ["Simulation", "default_cluster_config", "peak_gpu_demand"]


def peak_gpu_demand(trace: Trace) -> int:
    """Peak GPUs reserved by concurrently active sessions (min 8)."""
    events = []
    for session in trace:
        events.append((session.start_time, session.gpus_requested))
        events.append((session.end_time, -session.gpus_requested))
    peak = current = 0
    for _, delta in sorted(events):
        current += delta
        peak = max(peak, current)
    return max(peak, 8)


def default_cluster_config(policy, trace: Trace) -> ClusterConfig:
    """Per-policy default cluster sizing (the ``run_experiment`` defaults).

    Elastic policies (NotebookOS, LCP) start small and rely on auto-scaling;
    Reservation and Batch get a cluster sized to the trace's peak demand,
    mirroring the statically provisioned clusters those baselines represent.
    """
    peak_gpus = peak_gpu_demand(trace)
    gpus_per_host = 8
    if getattr(policy, "uses_autoscaler", False):
        initial = max(2, (peak_gpus // gpus_per_host) // 4 + 1)
    else:
        initial = max(2, peak_gpus // gpus_per_host + 2)
    return ClusterConfig(initial_hosts=initial, max_hosts=max(60, initial * 4))


class Simulation:
    """Fluent builder for one platform run (spec-backed or ad-hoc trace)."""

    def __init__(self, spec: Optional[RunSpec] = None,
                 trace: Optional[Trace] = None) -> None:
        if (spec is None) == (trace is None):
            raise ValueError("construct via Simulation.from_scenario(), "
                             ".from_spec(), or .from_trace()")
        # Own a copy: the fluent setters rebind spec fields (policy, seed,
        # preset) and must not mutate a spec object the caller still holds.
        self._spec = RunSpec.from_dict(spec.to_dict()) if spec is not None \
            else None
        self._trace = trace
        self._policy_obj = None
        self._policy_name: Optional[str] = None if spec is None else spec.policy
        self._policy_kwargs: Dict[str, object] = \
            {} if spec is None else dict(spec.policy_kwargs)
        self._seed: Optional[int] = None if spec is None else spec.seed
        self._platform_config: Optional[PlatformConfig] = None
        self._cluster_config: Optional[ClusterConfig] = None
        self._hooks: Optional[HookBus] = None
        self._profiler = None
        self._telemetry = None
        self._sketch_mode = False
        self._sketch_compression = 300
        self._policy_batching: Optional[bool] = None
        self._qos: Optional[Dict[str, object]] = None
        self._store = None
        #: The wired platform of the most recent ``run()`` / ``build()`` —
        #: ``None`` until then, and still ``None`` after a ``run()`` that was
        #: served from the result store (check :attr:`cached`): a cache hit
        #: deserializes the result without simulating anything.
        self.platform = None
        #: Whether the most recent ``run()`` was served from the store.
        self.cached = False

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(cls, scenario: str, policy: Optional[str] = None,
                      seed: Optional[int] = None,
                      **generator_overrides) -> "Simulation":
        """Start from a registered scenario (``smoke``, ``excerpt``, ...)."""
        return cls(spec=RunSpec.from_scenario(scenario, policy=policy,
                                              seed=seed, **generator_overrides))

    @classmethod
    def from_spec(cls, spec) -> "Simulation":
        """Start from a :class:`RunSpec` / ``ScenarioSpec`` / spec dict."""
        return cls(spec=RunSpec.from_spec(spec))

    @classmethod
    def from_trace(cls, trace: Trace) -> "Simulation":
        """Start from an explicit, already generated workload trace."""
        return cls(trace=trace)

    # ------------------------------------------------------------------
    # Fluent configuration.
    # ------------------------------------------------------------------
    def with_policy(self, policy: Union[str, object],
                    **policy_kwargs) -> "Simulation":
        """Select the scheduling policy, by registry name or as an instance.

        A *name* keeps the run spec-backed (hashable, storable) — including
        any constructor ``policy_kwargs``, which are recorded on the spec
        (``RunSpec.policy_kwargs``) and folded into its content hash, so
        tuned policy variants cache and sweep like any other spec.  Passing
        an *instance* makes the run ad hoc.
        """
        if isinstance(policy, str):
            # Validate now, and canonicalize to the registered primary name
            # so aliases and case variants share one spec hash (store key).
            registered = default_policy_registry().get(policy)
            self._policy_obj = None
            self._policy_name = registered.name
            self._policy_kwargs = dict(policy_kwargs)
            if self._spec is not None:
                self._spec.policy = registered.name
                self._spec.policy_kwargs = dict(policy_kwargs)
        else:
            if policy_kwargs:
                raise TypeError("policy kwargs are only valid with a policy "
                                "name, not an instance")
            self._policy_obj = policy
            self._policy_name = None
            self._policy_kwargs = {}
            if self._spec is not None:
                # Keep the spec's provenance honest: record the instance's
                # declared name (the run is no longer storable either way).
                self._spec.policy = getattr(policy, "name",
                                            type(policy).__name__)
                self._spec.policy_kwargs = {}
        return self

    def with_seed(self, seed: int) -> "Simulation":
        """Set the platform seed (and the spec seed, for spec-backed runs)."""
        self._seed = seed
        if self._spec is not None:
            self._spec.seed = seed
        return self

    def with_config(self, platform_config: Optional[PlatformConfig] = None,
                    cluster_config: Optional[ClusterConfig] = None,
                    preset: Optional[str] = None) -> "Simulation":
        """Override the platform / cluster configuration.

        ``preset`` selects a registered config preset by name (spec-backed
        runs only — presets are resolved against the spec); explicit config
        objects win over the preset and over per-policy defaults.
        """
        if platform_config is not None:
            self._platform_config = platform_config
        if cluster_config is not None:
            self._cluster_config = cluster_config
        if preset is not None:
            if self._spec is None:
                raise ValueError("config presets require a spec-backed run; "
                                 "pass explicit config objects for trace runs")
            self._spec.config_preset = preset
        return self

    def with_hooks(self, hooks: HookBus) -> "Simulation":
        """Attach a pre-populated lifecycle :class:`HookBus`.

        Call this *before* any :meth:`on` — replacing a bus that ``on``
        already subscribed callbacks to would silently drop them, so that
        ordering is rejected.
        """
        if self._hooks is not None:
            raise ValueError("a hook bus is already attached (from an "
                             "earlier .on() or .with_hooks()); call "
                             ".with_hooks() first and .on() after, or "
                             "subscribe directly on the attached bus")
        self._hooks = hooks
        return self

    def on(self, topic: str, callback: Callable[..., None]) -> "Simulation":
        """Subscribe one lifecycle hook (creates the bus on first use)."""
        if self._hooks is None:
            self._hooks = HookBus()
        self._hooks.subscribe(topic, callback)
        return self

    def with_profiler(self, profiler) -> "Simulation":
        """Attach a :class:`repro.profiling.Profiler` to this run.

        The profiler subscribes its counters to the run's hook bus
        (created on first use) and this builder additionally measures the
        ``trace_build`` and ``platform_build`` phases around :meth:`run`'s
        setup work.  Profiled runs always execute (like any
        hook-instrumented run) and stay bit-identical to bare ones.
        """
        if self._hooks is None:
            self._hooks = HookBus()
        profiler.attach(self._hooks)
        self._profiler = profiler
        return self

    def with_telemetry(self, telemetry=None, **kwargs) -> "Simulation":
        """Attach a :class:`repro.telemetry.Telemetry` to this run.

        Pass an existing attachment (to share streams/reports across
        several builders) or keyword arguments (``window_s``, ``quantiles``,
        ``spans``, ...) to construct one here; it is available afterwards as
        :attr:`telemetry`.  Telemetry rides the hook bus like the profiler:
        the run stays bit-identical to a bare one and instrumented runs
        always execute rather than being served from a store.
        """
        from repro.telemetry import Telemetry

        if telemetry is None:
            telemetry = Telemetry(**kwargs)
        elif kwargs:
            raise TypeError("pass either a Telemetry instance or "
                            "constructor kwargs, not both")
        if self._hooks is None:
            self._hooks = HookBus()
        telemetry.attach(self._hooks)
        self._telemetry = telemetry
        return self

    @property
    def telemetry(self):
        """The attached :class:`~repro.telemetry.Telemetry`, if any."""
        return self._telemetry

    def with_sketch_metrics(self, compression: int = 300) -> "Simulation":
        """Run the metrics collector in fixed-memory sketch mode.

        Interactivity/TCT fold into quantile sketches instead of the
        unbounded per-task list (see ``MetricsCollector``), and no per-step
        latency breakdown is kept (``result.breakdown`` is ``None``), so
        memory stays bounded however many tasks run; applied as a
        config override on a copy of the resolved platform config, so
        presets and explicit configs compose.  Sketch-mode results
        serialize differently from exact ones, so the run is not served
        from (or saved to) a result store.
        """
        self._sketch_mode = True
        self._sketch_compression = int(compression)
        return self

    def with_policy_batching(self, enabled: bool = True) -> "Simulation":
        """Toggle the batched/cached policy-decision path (default on).

        Disabling routes every policy decision through the frozen per-task
        reference implementation (see :mod:`repro.core.runstate`).  Results
        are bit-identical either way — the differential tests pin it — so
        this exists for A/B benchmarking and verification, not for
        behavioral control.  Applied as a config override on a copy of the
        resolved platform config, like sketch mode; because the flag is not
        part of the spec hash, an explicit override makes the run ad hoc
        (not store-served).
        """
        self._policy_batching = bool(enabled)
        return self

    def with_qos(self, *targets, window_s: float = 300.0) -> "Simulation":
        """Enable the closed-loop QoS control plane for this run.

        ``targets`` are :class:`~repro.qos.targets.QosTarget` objects, their
        dict forms, or CLI-shorthand strings
        (``"interactivity:p99>120:migrate_hottest"``); alternatively pass a
        single :class:`~repro.qos.targets.QosConfig` (or its dict form).
        ``window_s`` sets the controller's evaluation window.

        The block is recorded on the spec (``RunSpec.qos``) for spec-backed
        runs — it participates in the content hash and sweeps like
        ``policy_kwargs``, so the run stays storable — and applied as a
        config override for ad-hoc trace runs.
        """
        from repro.qos.targets import QosConfig

        if len(targets) == 1 and isinstance(targets[0], QosConfig):
            config = targets[0]
        elif len(targets) == 1 and isinstance(targets[0], dict) \
                and "targets" in targets[0]:
            config = QosConfig.from_dict(targets[0])
        else:
            config = QosConfig.from_specs(targets, window_s=window_s)
        config.validate()
        self._qos = config.to_dict()
        if self._spec is not None:
            self._spec.qos = dict(self._qos)
        return self

    def with_store(self, store) -> "Simulation":
        """Attach a :class:`~repro.experiments.store.ResultStore`.

        Spec-backed, un-instrumented runs are served from the store when
        present and persisted to it when fresh.  Hook-instrumented runs
        always execute (a cache hit would silently skip every callback) but
        still persist their result.  A store-served ``run()`` builds no
        platform — :attr:`platform` stays ``None`` and :attr:`cached` is
        set — so code that inspects the platform afterwards should either
        skip the store or handle the cached case.
        """
        self._store = store
        return self

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def spec(self) -> Optional[RunSpec]:
        """The bound :class:`RunSpec`, or ``None`` for ad-hoc trace runs."""
        return self._spec

    @property
    def storable(self) -> bool:
        """Whether this run is reproducible from its spec alone.

        Policy constructor kwargs do not break storability: they live on
        the spec (``policy_kwargs``) and participate in its content hash.
        """
        return (self._spec is not None and self._policy_obj is None
                and self._platform_config is None
                and self._cluster_config is None
                and not self._sketch_mode
                and self._policy_batching is None)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def _resolve_trace(self) -> Trace:
        if self._trace is not None:
            return self._trace
        from repro.experiments.scenarios import build_trace

        return build_trace(self._spec)

    def build(self, trace: Optional[Trace] = None):
        """Wire (but do not run) the platform; returns it.

        The construction order matches the legacy ``run_experiment`` exactly:
        resolve the policy, resolve configs (preset, then explicit
        overrides), apply the seed to the platform config, size the cluster
        per policy when nothing else chose one.
        """
        from repro.core.platform import NotebookOSPlatform

        if self.platform is not None:
            # The hook bus outlives individual platforms: retire the previous
            # run's collector so it stops recording this run's events.
            self.platform.detach_metrics()
        trace = trace if trace is not None else self._resolve_trace()
        if self._policy_obj is not None:
            policy = self._policy_obj
        else:
            policy = default_policy_registry().create(
                self._policy_name or "notebookos", **self._policy_kwargs)

        platform_config = self._platform_config
        cluster_config = self._cluster_config
        if self._spec is not None and (platform_config is None
                                       or cluster_config is None):
            from repro.experiments.scenarios import resolve_configs

            preset_platform, preset_cluster = resolve_configs(self._spec, trace)
            platform_config = platform_config or preset_platform
            cluster_config = cluster_config or preset_cluster
        platform_config = platform_config or PlatformConfig()
        if self._seed is not None:
            # Seed a shallow copy: the values the platform sees are the same,
            # but a config object the caller still holds (and may share with
            # other runs) is never mutated.
            platform_config = copy.copy(platform_config)
            platform_config.seed = self._seed
        if self._sketch_mode:
            # Same never-mutate-the-caller's-config rule as the seed.
            platform_config = copy.copy(platform_config)
            platform_config.metrics_sketch_mode = True
            platform_config.metrics_sketch_compression = self._sketch_compression
        if self._policy_batching is not None:
            platform_config = copy.copy(platform_config)
            platform_config.policy_batching_enabled = self._policy_batching
        qos_block = self._qos if self._qos is not None else \
            (self._spec.qos if self._spec is not None and self._spec.qos
             else None)
        if qos_block:
            # QoS rides the spec (hash-participating), so like the seed it
            # is applied onto a copy of whatever config the preset or the
            # caller resolved.
            platform_config = copy.copy(platform_config)
            platform_config.qos = dict(qos_block)
        if cluster_config is None:
            cluster_config = default_cluster_config(policy, trace)

        self.platform = NotebookOSPlatform(
            policy, cluster_config=cluster_config,
            platform_config=platform_config, hooks=self._hooks)
        return self.platform

    def run(self, until: Optional[float] = None):
        """Execute the run and return its ExperimentResult.

        Store-served results (and store-persisted fresh results) are
        materialized through the same JSON round-trip the parallel runner
        uses, so a later cache hit is bit-identical to the original run.
        After a cache hit no platform exists to inspect: :attr:`platform`
        is ``None`` and :attr:`cached` is ``True``.
        """
        from repro.metrics.collector import ExperimentResult

        consult_store = (self._store is not None and self.storable
                         and until is None)
        if consult_store and self._hooks is None:
            cached = self._store.load(self._spec)
            if cached is not None:
                self.platform = None
                self.cached = True
                return cached
        self.cached = False

        if self._telemetry is not None:
            # Like the profiler below: a telemetry object shared across
            # builders follows whichever simulation runs (idempotent when
            # it never left this bus).
            self._telemetry.attach(self._hooks)
        profiler = self._profiler
        if profiler is not None:
            # The profiler follows whichever of its simulations runs: a
            # profiler shared across several builders re-attaches to this
            # run's bus (idempotent when it never left).
            profiler.attach(self._hooks)
            with profiler.phase("trace_build"):
                trace = self._resolve_trace()
            with profiler.phase("platform_build"):
                platform = self.build(trace)
        else:
            trace = self._resolve_trace()
            platform = self.build(trace)
        result = platform.run_workload(trace, until=until)
        if consult_store:
            result_dict = result.to_dict()
            self._store.save(self._spec, result_dict)
            return ExperimentResult.from_dict(result_dict)
        return result
