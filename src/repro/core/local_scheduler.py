"""The per-server Local Scheduler.

A Local Scheduler runs on every GPU server (Figure 3).  It provisions and
manages the containers hosting kernel replicas, forwards messages from the
Global Scheduler to its local replicas, binds GPUs for executing replicas,
and cleans up on termination.

Batched replica chains
----------------------
A kernel start (or shutdown) touches R replicas whose request chains begin
at the *same* timestamp with the *same* constant Local-Scheduler processing
delay.  :func:`start_kernel_replicas` and :func:`terminate_kernel_replicas`
drive all R chains in **one pass**: one shared processing-delay sleep and
one wake-up per distinct completion time, instead of R generator processes,
R bootstrap entries, and an ``AllOf`` join.  The synchronous work runs in
exactly the order the per-replica processes produced (their same-timestamp
events popped back to back, in scheduling order), and completion-side work
runs at each replica's own completion timestamp in ``(time, submission)``
order — so the fused chains are event-for-event order-identical and the
golden digests pin it.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.container import (
    Container,
    ContainerLatencyModel,
    ContainerRuntime,
)
from repro.cluster.host import Host
from repro.cluster.prewarmer import ContainerPrewarmer
from repro.cluster.resources import ResourceRequest
from repro.core.distributed_kernel import DistributedKernel, KernelReplica, ReplicaState
from repro.simulation.distributions import SeededRandom
from repro.simulation.engine import Environment



class LocalScheduler:
    """Manages kernel replica containers on one GPU server."""

    def __init__(self, env: Environment, host: Host,
                 prewarmer: Optional[ContainerPrewarmer] = None,
                 container_latency: Optional[ContainerLatencyModel] = None,
                 rng: Optional[SeededRandom] = None,
                 processing_delay: float = 0.002) -> None:
        self.env = env
        self.host = host
        self.prewarmer = prewarmer
        self.processing_delay = processing_delay
        self._rng = rng or SeededRandom(zlib.crc32(host.host_id.encode()))
        self.runtime = ContainerRuntime(env, host.host_id,
                                        latency_model=container_latency,
                                        rng=self._rng.substream("containers"))
        self.replicas: Dict[str, KernelReplica] = {}
        if prewarmer is not None:
            prewarmer.register_host(host.host_id, self.runtime)

    @property
    def host_id(self) -> str:
        return self.host.host_id

    @property
    def replica_count(self) -> int:
        return len(self.replicas)

    def replicas_for_kernel(self, kernel_id: str) -> List[KernelReplica]:
        return [r for r in self.replicas.values() if r.kernel_id == kernel_id]

    # ------------------------------------------------------------------
    # Replica lifecycle.
    # ------------------------------------------------------------------
    def begin_replica_start(self, kernel: DistributedKernel
                            ) -> Tuple[Container, float]:
        """Synchronous prefix of a (cold) replica start, post processing delay.

        Subscribes the host up front so that concurrent scale-in decisions
        cannot decommission it while the container is still provisioning,
        and begins the container provision.  Returns ``(container, wait)``;
        after ``wait`` seconds the caller finishes with
        ``runtime.finish_provision`` + :meth:`finish_replica_start`.
        """
        self.host.subscribe(kernel.kernel_id, kernel.resource_request.gpus)
        return self.runtime.begin_provision(kernel.resource_request,
                                            prewarmed=False)

    def finish_replica_start(self, kernel: DistributedKernel,
                             replica_index: int, container: Container,
                             was_prewarmed: bool = False) -> KernelReplica:
        """Synchronous suffix of a replica start: register the replica.

        Runs at the replica's provision-complete timestamp; the replica-id
        serial is minted here, so completion order defines id order exactly
        as the per-replica process form did.
        """
        replica_id = (f"{kernel.kernel_id}-replica-{replica_index}-"
                      f"{self.env.next_serial('replica')}")
        container.assign(kernel.kernel_id, replica_id)
        replica = KernelReplica(replica_id=replica_id, kernel_id=kernel.kernel_id,
                                replica_index=replica_index, host=self.host,
                                container=container, created_at=self.env.now,
                                was_prewarmed=was_prewarmed)
        replica.state = ReplicaState.IDLE
        self.replicas[replica_id] = replica
        self.host.register_container(container.container_id, container)
        return replica

    def start_kernel_replica(self, kernel: DistributedKernel, replica_index: int,
                             prefer_prewarmed: bool = False):
        """Simulation process: provision a container and start a kernel replica.

        This is the handler for the Global Scheduler's ``StartKernelReplica``
        RPC (Figure 4, steps 3–5): provision (or reuse a pre-warmed)
        container, start the replica inside it, register it with this Local
        Scheduler, and subscribe the kernel's GPU request on the host.
        Multi-replica kernel starts go through the fused
        :func:`start_kernel_replicas` instead.
        """
        yield self.processing_delay
        container = None
        was_prewarmed = False
        if prefer_prewarmed and self.prewarmer is not None:
            # Subscribe before touching the pre-warm pool, mirroring the
            # cold path's subscribe-then-provision order.
            self.host.subscribe(kernel.kernel_id, kernel.resource_request.gpus)
            container = self.prewarmer.take(self.host_id)
            if container is not None:
                was_prewarmed = True
                # The pre-warmed container only needs a warm (re)start.
                yield self.runtime.latency_model.warm_start(self._rng)
            else:
                container = yield from self.runtime.provision(
                    kernel.resource_request, prewarmed=False)
        else:
            begun, wait = self.begin_replica_start(kernel)
            yield wait
            container = self.runtime.finish_provision(begun)
        return self.finish_replica_start(kernel, replica_index, container,
                                         was_prewarmed=was_prewarmed)

    def begin_replica_teardown(self, replica: KernelReplica) -> None:
        """Synchronous prefix of a replica teardown, post processing delay."""
        replica.terminate()
        self.replicas.pop(replica.replica_id, None)
        self.host.unregister_container(replica.container.container_id)
        if not self.replicas_for_kernel(replica.kernel_id):
            self.host.unsubscribe(replica.kernel_id)
        if replica.kernel_id in self.host.gpus.owners():
            self.host.release_gpus(replica.kernel_id, self.env.now)

    def terminate_replica(self, replica: KernelReplica):
        """Simulation process: tear down a replica and its container."""
        yield self.processing_delay
        self.begin_replica_teardown(replica)
        yield from self.runtime.terminate(replica.container)
        return replica

    # ------------------------------------------------------------------
    # GPU binding on behalf of an executing replica (§3.3).
    # ------------------------------------------------------------------
    def bind_gpus(self, replica: KernelReplica, gpus: int) -> List[int]:
        """Exclusively bind ``gpus`` devices to the replica's kernel."""
        if gpus == 0:
            return []
        return self.host.bind_gpus(replica.kernel_id, gpus, self.env.now)

    def release_gpus(self, replica: KernelReplica) -> int:
        if replica.kernel_id not in self.host.gpus.owners():
            return 0
        return self.host.release_gpus(replica.kernel_id, self.env.now)

    def decommission(self):
        """Simulation process: terminate every replica (host scale-in)."""
        for replica in list(self.replicas.values()):
            yield from self.terminate_replica(replica)
        if self.prewarmer is not None:
            self.prewarmer.unregister_host(self.host_id)
        return True


# ----------------------------------------------------------------------
# Fused multi-replica chains (see the module docstring).
# ----------------------------------------------------------------------
def uniform_processing_delay(schedulers: Iterable[LocalScheduler]
                             ) -> Optional[float]:
    """The schedulers' shared processing delay, or ``None`` if they differ.

    The fused chains replace R same-valued constant sleeps with one; a
    mixed-delay set (possible only with hand-wired schedulers — the
    platform configures every Local Scheduler identically) falls back to
    the per-replica process form.
    """
    delay: Optional[float] = None
    for scheduler in schedulers:
        if delay is None:
            delay = scheduler.processing_delay
        elif scheduler.processing_delay != delay:
            return None
    return delay


def start_kernel_replicas(env: Environment, kernel: DistributedKernel,
                          placements: Sequence[Tuple[int, LocalScheduler]]):
    """Simulation process: start one replica per ``(index, scheduler)`` pair.

    Drives every (cold-start) replica chain of one kernel in a single
    generator: one shared processing-delay sleep, one synchronous pass of
    host subscriptions + provision begins (in placement order — exactly the
    order the per-replica processes interleaved their same-timestamp
    prefixes), then one ``env.at`` wake-up per distinct provision-complete
    time, finishing each replica at its own completion timestamp in
    ``(time, submission-order)`` order.  Returns the replicas in placement
    order, like the ``AllOf`` join it replaces.

    Callers must ensure the schedulers share one processing delay (see
    :func:`uniform_processing_delay`).
    """
    if not placements:
        return []
    yield placements[0][1].processing_delay
    pending = []
    for order, (index, scheduler) in enumerate(placements):
        container, wait = scheduler.begin_replica_start(kernel)
        # env.now + wait is the exact float the standalone provision's
        # ``yield wait`` would have woken at.
        pending.append((env.now + wait, order, index, scheduler, container))
    # Mint every completion wake-up NOW, in submission order: the
    # per-replica processes parked their provision sleeps back to back at
    # this exact instant, so the wake-ups must claim the same queue-serial
    # positions — a wake minted lazily at the previous completion would
    # order after any unrelated entry scheduled in between, even at an
    # identical timestamp.
    wakes = [env.at(ready) for ready, _, _, _, _ in pending]
    started: List[Tuple[int, KernelReplica]] = []
    for ready, order, index, scheduler, container in sorted(
            pending, key=lambda entry: entry[:2]):
        yield wakes[order]
        scheduler.runtime.finish_provision(container)
        started.append((order, scheduler.finish_replica_start(
            kernel, index, container)))
    started.sort()
    return [replica for _, replica in started]


def terminate_kernel_replicas(env: Environment,
                              pairs: Sequence[Tuple[LocalScheduler,
                                                    KernelReplica]]):
    """Simulation process: tear down every ``(scheduler, replica)`` pair.

    The per-replica teardown chains are two constant sleeps (processing
    delay, container termination time) around synchronous bookkeeping, so
    the fused form is two sleeps total with the bookkeeping passes run in
    pair order — the order the per-replica processes' same-timestamp events
    popped.  Callers must ensure the schedulers share one processing delay
    and one termination time.
    """
    if not pairs:
        return []
    yield pairs[0][0].processing_delay
    for scheduler, replica in pairs:
        scheduler.begin_replica_teardown(replica)
    yield pairs[0][0].runtime.latency_model.termination_time
    for scheduler, replica in pairs:
        scheduler.runtime.finish_terminate(replica.container)
    return [replica for _, replica in pairs]
