"""The Raft-backed kernel state synchronizer.

After each cell execution, the executor replica:

1. analyses the cell's AST to find the namespace variables that changed
   (:mod:`repro.statesync.ast_analysis`),
2. replicates the AST plus all *small* changed objects through the kernel's
   Raft log, and
3. checkpoints the *large* changed objects to the distributed data store,
   recording only pointers in the log (§3.2.4).

Both steps happen off the user-request critical path; the high inter-arrival
times of IDLT workloads hide the latency (§5.4 / Fig. 11).

The synchronizer supports two fidelity modes:

* **raft mode** — small-state replication is an actual proposal on a live
  :class:`~repro.raft.cluster.RaftCluster` (used by integration tests and the
  Figure 11 micro-benchmark);
* **modeled mode** — the Raft round-trip latency is drawn from a calibrated
  log-normal distribution (used by cluster-scale experiments where simulating
  per-kernel heartbeats for days of virtual time would be wasteful).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.raft.cluster import RaftCluster
from repro.simulation.distributions import SeededRandom
from repro.simulation.engine import Environment
from repro.statesync.ast_analysis import CodeAnalysis, analyze_code
from repro.statesync.checkpoint import CheckpointManager
from repro.statesync.objects import NamespaceObject, ObjectClass


@dataclass
class SyncLatencyModel:
    """Log-normal model of a Raft small-state commit round trip.

    Default parameters are calibrated so the p90/p95/p99 latencies match the
    magnitudes reported in Figure 11 of the paper (54.79 ms / 66.69 ms /
    268.25 ms).
    """

    median_s: float = 0.015
    sigma: float = 1.05
    minimum_s: float = 0.002

    def sample(self, rng: SeededRandom) -> float:
        return max(self.minimum_s,
                   rng.lognormvariate(math.log(self.median_s), self.sigma))


@dataclass
class SyncReport:
    """Outcome of synchronizing one cell execution's state."""

    analysis: CodeAnalysis
    small_objects: List[NamespaceObject] = field(default_factory=list)
    large_objects: List[NamespaceObject] = field(default_factory=list)
    raft_sync_latency: float = 0.0
    checkpoint_latency: float = 0.0
    bytes_via_raft: int = 0
    bytes_via_datastore: int = 0

    @property
    def total_latency(self) -> float:
        return self.raft_sync_latency + self.checkpoint_latency

    @property
    def replicated_names(self) -> List[str]:
        return [obj.name for obj in self.small_objects + self.large_objects]


class StateSynchronizer:
    """Replicates one kernel's post-execution state to its standby replicas."""

    def __init__(self, env: Environment, kernel_id: str,
                 checkpoint_manager: CheckpointManager,
                 raft_cluster: Optional[RaftCluster] = None,
                 latency_model: Optional[SyncLatencyModel] = None,
                 rng: Optional[SeededRandom] = None) -> None:
        self.env = env
        self.kernel_id = kernel_id
        self.checkpoint_manager = checkpoint_manager
        self.raft_cluster = raft_cluster
        self.latency_model = latency_model or SyncLatencyModel()
        self._rng = rng or SeededRandom(zlib.crc32(kernel_id.encode()))
        self.sync_latencies: List[float] = []
        # code -> full sync plan: (namespace list object, small, large,
        # sorted small names, sorted large names, small bytes, large bytes).
        # An entry is valid only while the caller passes the *same*
        # namespace list object (identity check): the kernel-level namespace
        # memo in repro.core.runstate returns a stable list, so repeated
        # executions of the same cell skip the filter/partition scans AND
        # the per-call name sorts + byte sums — the Raft command tuple and
        # the report byte counts come straight from the plan.  The cache key
        # is the same source text the content-keyed AST memo
        # (repro.statesync.ast_analysis.analyze_code) is keyed on, so a hit
        # here pairs with a hit there and the whole decision batch for a
        # checkpoint round is O(1) per call.  Without the namespace memo
        # each call passes a fresh list and this cache just recomputes —
        # same result either way (the partition is deterministic).
        self._partition_cache: dict = {}

    def synchronize(self, code: str, namespace_objects: Sequence[NamespaceObject],
                    executor_replica: str, node_id: Optional[str] = None):
        """Simulation process: replicate the state touched by ``code``.

        ``namespace_objects`` describes the post-execution values of the
        kernel namespace; only objects whose names the AST analysis marks as
        assigned/mutated are replicated.
        """
        analysis = analyze_code(code)
        cached = self._partition_cache.get(code)
        if cached is not None and cached[0] is namespace_objects:
            (_, small, large, small_names, large_names,
             small_bytes, large_bytes) = cached
        else:
            touched_names = analysis.names_to_replicate
            touched = [obj for obj in namespace_objects
                       if obj.name in touched_names]
            small = [obj for obj in touched
                     if obj.object_class == ObjectClass.SMALL]
            large = [obj for obj in touched
                     if obj.object_class == ObjectClass.LARGE]
            small_names = tuple(sorted(obj.name for obj in small))
            large_names = tuple(sorted(obj.name for obj in large))
            small_bytes = sum(obj.size_bytes for obj in small)
            large_bytes = sum(obj.size_bytes for obj in large)
            self._partition_cache[code] = (
                namespace_objects, small, large,
                small_names, large_names, small_bytes, large_bytes)
        report = SyncReport(analysis=analysis, small_objects=small, large_objects=large)

        # Step 1: AST + small state through the Raft log.
        if analysis.touches_state:
            start = self.env.now
            command = ("sync_state", executor_replica, small_names, large_names)
            if self.raft_cluster is not None:
                yield self.raft_cluster.propose(command, via=None)
            else:
                yield self.latency_model.sample(self._rng)
            report.raft_sync_latency = self.env.now - start
            report.bytes_via_raft = small_bytes
            self.sync_latencies.append(report.raft_sync_latency)

        # Step 2: large objects to the distributed data store (pointers only
        # in the log, handled by the checkpoint manager).
        if large:
            start = self.env.now
            yield from self.checkpoint_manager.checkpoint_all(
                large, node_id=node_id)
            report.checkpoint_latency = self.env.now - start
            report.bytes_via_datastore = large_bytes

        return report
