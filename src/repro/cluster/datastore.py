"""The pluggable distributed data store used for large-object checkpointing.

NotebookOS checkpoints large objects (model parameters, datasets) to a remote
store — AWS S3, Redis, or HDFS — and records only pointers in the Raft log
(§3.2.4).  The store here models per-backend request latency and throughput,
plus the node-level cache the paper mentions for limiting repeated reads.

Figure 11 of the paper (read/write latency CDFs) is reproduced directly from
this model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Optional

from repro.simulation.distributions import SeededRandom
from repro.simulation.engine import Environment

_OBJECT_IDS = count(1)


@dataclass(frozen=True)
class DataStoreBackend:
    """Latency/throughput model of one storage backend."""

    name: str
    base_latency_s: float
    latency_sigma: float
    write_bandwidth_bytes_per_s: float
    read_bandwidth_bytes_per_s: float

    def request_latency(self, rng: SeededRandom) -> float:
        import math

        return max(self.base_latency_s * 0.25,
                   rng.lognormvariate(math.log(self.base_latency_s), self.latency_sigma))


# Backend presets: magnitudes chosen to match the paper's Figure 11 (p99
# read ≈ 3.95 s and p99 write ≈ 7.07 s for multi-hundred-MB objects over S3).
S3_BACKEND = DataStoreBackend(name="s3", base_latency_s=0.060, latency_sigma=0.5,
                              write_bandwidth_bytes_per_s=180e6,
                              read_bandwidth_bytes_per_s=300e6)
REDIS_BACKEND = DataStoreBackend(name="redis", base_latency_s=0.002, latency_sigma=0.4,
                                 write_bandwidth_bytes_per_s=900e6,
                                 read_bandwidth_bytes_per_s=1100e6)
HDFS_BACKEND = DataStoreBackend(name="hdfs", base_latency_s=0.020, latency_sigma=0.5,
                                write_bandwidth_bytes_per_s=400e6,
                                read_bandwidth_bytes_per_s=550e6)

_BACKENDS = {"s3": S3_BACKEND, "redis": REDIS_BACKEND, "hdfs": HDFS_BACKEND}


@dataclass
class StoredObject:
    """Metadata for an object persisted to the data store."""

    key: str
    size_bytes: int
    owner: str
    written_at: float
    object_id: int = field(default_factory=lambda: next(_OBJECT_IDS))
    version: int = 1


@dataclass
class ObjectPointer:
    """A Raft-log-sized pointer to a large object in the data store."""

    key: str
    size_bytes: int
    version: int
    backend: str


class DistributedDataStore:
    """A simulated S3/Redis/HDFS-style object store with a node-level cache."""

    def __init__(self, env: Environment, backend: DataStoreBackend | str = "s3",
                 rng: Optional[SeededRandom] = None,
                 node_cache_capacity_bytes: int = 8 * 1024 ** 3) -> None:
        if isinstance(backend, str):
            try:
                backend = _BACKENDS[backend]
            except KeyError:
                raise ValueError(
                    f"unknown data store backend {backend!r}; "
                    f"choose from {sorted(_BACKENDS)}") from None
        self.env = env
        self.backend = backend
        self._rng = rng or SeededRandom(0xDA7A)
        self._objects: Dict[str, StoredObject] = {}
        # node_id -> {key: size} for the simple per-node cache, and the
        # running byte total of each node's entries.
        self._node_caches: Dict[str, Dict[str, int]] = {}
        self._node_cache_bytes: Dict[str, int] = {}
        self._node_cache_capacity = node_cache_capacity_bytes
        self.write_latencies: List[float] = []
        self.read_latencies: List[float] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.bytes_written = 0
        self.bytes_read = 0

    # ------------------------------------------------------------------
    # Write / read as simulation processes.
    # ------------------------------------------------------------------
    def write(self, key: str, size_bytes: int, owner: str, node_id: Optional[str] = None):
        """Simulation process: persist an object; returns an :class:`ObjectPointer`."""
        start = self.env.now
        latency = self.backend.request_latency(self._rng)
        latency += size_bytes / self.backend.write_bandwidth_bytes_per_s
        yield latency
        existing = self._objects.get(key)
        version = existing.version + 1 if existing else 1
        stored = StoredObject(key=key, size_bytes=size_bytes, owner=owner,
                              written_at=self.env.now, version=version)
        self._objects[key] = stored
        self.bytes_written += size_bytes
        self.write_latencies.append(self.env.now - start)
        if node_id is not None:
            self._cache_put(node_id, key, size_bytes)
        return ObjectPointer(key=key, size_bytes=size_bytes, version=version,
                             backend=self.backend.name)

    def read(self, key: str, node_id: Optional[str] = None):
        """Simulation process: fetch an object; returns its :class:`StoredObject`."""
        start = self.env.now
        stored = self._objects.get(key)
        if stored is None:
            raise KeyError(f"object {key!r} not found in the data store")
        if node_id is not None and self._cache_has(node_id, key):
            self.cache_hits += 1
            yield 0.001
            self.read_latencies.append(self.env.now - start)
            return stored
        self.cache_misses += 1
        latency = self.backend.request_latency(self._rng)
        latency += stored.size_bytes / self.backend.read_bandwidth_bytes_per_s
        yield latency
        self.bytes_read += stored.size_bytes
        self.read_latencies.append(self.env.now - start)
        if node_id is not None:
            self._cache_put(node_id, key, stored.size_bytes)
        return stored

    def delete(self, key: str) -> bool:
        """Remove an object's metadata (no latency modelled)."""
        return self._objects.pop(key, None) is not None

    def contains(self, key: str) -> bool:
        return key in self._objects

    def object_count(self) -> int:
        return len(self._objects)

    def total_stored_bytes(self) -> int:
        return sum(obj.size_bytes for obj in self._objects.values())

    # ------------------------------------------------------------------
    # Node-level cache.
    # ------------------------------------------------------------------
    def _cache_has(self, node_id: str, key: str) -> bool:
        cache = self._node_caches.get(node_id, {})
        stored = self._objects.get(key)
        return key in cache and stored is not None

    def _cache_put(self, node_id: str, key: str, size_bytes: int) -> None:
        cache = self._node_caches.setdefault(node_id, {})
        used = (self._node_cache_bytes.get(node_id, 0)
                - cache.get(key, 0) + size_bytes)
        cache[key] = size_bytes
        # Evict oldest entries when over capacity (insertion-ordered dict).
        # A re-put keeps its slot, so ``key`` itself may be the oldest: it
        # is skipped, because the object just written must stay cached.
        while used > self._node_cache_capacity and len(cache) > 1:
            keys = iter(cache)
            victim = next(keys)
            if victim == key:
                victim = next(keys)
            used -= cache.pop(victim)
        self._node_cache_bytes[node_id] = used

    def invalidate_cache(self, node_id: str) -> None:
        """Drop the cache of a node (e.g. a terminated replica container)."""
        self._node_caches.pop(node_id, None)
        self._node_cache_bytes.pop(node_id, None)
