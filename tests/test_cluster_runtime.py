"""Unit tests for containers, prewarmer, data store, and VM provisioner."""

import pytest

from repro.cluster import (
    ContainerLatencyModel,
    ContainerPrewarmer,
    ContainerRuntime,
    ContainerState,
    DistributedDataStore,
    HDFS_BACKEND,
    PrewarmPolicy,
    REDIS_BACKEND,
    ResourceRequest,
    S3_BACKEND,
    VMProvisioner,
)
from repro.simulation import Environment, SeededRandom


# ----------------------------------------------------------------------
# Containers and runtime.
# ----------------------------------------------------------------------

def test_cold_start_slower_than_warm_start():
    env = Environment()
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(1))
    resources = ResourceRequest()

    def run():
        cold_start_begin = env.now
        cold = yield env.process(runtime.provision(resources, prewarmed=False))
        cold_time = env.now - cold_start_begin
        warm_start_begin = env.now
        warm = yield env.process(runtime.provision(resources, prewarmed=True))
        warm_time = env.now - warm_start_begin
        return cold, warm, cold_time, warm_time

    process = env.process(run())
    cold, warm, cold_time, warm_time = env.run(until=process)
    assert cold.state == ContainerState.WARM
    assert warm.state == ContainerState.WARM
    assert cold_time > warm_time
    assert runtime.cold_starts == 1
    assert runtime.warm_starts == 1


def test_container_assign_release_and_terminate():
    env = Environment()
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(2))

    def run():
        container = yield env.process(runtime.provision(ResourceRequest()))
        container.assign("kernel-1", "replica-1")
        assert container.is_running
        container.release_to_pool()
        assert container.is_warm
        container.assign("kernel-2", "replica-2")
        yield env.process(runtime.terminate(container))
        return container

    process = env.process(run())
    container = env.run(until=process)
    assert container.state == ContainerState.TERMINATED
    assert runtime.terminations == 1
    assert container.lifetime(env.now) > 0


def test_container_assign_in_bad_state_raises():
    env = Environment()
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(3))

    def run():
        container = yield env.process(runtime.provision(ResourceRequest()))
        container.terminate(env.now)
        with pytest.raises(RuntimeError):
            container.assign("k", "r")
        with pytest.raises(RuntimeError):
            container.release_to_pool()
        return True

    process = env.process(run())
    assert env.run(until=process) is True


def test_latency_model_bounds():
    rng = SeededRandom(4)
    model = ContainerLatencyModel()
    colds = [model.cold_start(rng) for _ in range(200)]
    warms = [model.warm_start(rng) for _ in range(200)]
    assert min(colds) >= 5.0
    assert min(warms) >= 0.1
    assert sum(colds) / len(colds) > sum(warms) / len(warms)


# ----------------------------------------------------------------------
# Prewarmer.
# ----------------------------------------------------------------------

def test_prewarmer_initial_pool_and_take():
    env = Environment()
    prewarmer = ContainerPrewarmer(env, PrewarmPolicy(initial_per_host=2, min_per_host=1))
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(5))
    prewarmer.register_host("host-1", runtime)
    env.run(until=120.0)
    assert prewarmer.available("host-1") == 2
    container = prewarmer.take("host-1")
    assert container is not None
    assert prewarmer.available("host-1") == 1
    assert prewarmer.hits == 1


def test_prewarmer_miss_on_empty_pool():
    env = Environment()
    prewarmer = ContainerPrewarmer(env, PrewarmPolicy(initial_per_host=0))
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(6))
    prewarmer.register_host("host-1", runtime)
    env.run(until=10.0)
    assert prewarmer.take("host-1") is None
    assert prewarmer.misses == 1


def test_prewarmer_maintenance_replenishes_pool():
    env = Environment()
    policy = PrewarmPolicy(initial_per_host=1, min_per_host=1, replenish_interval=10.0)
    prewarmer = ContainerPrewarmer(env, policy)
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(7))
    prewarmer.register_host("host-1", runtime)
    prewarmer.start_maintenance()
    env.run(until=120.0)
    assert prewarmer.available("host-1") >= 1
    prewarmer.take("host-1")
    env.run(until=300.0)
    assert prewarmer.available("host-1") >= 1


def test_prewarmer_put_back_respects_max():
    env = Environment()
    policy = PrewarmPolicy(initial_per_host=0, min_per_host=0, max_per_host=1)
    prewarmer = ContainerPrewarmer(env, policy)
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(8))
    prewarmer.register_host("host-1", runtime)

    def run():
        first = yield env.process(runtime.provision(ResourceRequest()))
        second = yield env.process(runtime.provision(ResourceRequest()))
        prewarmer.put_back("host-1", first)
        prewarmer.put_back("host-1", second)
        return True

    process = env.process(run())
    env.run(until=process)
    env.run(until=env.now + 10.0)
    assert prewarmer.available("host-1") == 1


def test_prewarmer_unregister_host_drops_pool():
    env = Environment()
    prewarmer = ContainerPrewarmer(env, PrewarmPolicy(initial_per_host=1))
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(9))
    prewarmer.register_host("host-1", runtime)
    prewarmer.unregister_host("host-1")
    env.run(until=120.0)
    assert prewarmer.available("host-1") == 0
    assert prewarmer.total_available() == 0


# ----------------------------------------------------------------------
# Distributed data store.
# ----------------------------------------------------------------------

def test_datastore_write_then_read_roundtrip():
    env = Environment()
    store = DistributedDataStore(env, backend="s3", rng=SeededRandom(10))

    def run():
        pointer = yield env.process(store.write("model-weights", 200 * 1024 ** 2, "kernel-1"))
        stored = yield env.process(store.read("model-weights"))
        return pointer, stored

    process = env.process(run())
    pointer, stored = env.run(until=process)
    assert pointer.key == "model-weights"
    assert pointer.backend == "s3"
    assert stored.size_bytes == 200 * 1024 ** 2
    assert store.object_count() == 1
    assert len(store.write_latencies) == 1
    assert len(store.read_latencies) == 1


def test_datastore_read_missing_key_raises():
    env = Environment()
    store = DistributedDataStore(env, backend="redis")

    def run():
        yield env.process(store.read("nope"))

    process = env.process(run())
    with pytest.raises(KeyError):
        env.run(until=process)


def test_datastore_versioning_on_rewrite():
    env = Environment()
    store = DistributedDataStore(env, backend="redis", rng=SeededRandom(11))

    def run():
        first = yield env.process(store.write("obj", 1024, "k"))
        second = yield env.process(store.write("obj", 2048, "k"))
        return first, second

    process = env.process(run())
    first, second = env.run(until=process)
    assert first.version == 1
    assert second.version == 2


def test_datastore_node_cache_accelerates_reads():
    env = Environment()
    store = DistributedDataStore(env, backend="s3", rng=SeededRandom(12))
    size = 500 * 1024 ** 2

    def run():
        yield env.process(store.write("data", size, "k", node_id="replica-1"))
        start = env.now
        yield env.process(store.read("data", node_id="replica-1"))
        cached_latency = env.now - start
        start = env.now
        yield env.process(store.read("data", node_id="replica-2"))
        uncached_latency = env.now - start
        return cached_latency, uncached_latency

    process = env.process(run())
    cached, uncached = env.run(until=process)
    assert cached < uncached
    assert store.cache_hits == 1
    assert store.cache_misses == 1


def test_datastore_node_cache_keeps_a_re_put_object():
    # Re-putting the oldest key larger pushes the cache over capacity: the
    # eviction must drop the *other* (stale) entry, never the one just put.
    env = Environment()
    store = DistributedDataStore(env, backend="redis", rng=SeededRandom(14),
                                 node_cache_capacity_bytes=100)

    def run():
        yield env.process(store.write("a", 10, "k", node_id="node"))
        yield env.process(store.write("b", 85, "k", node_id="node"))
        yield env.process(store.write("a", 20, "k", node_id="node"))
        yield env.process(store.read("a", node_id="node"))
        yield env.process(store.read("b", node_id="node"))

    env.run(until=env.process(run()))
    assert store.cache_hits == 1    # "a" stayed cached
    assert store.cache_misses == 1  # "b" was evicted to make room


def test_datastore_node_cache_re_put_keeps_its_eviction_slot():
    # Eviction is oldest-inserted first, and a re-put that fits does not
    # move its key: the LCP policy's run digests depend on this order.
    env = Environment()
    store = DistributedDataStore(env, backend="redis", rng=SeededRandom(15),
                                 node_cache_capacity_bytes=100)

    def run():
        yield env.process(store.write("a", 40, "k", node_id="node"))
        yield env.process(store.write("b", 40, "k", node_id="node"))
        yield env.process(store.write("a", 40, "k", node_id="node"))
        yield env.process(store.write("c", 40, "k", node_id="node"))
        yield env.process(store.read("b", node_id="node"))
        assert (store.cache_hits, store.cache_misses) == (1, 0)  # "b" stayed
        yield env.process(store.read("a", node_id="node"))
        assert (store.cache_hits, store.cache_misses) == (1, 1)  # "a" went
        return True

    assert env.run(until=env.process(run())) is True


def test_datastore_backend_selection_and_validation():
    env = Environment()
    assert DistributedDataStore(env, backend="hdfs").backend is HDFS_BACKEND
    assert DistributedDataStore(env, backend=REDIS_BACKEND).backend is REDIS_BACKEND
    assert DistributedDataStore(env, backend=S3_BACKEND).backend is S3_BACKEND
    with pytest.raises(ValueError):
        DistributedDataStore(env, backend="tape")


def test_datastore_redis_faster_than_s3_for_small_objects():
    env = Environment()
    s3 = DistributedDataStore(env, backend="s3", rng=SeededRandom(13))
    redis = DistributedDataStore(env, backend="redis", rng=SeededRandom(13))

    def run(store, key):
        yield env.process(store.write(key, 1024, "k"))

    process_s3 = env.process(run(s3, "a"))
    process_redis = env.process(run(redis, "b"))
    env.run(until=process_s3)
    env.run(until=process_redis)
    assert sum(redis.write_latencies) < sum(s3.write_latencies)


def test_datastore_delete_and_invalidate():
    env = Environment()
    store = DistributedDataStore(env, backend="redis", rng=SeededRandom(14))

    def run():
        yield env.process(store.write("x", 10, "k", node_id="n1"))
        return True

    env.run(until=env.process(run()))
    assert store.contains("x")
    store.invalidate_cache("n1")
    assert store.delete("x")
    assert not store.delete("x")
    assert store.object_count() == 0


# ----------------------------------------------------------------------
# VM provisioner.
# ----------------------------------------------------------------------

def test_provision_immediately_creates_hosts_without_delay():
    env = Environment()
    provisioner = VMProvisioner(env, rng=SeededRandom(15))
    hosts = provisioner.provision_immediately(3)
    assert len(hosts) == 3
    assert env.now == 0.0
    assert provisioner.hosts_provisioned == 3
    assert len({host.host_id for host in hosts}) == 3


def test_provision_has_boot_delay_and_callback():
    env = Environment()
    provisioner = VMProvisioner(env, boot_time_mean=60.0, rng=SeededRandom(16))
    ready = []
    provisioner.on_host_ready(lambda host, request: ready.append((host, request)))

    def run():
        host = yield env.process(provisioner.provision(reason="burst"))
        return host

    process = env.process(run())
    host = env.run(until=process)
    assert env.now >= 20.0
    assert ready and ready[0][0] is host
    assert ready[0][1].reason == "burst"
    assert provisioner.mean_provisioning_time() == pytest.approx(env.now)


def test_provisioner_release_decommissions_host():
    env = Environment()
    provisioner = VMProvisioner(env, rng=SeededRandom(17))
    host = provisioner.provision_immediately(1)[0]
    provisioner.release(host)
    assert not host.is_active
    assert provisioner.hosts_released == 1


def test_mean_provisioning_time_none_without_requests():
    env = Environment()
    provisioner = VMProvisioner(env)
    assert provisioner.mean_provisioning_time() is None
