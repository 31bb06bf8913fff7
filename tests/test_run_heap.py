"""The run heap holds only what the run reports.

Finished processes drop their self-references and the platform keeps no
per-task history that nothing reads, so reference counting frees every
finished process, election and sync report as the run goes.  These tests
run with the cyclic collector off, then, at ``RUN_END``, collect with
``gc.DEBUG_SAVEALL`` to see what the collector would have had to free, and
list what per-task state is still live.  Terminated-kernel graphs are still
cyclic at teardown; they are not checked here (teardown comes after
``RUN_END``).
"""

import gc
from collections import Counter

import pytest

from repro.api import RUN_END, RUN_START, Simulation
from repro.core.election import ElectionOutcome, ReplicaProposal
from repro.simulation.engine import Process
from repro.statesync.synchronizer import SyncReport

#: Per-task types that must never be left to the cyclic collector.
PER_TASK_TYPES = {"Process", "generator", "_Call", "ElectionOutcome",
                  "ReplicaProposal", "SyncReport"}
#: Per-task records that nothing reads after the run has used them.
HISTORY_TYPES = (ElectionOutcome, ReplicaProposal, SyncReport)

#: The QoS target of ``examples/qos_control.py``.
STORM_TARGET = ("interactivity:p99>60:autoscaler_override,extra_hosts=2,"
                "hold_s=900")


def _run_end_census(simulation):
    """Run ``simulation`` with the cyclic collector off.  At ``RUN_END``,
    count by type the unreachable objects the collector would have had to
    free, then the per-task history objects still live and the names of the
    finished processes still live."""
    garbage, histories, finished = Counter(), Counter(), Counter()
    stats_seen = {}

    def census(platform, result, stats):
        stats_seen.update(stats)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage.update(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        gc.collect()
        for obj in gc.get_objects():
            if isinstance(obj, HISTORY_TYPES):
                histories[type(obj).__name__] += 1
            elif type(obj) is Process and not obj.is_alive:
                finished[obj.name.split(":")[0]] += 1

    simulation.on(RUN_END, census)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = simulation.run()
    finally:
        if was_enabled:
            gc.enable()
    assert result.summary()["tasks_completed"] > 0
    assert stats_seen["memory"]["gc_collected"] == 0
    return garbage, histories, finished


def _assert_run_heap_is_lean(build):
    build().run()  # warm-up: imports and process-global caches
    garbage, histories, finished = _run_end_census(build())
    leaked = {name: garbage[name] for name in PER_TASK_TYPES if garbage[name]}
    assert leaked == {}
    # Nothing keeps elections, proposals or sync reports once decided...
    assert histories == {}
    # ...and the only finished processes still live are the sessions the
    # run's completion condition (an AllOf) holds until RUN_END returns.
    assert set(finished) == {"session"}


@pytest.mark.parametrize("policy", ["reservation", "batch", "notebookos",
                                    "lcp"])
def test_smoke_run_heap_is_lean(policy):
    _assert_run_heap_is_lean(
        lambda: Simulation.from_scenario("smoke", policy=policy))


def test_failure_storm_with_qos_run_heap_is_lean():
    _assert_run_heap_is_lean(
        lambda: (Simulation.from_scenario("failure_storm", num_sessions=60,
                                          duration_hours=4.0)
                 .with_telemetry()
                 .with_qos(STORM_TARGET, window_s=300.0)))


def test_run_end_memory_stats_count_this_runs_gc_work():
    # The counters cover the run: cyclic garbage made and collected by a
    # RUN_START subscriber shows up in the RUN_END payload.
    class Node:
        pass

    def make_cycles(platform, trace):
        for _ in range(100):
            node = Node()
            node.self = node
        del node
        gc.collect()

    memory = {}
    (Simulation.from_scenario("smoke")
     .on(RUN_START, make_cycles)
     .on(RUN_END, lambda platform, result, stats:
         memory.update(stats["memory"]))
     .run())
    assert memory["peak_rss_bytes"] > 0
    assert len(memory["gc_collections"]) == len(gc.get_stats())
    assert memory["gc_collections"][-1] >= 1
    assert memory["gc_collected"] >= 100
