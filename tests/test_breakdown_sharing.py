"""One ``StepLatencies`` per task, on every path that materializes a result.

The platform adds each finished task's ``metrics.steps`` to the latency
breakdown, so a live result's breakdown samples *are* its collector's task
records.  ``ExperimentResult.to_dict`` writes the breakdown as indices into
``collector.tasks`` and ``from_dict`` points the samples back at those
records, so every decoded result (store write and hit, serial and forked
sweeps, merged shard payloads) keeps that sharing instead of holding a
second copy of every task's step latencies.
"""

import gc
import json

import pytest

from repro.api import RunSpec, Simulation
from repro.experiments import ResultStore, default_registry, run_specs
from repro.metrics.collector import ExperimentResult
from repro.metrics.latency_breakdown import StepLatencies
from repro.shard import run_sharded


def assert_one_copy_per_task(result):
    """Every breakdown sample is some task's steps record, each at most once."""
    samples = result.breakdown.samples
    assert samples
    records = {id(task.steps): task.steps for task in result.collector.tasks}
    assert all(records.get(id(sample)) is sample for sample in samples)
    assert len({id(sample) for sample in samples}) == len(samples)


def live_step_latencies():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is StepLatencies)


def test_store_fresh_run_and_cache_hit_share_task_records(tmp_path):
    store = ResultStore(tmp_path)
    fresh_sim = Simulation.from_scenario("smoke").with_store(store)
    fresh = fresh_sim.run()
    assert not fresh_sim.cached
    cached_sim = Simulation.from_scenario("smoke").with_store(store)
    cached = cached_sim.run()
    assert cached_sim.cached
    for result in (fresh, cached):
        assert_one_copy_per_task(result)
    assert cached.breakdown.table() == fresh.breakdown.table()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_specs_results_share_task_records(workers):
    specs = [default_registry().get("smoke").instantiate(policy=policy,
                                                         seed=3)
             for policy in ("notebookos", "reservation")]
    outcomes = run_specs(specs, workers=workers)
    assert [outcome.failed for outcome in outcomes] == [False, False]
    for outcome in outcomes:
        assert_one_copy_per_task(outcome.result)


def test_merged_shard_result_shares_task_records():
    sharded = run_sharded(RunSpec.from_scenario("smoke", seed=7), 2)
    assert sharded.mode == "parallel"
    assert_one_copy_per_task(sharded.result)
    plain = Simulation.from_spec(RunSpec.from_scenario("smoke", seed=7)).run()
    assert len(sharded.result.breakdown) == len(plain.breakdown)


def test_decoded_result_holds_one_step_record_per_task():
    data = json.loads(json.dumps(
        Simulation.from_scenario("smoke").run().to_dict()))
    before = live_step_latencies()
    restored = ExperimentResult.from_dict(data)
    assert live_step_latencies() - before == len(restored.collector.tasks)
    assert_one_copy_per_task(restored)
    # Re-encoding the decoded result writes the same task references.
    assert len(data["breakdown"]["task_steps"]) == len(restored.breakdown)
    assert restored.to_dict()["breakdown"] == data["breakdown"]


def test_to_dict_rejects_a_sample_that_is_not_a_task_record():
    result = Simulation.from_scenario("smoke").run()
    foreign = StepLatencies()
    foreign.record("execute_code", 1.0)
    result.breakdown.add(foreign)
    with pytest.raises(ValueError, match="not the steps record"):
        result.to_dict()
    # An equal copy of a task's record is still foreign: sharing is by
    # identity, never by value.
    result.breakdown.samples[-1] = StepLatencies(
        steps=dict(result.collector.tasks[0].steps.steps))
    with pytest.raises(ValueError, match="not the steps record"):
        result.to_dict()


@pytest.mark.parametrize("sessions", [100, 400])
def test_sketch_mode_keeps_no_step_records(sessions):
    before = live_step_latencies()
    simulation = (Simulation.from_scenario("cluster_scale",
                                           num_sessions=sessions,
                                           duration_hours=1.0)
                  .with_sketch_metrics())
    result = simulation.run()
    assert result.collector.completed_task_count() > 0
    assert result.breakdown is None
    assert live_step_latencies() - before == 0
