"""Property-style determinism tests for the simulation engine.

These are the regression net for the fast-path engine: randomized
process/timeout/interrupt structures are generated from a seed and executed
twice, and the two runs must produce bit-identical execution traces.  On top
of the raw engine, a full platform experiment must serialize identically
across (a) two independent runs and (b) a JSON round-trip of the resulting
:class:`~repro.metrics.collector.MetricsCollector`.
"""

import json
import os
import random
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import default_registry
from repro.experiments.runner import _execute_spec
from repro.metrics.collector import ExperimentResult, MetricsCollector
from repro.simulation import AllOf, AnyOf, Environment, Interrupt


# ----------------------------------------------------------------------
# Randomized engine structures.
# ----------------------------------------------------------------------
def run_random_structure(seed: int) -> list:
    """Build and run a random process structure; return its execution trace.

    The structure mixes every engine primitive the simulator relies on:
    plain number sleeps, ``Timeout`` events, child processes joined with
    ``AllOf``/``AnyOf``, bare events signalled across processes, and
    interrupts — all chosen by a seeded PRNG so the same seed always builds
    the same structure.
    """
    rng = random.Random(seed)
    env = Environment()
    trace: list = []
    signals = [env.event() for _ in range(rng.randint(1, 4))]

    def worker(wid: int, depth: int):
        for step in range(rng.randint(1, 5)):
            choice = rng.random()
            if choice < 0.35:
                delay = rng.choice([0.0, 0.5, 1.0, 1.5, rng.random()])
                if rng.random() < 0.5:
                    yield delay                      # number sleep
                else:
                    yield env.timeout(delay)         # classic timeout
                trace.append(("slept", wid, step, env.now))
            elif choice < 0.55 and depth < 2:
                children = [env.process(worker(wid * 10 + c, depth + 1))
                            for c in range(rng.randint(1, 3))]
                joiner = AllOf if rng.random() < 0.7 else AnyOf
                yield joiner(env, children)
                trace.append(("joined", wid, step, env.now))
            elif choice < 0.75 and signals:
                signal = rng.choice(signals)
                if not signal.triggered:
                    signal.succeed((wid, step))
                    trace.append(("signalled", wid, step, env.now))
                yield rng.random() * 0.2
            else:
                try:
                    yield rng.choice([5.0, 10.0, 20.0])
                    trace.append(("long-nap", wid, step, env.now))
                except Interrupt as interrupt:
                    trace.append(("interrupted", wid, step,
                                  interrupt.cause, env.now))

    workers = [env.process(worker(i, 0)) for i in range(rng.randint(2, 6))]

    def interrupter():
        for round_no in range(rng.randint(1, 4)):
            yield rng.random() * 3.0
            victim = rng.choice(workers)
            if victim.is_alive:
                victim.interrupt(f"round-{round_no}")
                trace.append(("interrupt-sent", round_no, env.now))

    def late_signaller():
        yield rng.random() * 2.0
        for signal in signals:
            if not signal.triggered:
                signal.succeed("late")
                trace.append(("late-signal", env.now))

    env.process(interrupter())
    env.process(late_signaller())
    env.run(until=60.0)
    trace.append(("final", env.now))
    return trace


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_structures_replay_identically(seed):
    assert run_random_structure(seed) == run_random_structure(seed)


def test_different_seeds_produce_different_traces():
    # Sanity check that the generator actually varies with the seed (a
    # constant trace would make the property above vacuous).
    traces = {tuple(map(repr, run_random_structure(seed))) for seed in range(8)}
    assert len(traces) > 1


# ----------------------------------------------------------------------
# Full-experiment determinism and collector round-trips.
# ----------------------------------------------------------------------
def _canonical(result_dict: dict) -> str:
    # wall_clock_runtime is the only legitimately nondeterministic field.
    cleaned = dict(result_dict)
    cleaned.pop("wall_clock_runtime", None)
    return json.dumps(cleaned, sort_keys=True)


def test_smoke_experiment_runs_are_bit_identical():
    spec = default_registry().get("smoke").instantiate().to_dict()
    first = _execute_spec(dict(spec))
    second = _execute_spec(dict(spec))
    assert _canonical(first) == _canonical(second)


def test_collector_json_round_trip_is_bit_identical():
    spec = default_registry().get("smoke").instantiate().to_dict()
    result = ExperimentResult.from_dict(_execute_spec(spec))
    collector_dict = result.collector.to_dict()
    round_tripped = MetricsCollector.from_dict(
        json.loads(json.dumps(collector_dict))).to_dict()
    assert json.dumps(round_tripped, sort_keys=True) == \
        json.dumps(collector_dict, sort_keys=True)


# ----------------------------------------------------------------------
# Fallback seeds of directly constructed components.
# ----------------------------------------------------------------------
_FALLBACK_DRAWS = """
from repro.cluster.container import ContainerRuntime
from repro.cluster.host import Host
from repro.core.election import ExecutorElection
from repro.core.local_scheduler import LocalScheduler
from repro.raft.node import RaftNode
from repro.raft.state_machine import KeyValueStateMachine
from repro.simulation import Environment
from repro.simulation.network import Network
from repro.statesync.synchronizer import StateSynchronizer

env = Environment()
components = [
    ExecutorElection("kernel-7"),
    StateSynchronizer(env, "kernel-7", checkpoint_manager=None),
    ContainerRuntime(env, "host-7"),
    LocalScheduler(env, Host(host_id="host-7")),
    RaftNode(env, Network(env), "node-7", ["node-7", "node-8"],
             KeyValueStateMachine()),
]
print([component._rng.random() for component in components])
"""


def test_fallback_seeds_do_not_depend_on_the_hash_salt():
    # Components built without an ``rng`` seed themselves from their id;
    # the seed must not come from the per-interpreter salted ``hash()``.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")

    def draws(hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", _FALLBACK_DRAWS],
                              env=env, capture_output=True, text=True,
                              check=True).stdout

    assert draws("1") == draws("2")
