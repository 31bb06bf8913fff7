"""Calendar-queue ordering tests: the engine vs a frozen heap reference.

The engine's dispatch contract is "(time, serial) order — exactly what a
single global ``(time, serial, item)`` heap produces".  These tests pin it
three ways:

* a hypothesis property drives random *defer trees* (callbacks that
  schedule more callbacks, including zero delays, bucket-boundary delays,
  and far-future delays) through the real :class:`Environment` and through
  a ten-line heapq reference, and requires identical firing order and
  timestamps — across calendar geometries chosen to force every structural
  path (same-time FIFO lane, current-bucket incursions, future-bucket
  appends, overflow migration, window rebases);
* a hypothesis property replays random schedule/cancel/interrupt process
  structures across those same geometries and requires identical traces —
  shrinking the window until nearly everything rebases must not reorder
  anything;
* unit tests cover the cold corners: the stopped-early window rebuild
  (scheduling *before* a rebased window base), step()/peek() interleaving
  with same-time lanes, and dispatch-stat accounting.

The serial-vs-parallel sweep test at the bottom re-pins cross-process
determinism on the new dispatch loop, with tuned ``policy_kwargs`` riding
along (they must round-trip through worker processes and the store key).
"""

import heapq
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Environment, Interrupt

# Geometries that force different structural paths through the calendar:
# the default; a window so small almost everything overflows and rebases;
# a bucket width so large one bucket holds everything (pure incursion /
# cursor behaviour); and a boundary-hostile medium window.
GEOMETRIES = (
    {},
    {"bucket_width": 0.5, "num_buckets": 4},       # span 2.0 — rebases galore
    {"bucket_width": 1e6, "num_buckets": 2},       # one giant bucket
    {"bucket_width": 0.25, "num_buckets": 16},     # span 4.0
)

# Delays chosen to hit exact bucket boundaries (multiples of 0.25 and 0.5),
# sub-width values, zero, and far-future values for every geometry above.
DELAY_CHOICES = (0.0, 1e-4, 0.1, 0.125, 0.25, 0.26, 0.5, 0.75, 1.0, 2.0,
                 3.75, 4.0, 7.5, 100.0)


# ----------------------------------------------------------------------
# Defer trees vs the heap reference.
# ----------------------------------------------------------------------
def build_script(seed: int, nodes: int = 40):
    """A random defer tree: node -> (delay, children node ids)."""
    rng = random.Random(seed)
    script = {}
    for node in range(nodes):
        fanout = rng.choice((0, 0, 1, 1, 2, 3))
        children = [child for child in range(node + 1, nodes)
                    if rng.random() < 0.5][:fanout]
        script[node] = (rng.choice(DELAY_CHOICES), children)
    roots = [node for node in range(nodes)
             if not any(node in kids for _, kids in script.values())]
    return script, roots


def run_script_on_engine(script, roots, geometry) -> list:
    env = Environment(**geometry)
    fired = []

    def make_callback(node):
        def fire(_stub):
            fired.append((node, env.now))
            for child in script[node][1]:
                env.defer(script[child][0], make_callback(child))
        return fire

    for root in roots:
        env.defer(script[root][0], make_callback(root))
    env.run()
    return fired


def run_script_on_heap_reference(script, roots) -> list:
    """The frozen reference: one global (time, serial, node) heap."""
    heap, serial, now, fired = [], 0, 0.0, []
    for root in roots:
        heapq.heappush(heap, (now + script[root][0], serial, root))
        serial += 1
    while heap:
        now, _, node = heapq.heappop(heap)
        fired.append((node, now))
        for child in script[node][1]:
            heapq.heappush(heap, (now + script[child][0], serial, child))
            serial += 1
    return fired


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_defer_trees_fire_in_heap_order(seed):
    script, roots = build_script(seed)
    expected = run_script_on_heap_reference(script, roots)
    for geometry in GEOMETRIES:
        assert run_script_on_engine(script, roots, geometry) == expected, \
            f"geometry {geometry} diverged from the heap reference"


# ----------------------------------------------------------------------
# Schedule/cancel/interrupt structures across geometries.
# ----------------------------------------------------------------------
def run_process_structure(seed: int, geometry) -> list:
    """Random sleeps, timeouts, events, interrupts; returns the trace."""
    rng = random.Random(seed)
    env = Environment(**geometry)
    trace: list = []
    signals = [env.event() for _ in range(rng.randint(1, 3))]

    def sleeper(wid: int):
        for step in range(rng.randint(1, 6)):
            choice = rng.random()
            try:
                if choice < 0.5:
                    delay = rng.choice(DELAY_CHOICES)
                    if rng.random() < 0.5:
                        yield delay
                    else:
                        yield env.timeout(delay)
                    trace.append(("slept", wid, step, env.now))
                elif choice < 0.7 and signals:
                    signal = rng.choice(signals)
                    if not signal.triggered:
                        signal.succeed(wid)
                        trace.append(("signalled", wid, step, env.now))
                    yield rng.choice(DELAY_CHOICES)
                else:
                    yield rng.choice((50.0, 100.0, 200.0))
                    trace.append(("long-nap", wid, step, env.now))
            except Interrupt as interrupt:
                trace.append(("interrupted", wid, step, interrupt.cause,
                              env.now))

    workers = [env.process(sleeper(i)) for i in range(rng.randint(2, 5))]

    def canceller():
        for round_no in range(rng.randint(1, 5)):
            yield rng.choice(DELAY_CHOICES[1:])
            victim = rng.choice(workers)
            if victim.is_alive:
                victim.interrupt(f"cancel-{round_no}")
                trace.append(("cancelled", round_no, env.now))

    env.process(canceller())
    env.run(until=300.0)
    trace.append(("final", env.now))
    return trace


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_process_structures_identical_across_geometries(seed):
    reference = run_process_structure(seed, GEOMETRIES[0])
    for geometry in GEOMETRIES[1:]:
        assert run_process_structure(seed, geometry) == reference, \
            f"geometry {geometry} reordered the process trace"


# ----------------------------------------------------------------------
# Cold corners.
# ----------------------------------------------------------------------
def test_schedule_before_rebased_window_rebuilds():
    # Force a rebase far into the future, stop the clock short of it, then
    # schedule between now and the rebased base: the window must re-anchor
    # (the _rebuild path) and still dispatch everything in time order.
    env = Environment(bucket_width=0.5, num_buckets=4)  # span 2.0
    fired = []
    env.defer(100.0, lambda _s: fired.append(("far", env.now)))
    env.run(until=50.0)            # advance may rebase the window to 100.0
    assert env.now == 50.0 and fired == []
    env.defer(10.0, lambda _s: fired.append(("mid", env.now)))   # t=60 < base
    env.defer(0.0, lambda _s: fired.append(("now", env.now)))    # t=50
    env.run()
    assert fired == [("now", 50.0), ("mid", 60.0), ("far", 100.0)]


def test_step_orders_bucket_entries_before_same_time_fifo():
    env = Environment()
    fired = []
    env.defer(1.0, lambda _s: fired.append("first-at-1"))
    env.defer(1.0, lambda _s: fired.append("second-at-1"))
    env.step()                     # pops first-at-1, clock now 1.0
    assert env.now == 1.0 and fired == ["first-at-1"]
    # A same-time schedule lands in the FIFO lane; the remaining bucket
    # entry at t=1.0 carries a smaller serial and must pop first.
    env.defer(0.0, lambda _s: fired.append("fifo-at-1"))
    assert env.peek() == 1.0
    env.step()
    assert fired == ["first-at-1", "second-at-1"]
    env.step()
    assert fired == ["first-at-1", "second-at-1", "fifo-at-1"]


def test_dispatch_stats_account_for_lanes_and_batches():
    env = Environment()
    for _ in range(3):
        env.defer(0.0, lambda _s: None)      # same-time FIFO lane
    env.defer(1.0, lambda _s: None)          # bucketed tuple
    env.defer(1.0, lambda _s: None)          # fused into the same batch
    env.defer(10_000.0, lambda _s: None)     # overflow, migrates on rebase
    env.run()
    stats = env.dispatch_stats()
    assert stats["dispatched"] == 6
    # Batches: t=0 (three FIFO entries), t=1 (two fused), t=10000 (one).
    assert stats["batches"] == 3
    assert stats["serials"] == 3             # only tuple entries mint serials
    assert stats["overflow"] == 1 and stats["rebases"] == 1


def test_dispatch_stats_count_scanned_empty_buckets():
    # Width 1.0, eight buckets: entries land in buckets 1, 5 and 7, and the
    # t=100 entry overflows the window.
    env = Environment(bucket_width=1.0, num_buckets=8)
    for delay in (1.0, 5.0, 7.5, 100.0):
        env.defer(delay, lambda _s: None)
    env.run()
    stats = env.dispatch_stats()
    assert stats["dispatched"] == 4
    # Scans: 1 found at once; 2, 3, 4 stepped over to reach 5; 6 stepped
    # over to reach 7; past 7 the window is exhausted and rebases onto the
    # overflow entry, which lands in the new bucket 0 with no scan.
    assert stats["scanned"] == 4
    assert stats["overflow"] == 1 and stats["rebases"] == 1


def test_peek_from_a_callback_is_side_effect_free():
    # peek() must be a pure read: a callback peeking mid-run while the
    # loop's cursor locals are cached must not sort/clear/rebase the
    # calendar — doing so used to let the loop re-commit a stale cursor
    # and silently drop the head of the next bucket.
    env = Environment(bucket_width=1.0, num_buckets=8)
    fired = []
    peeks = []

    def observer(_stub):
        fired.append(("observer", env.now))
        peeks.append(env.peek())

    env.defer(1.0, observer)           # drains bucket 1, then peeks ahead
    env.defer(2.0, lambda _s: fired.append(("head", env.now)))
    env.defer(2.5, lambda _s: fired.append(("tail", env.now)))
    env.defer(100.0, lambda _s: fired.append(("far", env.now)))  # overflow
    env.run()
    assert fired == [("observer", 1.0), ("head", 2.0), ("tail", 2.5),
                     ("far", 100.0)]
    assert peeks == [2.0]


def test_peek_scans_unsorted_future_buckets_and_overflow():
    env = Environment(bucket_width=1.0, num_buckets=4)
    assert env.peek() == float("inf")
    env.defer(2.7, lambda _s: None)
    env.defer(2.3, lambda _s: None)    # same future bucket, out of order
    assert env.peek() == 2.3
    env.run()
    assert env.peek() == float("inf")
    env.defer(50.0, lambda _s: None)   # overflow only (now 2.7 + 50.0)
    assert env.peek() == 52.7


def test_environment_rejects_past_schedules_and_negative_delays():
    env = Environment()
    env.defer(5.0, lambda _s: None)
    env.run()
    try:
        env.defer(-1.0, lambda _s: None)
    except Exception as error:
        assert "past" in str(error)
    else:  # pragma: no cover - the raise is the contract
        raise AssertionError("negative defer must be rejected")


# ----------------------------------------------------------------------
# Serial vs parallel sweeps on the new engine (with tuned policy kwargs).
# ----------------------------------------------------------------------
def test_policy_kwargs_sweep_serial_vs_parallel_bit_identical(tmp_path):
    from repro.experiments import SweepGrid, run_specs
    from repro.experiments.store import ResultStore

    grid = SweepGrid(scenario="smoke", policies=("reservation",),
                     seeds=(7, 8), policy_kwargs={"state_persist_s": 0.45})
    specs = grid.expand()
    assert all(spec.policy_kwargs == {"state_persist_s": 0.45}
               for spec in specs)
    # Tuned variants must be tellable apart in human-readable output.
    assert specs[0].label == "smoke/reservation/seed7[state_persist_s=0.45]"

    def canonical(outcomes):
        rows = []
        for outcome in outcomes:
            cleaned = outcome.result.to_dict()
            cleaned.pop("wall_clock_runtime", None)
            rows.append(json.dumps(cleaned, sort_keys=True))
        return rows

    serial = run_specs(specs, workers=1, store=None)
    parallel = run_specs(specs, workers=2, store=None)
    assert canonical(serial) == canonical(parallel)

    # Tuned variants are storable under their own content hash: a rerun
    # through a store is a full cache hit, and differs from the untuned key.
    store = ResultStore(tmp_path)
    run_specs(specs, workers=1, store=store)
    rerun = run_specs(specs, workers=1, store=store)
    assert all(outcome.cached for outcome in rerun)
    untuned = SweepGrid(scenario="smoke", policies=("reservation",),
                        seeds=(7, 8)).expand()
    assert {spec.spec_hash() for spec in specs}.isdisjoint(
        {spec.spec_hash() for spec in untuned})
