"""The sweep runner: store-backed, parallel, deterministic, fault-tolerant.

Each :class:`ScenarioSpec` is an independent, fully seeded unit of work — the
spec embeds the generator seed and the platform seed, and every random stream
inside the simulator derives from them — so running N specs across processes
is embarrassingly parallel and *bit-identical* to running them serially.  To
make that guarantee hold end to end, both paths materialize results through
the same JSON round-trip (``ExperimentResult.to_dict`` in the worker,
``from_dict`` in the parent), which is also exactly what a store hit
deserializes.  That round trip carries the latency breakdown as references
into the collector's task list, not as a second copy of every task's step
latencies, so a decoded result holds one step record per task, as the
worker's live result did.

Parallel execution is **supervised** (one forked process per spec, polled
pipes) rather than pooled: a worker that a SIGKILL / OOM-killer takes out
kills *its spec's attempt*, not the pool — the old ``ProcessPoolExecutor``
turned one dead worker into a ``BrokenProcessPool`` that poisoned every
in-flight sibling.  Failed specs are retried on a deterministic (jitterless)
exponential backoff schedule (:func:`repro.resilience.backoff_delay`),
persistently failing specs are quarantined with their captured tracebacks,
and every completed sibling's result is salvaged and stored.  Unlike shard
supervision — where a deterministic in-simulation error would replay
identically — a sweep retry is cheap and a crash (OOM kill, transient
environment failure) is indistinguishable from a deterministic bug without
rerunning, so *every* failure mode gets the same bounded retry budget and
the quarantine record says what finally happened.

Workers are handed plain spec dicts (cheap to pickle); traces are regenerated
inside the worker from the spec's seed rather than shipped across the
process boundary.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback as _traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.scenarios import ScenarioSpec
from repro.experiments.store import ResultStore
from repro.metrics.collector import ExperimentResult

ProgressCallback = Callable[[str], None]

#: Pipe poll slice for the supervised parallel scheduler.
_POLL_INTERVAL_S = 0.05


@dataclass
class RunOutcome:
    """One finished, cache-served, or quarantined experiment.

    A quarantined spec (every retry exhausted) has ``result is None`` and
    carries the final failure's ``error`` repr and captured ``traceback``;
    ``attempts`` counts every try including the first.
    """

    spec: ScenarioSpec
    result: Optional[ExperimentResult]
    cached: bool
    runtime_s: float
    attempts: int = 1
    error: Optional[str] = None
    traceback: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.result is None


class SweepExecutionError(RuntimeError):
    """Raised (``strict=True``) after a sweep finishes with quarantined
    specs.  Raised *at the end* — every healthy spec has already completed
    and been stored — with the failed outcomes attached."""

    def __init__(self, failures: Sequence[RunOutcome]) -> None:
        self.failures = list(failures)
        labels = ", ".join(outcome.spec.label for outcome in self.failures)
        super().__init__(
            f"{len(self.failures)} spec(s) quarantined after retries: "
            f"{labels}")


def _execute_spec(spec_dict: Dict[str, object]) -> Dict[str, object]:
    """Run one spec in-process and return the serialized result.

    Module-level so it pickles under every multiprocessing start method.
    Determinism needs no extra per-worker seeding: the spec carries the seed,
    and the simulator's randomness all flows from ``SeededRandom(seed)``.
    Execution goes through the :class:`repro.api.Simulation` façade — the
    one code path every entry point shares.
    """
    from repro.api.simulation import Simulation

    return Simulation.from_spec(spec_dict).run().to_dict()


def _sweep_worker(connection, spec_dict: Dict[str, object]) -> None:
    """Forked per-spec worker: one ``("ok", result)`` or
    ``("error", repr, traceback)`` message, then exit."""
    try:
        result_dict = _execute_spec(spec_dict)
    except BaseException as error:  # noqa: BLE001 — the pipe carries it home
        try:
            connection.send(("error", repr(error), _traceback.format_exc()))
        finally:
            connection.close()
        return
    connection.send(("ok", result_dict))
    connection.close()


@dataclass
class _SweepJob:
    """Scheduler state for one distinct spec in a supervised sweep."""

    spec_hash: str
    spec: ScenarioSpec
    attempts: int = 0
    eligible_at: float = 0.0
    total_runtime_s: float = 0.0
    done: bool = False
    process: Optional[object] = None
    connection: Optional[object] = None
    started: float = 0.0
    deadline: Optional[float] = None
    last_error: Optional[str] = None
    last_traceback: Optional[str] = None


def run_specs(specs: Sequence[ScenarioSpec], workers: int = 1,
              store: Optional[ResultStore] = None,
              progress: Optional[ProgressCallback] = None, *,
              retries: int = 0, backoff_base_s: float = 0.0,
              spec_timeout_s: Optional[float] = None,
              strict: bool = True,
              hooks=None) -> List[RunOutcome]:
    """Run every spec, in order, returning one :class:`RunOutcome` each.

    ``workers <= 1`` is the serial fallback; it produces bit-identical
    metrics to any parallel run.  When ``store`` is given, specs already
    present are served from disk and fresh results are persisted — which is
    also what makes a re-run after a partial failure a *resume*: nothing
    already stored runs again.  Duplicate specs (same content hash) are
    executed once.

    Failure handling: each distinct spec gets ``1 + retries`` attempts, with
    deterministic exponential backoff (``backoff_base_s * 2**(n-1)``,
    jitterless) between them; in the supervised parallel path an attempt
    also fails if its process dies or exceeds ``spec_timeout_s``.  Each
    failed attempt publishes a ``SPEC_RETRY`` hook topic on ``hooks``.  A
    spec that exhausts its budget is *quarantined*: its outcome carries
    ``result=None`` plus the final error and traceback, while every other
    spec still completes (partial-result salvage).  ``strict=True`` raises
    :class:`SweepExecutionError` at the very end if anything was
    quarantined; ``strict=False`` leaves the failed outcomes in the returned
    list for the caller to report.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    from repro.resilience.retry import backoff_delay

    specs = list(specs)
    total = len(specs)
    outcomes: List[Optional[RunOutcome]] = [None] * total
    done = 0

    def report(index: int, outcome: RunOutcome) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            if outcome.failed:
                source = (f"FAILED after {outcome.attempts} attempt(s): "
                          f"{outcome.error}")
            elif outcome.cached:
                source = "cache hit"
            else:
                source = f"ran in {outcome.runtime_s:.1f}s"
                if outcome.attempts > 1:
                    source += f" (attempt {outcome.attempts})"
            progress(f"[{done}/{total}] {outcome.spec.label}: {source}")

    # Serve store hits first; collect the distinct specs that must run.
    to_run: Dict[str, List[int]] = {}
    for index, spec in enumerate(specs):
        cached = store.load(spec) if store is not None else None
        if cached is not None:
            outcomes[index] = RunOutcome(spec=spec, result=cached, cached=True,
                                         runtime_s=0.0)
            report(index, outcomes[index])
        else:
            to_run.setdefault(spec.spec_hash(), []).append(index)

    def finish(spec_hash: str, result_dict: Dict[str, object],
               runtime_s: float, attempts: int = 1) -> None:
        indices = to_run[spec_hash]
        if store is not None:
            store.save(specs[indices[0]], result_dict)
        for index in indices:
            outcomes[index] = RunOutcome(
                spec=specs[index],
                result=ExperimentResult.from_dict(result_dict),
                cached=False, runtime_s=runtime_s, attempts=attempts)
            report(index, outcomes[index])

    def quarantine(spec_hash: str, attempts: int, runtime_s: float,
                   error: str, trace: Optional[str]) -> None:
        for index in to_run[spec_hash]:
            outcomes[index] = RunOutcome(
                spec=specs[index], result=None, cached=False,
                runtime_s=runtime_s, attempts=attempts, error=error,
                traceback=trace)
            report(index, outcomes[index])

    def note_retry(spec_hash: str, attempt: int, error: str,
                   delay_s: float) -> None:
        if hooks is not None:
            from repro.api.hooks import SPEC_RETRY

            spec = specs[to_run[spec_hash][0]]
            hooks.publish(SPEC_RETRY, attempt, spec.label,
                          {"spec_hash": spec_hash, "error": error,
                           "next_delay_s": delay_s})

    if workers > 1 and len(to_run) > 1:
        _run_supervised(specs, to_run, workers, retries, backoff_base_s,
                        spec_timeout_s, backoff_delay, finish, quarantine,
                        note_retry)
    else:
        for spec_hash, indices in to_run.items():
            attempts = 0
            while True:
                attempts += 1
                started = time.monotonic()
                try:
                    result_dict = _execute_spec(specs[indices[0]].to_dict())
                except Exception as error:  # crash-level faults kill us too;
                    # in-process we can only retry exceptions.
                    if attempts <= retries:
                        delay = backoff_delay(attempts, backoff_base_s)
                        note_retry(spec_hash, attempts, repr(error), delay)
                        if delay > 0.0:
                            time.sleep(delay)
                        continue
                    quarantine(spec_hash, attempts,
                               time.monotonic() - started, repr(error),
                               _traceback.format_exc())
                    break
                finish(spec_hash, result_dict, time.monotonic() - started,
                       attempts)
                break

    results = [outcome for outcome in outcomes if outcome is not None]
    failures = [outcome for outcome in results if outcome.failed]
    if failures and strict:
        raise SweepExecutionError(failures)
    return results


def _run_supervised(specs, to_run, workers, retries, backoff_base_s,
                    spec_timeout_s, backoff_delay, finish, quarantine,
                    note_retry) -> None:
    """The supervised parallel scheduler: one forked process per attempt,
    polled pipes, per-spec retry with backoff, kill-on-timeout."""
    from repro.resilience.supervisor import drain_and_close

    context = multiprocessing.get_context("fork")
    jobs = [_SweepJob(spec_hash, specs[indices[0]])
            for spec_hash, indices in to_run.items()]
    running: Dict[object, _SweepJob] = {}
    max_workers = min(workers, len(jobs))

    def reap_job(job: _SweepJob) -> None:
        if job.connection is not None:
            running.pop(job.connection, None)
            drain_and_close(job.connection)
            job.connection = None
        process = job.process
        job.process = None
        if process is None:
            return
        if process.is_alive():
            process.terminate()
        process.join(timeout=10)
        if process.is_alive():
            process.kill()
            process.join(timeout=10)

    def launch(job: _SweepJob) -> None:
        job.attempts += 1
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_sweep_worker, args=(child_end, job.spec.to_dict()),
            name=f"sweep-{job.spec_hash[:8]}", daemon=True)
        process.start()
        child_end.close()
        job.process = process
        job.connection = parent_end
        job.started = time.monotonic()
        job.deadline = (job.started + spec_timeout_s
                        if spec_timeout_s is not None else None)
        running[parent_end] = job

    def fail_attempt(job: _SweepJob, error: str,
                     trace: Optional[str] = None) -> None:
        job.total_runtime_s += time.monotonic() - job.started
        job.last_error = error
        job.last_traceback = trace
        reap_job(job)
        if job.attempts <= retries:
            delay = backoff_delay(job.attempts, backoff_base_s)
            note_retry(job.spec_hash, job.attempts, error, delay)
            job.eligible_at = time.monotonic() + delay
        else:
            job.done = True
            quarantine(job.spec_hash, job.attempts, job.total_runtime_s,
                       error, trace)

    def succeed(job: _SweepJob, result_dict: Dict[str, object]) -> None:
        elapsed = time.monotonic() - job.started
        job.total_runtime_s += elapsed
        job.done = True
        reap_job(job)
        finish(job.spec_hash, result_dict, elapsed, job.attempts)

    try:
        while not all(job.done for job in jobs):
            now = time.monotonic()
            for job in jobs:
                if (job.done or job.process is not None
                        or job.eligible_at > now):
                    continue
                if len(running) >= max_workers:
                    break
                launch(job)
            if not running:
                # Everything live is waiting out a backoff window.
                next_at = min(job.eligible_at for job in jobs
                              if not job.done)
                time.sleep(max(0.0, next_at - time.monotonic()))
                continue
            ready = _connection_wait(list(running),
                                     timeout=_POLL_INTERVAL_S)
            for connection in ready:
                job = running[connection]
                try:
                    message = connection.recv()
                except (EOFError, OSError) as error:
                    fail_attempt(job, f"worker died mid-result "
                                      f"({type(error).__name__})")
                    continue
                except Exception as error:
                    fail_attempt(job, f"corrupt result on the pipe "
                                      f"({type(error).__name__}: {error})")
                    continue
                if message[0] == "ok":
                    succeed(job, message[1])
                else:
                    fail_attempt(job, message[1], message[2])
            now = time.monotonic()
            for connection, job in list(running.items()):
                if connection in ready:
                    continue
                try:
                    if connection.poll(0):
                        continue  # result in flight; recv next slice
                except (EOFError, OSError):
                    pass
                if not job.process.is_alive():
                    fail_attempt(job, f"worker died (exit code "
                                      f"{job.process.exitcode})")
                elif job.deadline is not None and now > job.deadline:
                    job.process.kill()
                    fail_attempt(job, f"no result within {spec_timeout_s}s "
                                      f"(timed out)")
    except BaseException:
        for job in jobs:
            try:
                reap_job(job)
            except Exception:
                pass
        raise


def run_spec(spec: ScenarioSpec,
             store: Optional[ResultStore] = None) -> RunOutcome:
    """Run (or load) a single spec."""
    return run_specs([spec], workers=1, store=store)[0]
