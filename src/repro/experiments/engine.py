"""The experiment engine: parallel, disk-cached, fault-tolerant batches.

:class:`ExperimentEngine` is a drop-in :class:`BenchmarkRunner` that adds
three things the serial runner lacks:

* **Sharding** — :meth:`measure_pairs` fans a batch of (benchmark, profile)
  jobs out across worker processes (``concurrent.futures``) and returns the
  results in the order the jobs were submitted, so regenerated figures and
  tables are bit-identical to a serial run regardless of worker count.
* **Persistence** — every measurement is stored in a content-addressed
  on-disk :class:`~repro.experiments.cache.MeasurementCache`, keyed by the
  benchmark source hash, the profile/pass-config fingerprint and the
  cost-model version.  Re-running a figure, table or autotuner generation
  with unchanged inputs completes from the cache with zero re-emulations.
* **Fault tolerance** — worker failure is treated as the normal case, not a
  batch-aborting event.  Every job is deterministic, so a job that raises is
  recorded once and never re-run.  Only host load can change a job's
  outcome: a job that exceeds the per-job wall-clock ``job_timeout`` has its
  (hung) workers killed by a watchdog instead of stalling the batch, and
  gets up to ``timeout_attempts`` attempts; a dead pool salvages every
  already-completed result and resubmits only the remainder on a fresh pool;
  a job that kills its worker is bisected down to the specific poison job
  and quarantined as a structured
  :class:`~repro.experiments.faults.JobFailure` record while every other job
  in the batch returns a real result.

The figure/table regenerators, the genetic autotuner and the differential
fuzzer all submit their work through ``measure_pairs``/``map_jobs`` (see
:func:`repro.experiments.runner.warm_matrix`,
:meth:`repro.autotuner.search.GeneticAutotuner.tune` and
:mod:`repro.fuzz.driver`), so pointing them at an engine instead of a plain
runner parallelizes — and fault-hardens — the whole study.  The
``python -m repro`` CLI does exactly that.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

from .cache import MeasurementCache
from .faults import (
    FAULT_PLAN_ENV, JobFailure, failure_from_exception, fault_point,
    worker_fault_init,
)
from .profiles import Profile
from .runner import BenchmarkRunner, Measurement

#: Batches smaller than this run in-process: forking a pool costs more than it
#: saves for one job.
PARALLEL_THRESHOLD = 2

#: Per-process runner reuse inside pool workers: one worker parses each
#: benchmark's frontend module once and keeps its runner's module and program
#: memos for the life of the pool, so later batches hit them too.
_WORKER_RUNNERS: dict = {}

#: Sentinel marking a batch slot whose outcome is not decided yet.
_UNRESOLVED = object()


def _compute_measurement_job(job) -> tuple[Measurement, bool]:
    """Pool worker entry point: measure one recipe the parent's caches missed.

    ``job`` is ``(benchmark_name, profile, max_instructions, translate)``.
    Runs this worker's long-lived runner's compute step
    (:meth:`BenchmarkRunner._compute`): its module and program memos answer
    repeats this worker has measured; the recipe memo and the disk cache
    stay with the parent.  Returns the measurement and whether a content key
    answered it.  Runs in a separate process; the only state shared with the
    parent is the picklable job tuple and the returned pair.
    """
    benchmark_name, profile, max_instructions, translate = job
    fault_point("measure-job", f"{benchmark_name}/{profile.name}")
    key = (max_instructions, translate)
    runner = _WORKER_RUNNERS.get(key)
    if runner is None:
        runner = _WORKER_RUNNERS[key] = BenchmarkRunner(
            max_instructions=max_instructions, translate=translate)
    return runner._compute(benchmark_name, profile)


class _PoolUnavailable(Exception):
    """No usable multiprocessing primitives here (sandbox, broken fork)."""


@dataclass
class EngineStats:
    """Where each measurement requested from an engine came from — and what
    the fault-tolerance machinery had to do to get it."""

    #: Jobs answered from the in-process fingerprint cache.
    memory_hits: int = 0
    #: Jobs answered from the on-disk cache: measurements, and the fuzz
    #: verdicts a campaign found stored.
    disk_hits: int = 0
    #: Recipe misses: jobs the memory and disk caches could not answer, so
    #: the compute step ran (passes, then backend and replay unless reused).
    computed: int = 0
    #: Of ``computed``, jobs answered from a content key: the optimized
    #: module or the compiled program equalled one the same process (this
    #: one or a pool worker) had measured, so the backend or the replay was
    #: skipped.
    reused: int = 0
    #: Jobs reported as failures: raised, timed out on every attempt, or
    #: quarantined.
    errors: int = 0
    #: Number of batches that ran on a process pool.
    parallel_batches: int = 0
    #: Jobs executed on a process pool.
    parallel_jobs: int = 0
    #: Re-submissions of jobs that exceeded ``job_timeout``.
    retries: int = 0
    #: Jobs that exceeded the per-job wall-clock budget (per occurrence).
    timeouts: int = 0
    #: Poison jobs bisected out and quarantined as JobFailure records.
    quarantined: int = 0
    #: Completed results preserved across a pool death (instead of re-run).
    salvaged: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class ExperimentEngine(BenchmarkRunner):
    """A parallel, disk-cached, fault-tolerant :class:`BenchmarkRunner`.

    Parameters
    ----------
    workers:
        Worker-process count for batched jobs; defaults to ``os.cpu_count()``.
        ``1`` disables the pool entirely (serial, still disk-cached).
    cache_dir / use_disk_cache:
        Where measurements persist; ``use_disk_cache=False`` keeps the engine
        purely in-memory (e.g. for hermetic tests).
    job_timeout:
        Per-job wall-clock budget in seconds (None disables).  Enforced by a
        watchdog on pooled batches only: a job observed running longer than
        this gets its workers killed, the batch's completed results are
        salvaged and the remainder resubmitted on a fresh pool.  Serial
        execution cannot preempt a job and ignores the budget.
    timeout_attempts:
        Attempts a job that exceeds ``job_timeout`` gets before it is
        quarantined (CLI ``--retries``).  A job that raises is never re-run.

    Single ``measure()`` calls are answered from the caches or computed
    in-process; only the batch APIs (:meth:`measure_pairs` /
    :meth:`map_jobs`) shard work across processes (batches of at least
    :data:`PARALLEL_THRESHOLD` uncached jobs) and engage the
    timeout/quarantine machinery.  Results are relabeled to
    the requesting profile's name, so content-equal profiles (say, an
    autotuner candidate that equals ``-O2``) share cache entries without
    leaking each other's names.  Jobs the engine gave up on are accumulated
    on :attr:`failures` as structured
    :class:`~repro.experiments.faults.JobFailure` records.
    """

    def __init__(self, max_instructions: int = 20_000_000,
                 workers: Optional[int] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 use_disk_cache: bool = True,
                 translate: bool = False,
                 job_timeout: Optional[float] = None,
                 timeout_attempts: int = 3):
        super().__init__(max_instructions=max_instructions, translate=translate)
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.cache = MeasurementCache(cache_dir) if use_disk_cache else None
        self.job_timeout = job_timeout
        self.timeout_attempts = timeout_attempts
        self.stats = EngineStats()
        #: JobFailure records for every job this engine gave up on.
        self.failures: list[JobFailure] = []
        self._pool = None
        self._parallel_disabled = False

    # -- cache plumbing ------------------------------------------------------
    def _lookup(self, key: str) -> Optional[Measurement]:
        """Memory-then-disk cache probe; promotes disk hits into memory."""
        measurement = self._memory.get(key)
        if measurement is not None:
            self.stats.memory_hits += 1
            return measurement
        if self.cache is not None:
            measurement = self.cache.get(key)
            if measurement is not None:
                self.stats.disk_hits += 1
                self._memory[key] = measurement
        return measurement

    def _store(self, key: str, measurement: Measurement) -> None:
        self._memory[key] = measurement
        if self.cache is not None:
            self.cache.put(key, measurement)

    def _compute(self, benchmark_name: str,
                 profile: Profile) -> tuple[Measurement, bool]:
        measurement, reused = super()._compute(benchmark_name, profile)
        self._count(reused)
        return measurement, reused

    def _count(self, reused: bool) -> None:
        self.stats.computed += 1
        self.stats.reused += reused

    # -- measurement ---------------------------------------------------------
    def measure(self, benchmark_name: str, profile: Profile) -> Measurement:
        """Measure one pair in-process, through the memory and disk caches.

        Same contract as :meth:`BenchmarkRunner.measure`; a computed pair
        counts on ``stats.computed`` (and ``stats.reused``).  Defined on
        this class, like :meth:`measure_pairs` and :meth:`map_jobs`, so
        instrumentation can wrap the engine's three entry points per class.
        """
        return super().measure(benchmark_name, profile)

    def measure_pairs(self, pairs: Sequence[tuple[str, Profile]],
                      on_error: str = "raise") -> list:
        """Measure a batch of (benchmark, profile) jobs, sharded across workers.

        Cached jobs are answered immediately; the remaining *unique*
        fingerprints are computed — in parallel when the batch is large enough
        and ``workers > 1``, each worker through its own content memos — then
        persisted.  The returned list is aligned with ``pairs``
        (deterministic ordering, independent of scheduling).

        Failure handling (``on_error``):

        * ``"raise"`` (default) — the first failed job re-raises its
          exception (or a :class:`PoisonJobError` for quarantined jobs);
        * ``"none"`` — a failed job (e.g. an autotuner candidate that
          exceeds the instruction budget) maps to ``None``;
        * ``"report"`` — a failed job maps to its structured
          :class:`~repro.experiments.faults.JobFailure` record.

        Every failure is also appended to :attr:`failures` and counted on
        ``stats.errors``, regardless of mode.
        """
        results: list = [None] * len(pairs)
        pending: dict[str, list[int]] = {}
        for index, (benchmark_name, profile) in enumerate(pairs):
            key = self.fingerprint(benchmark_name, profile)
            cached = self._lookup(key)
            if cached is not None:
                results[index] = self._relabel(cached, benchmark_name, profile)
                continue
            pending.setdefault(key, []).append(index)

        if pending:
            keys = list(pending)
            jobs = []
            labels = []
            for key in keys:
                benchmark_name, profile = pairs[pending[key][0]]
                jobs.append((benchmark_name, profile, self.max_instructions,
                             self.translate))
                labels.append(f"{benchmark_name}/{profile.name}")
            for key, outcome in zip(keys, self._compute_batch(jobs, labels)):
                if isinstance(outcome, JobFailure):
                    self.stats.errors += 1
                    if on_error == "raise":
                        raise outcome.to_exception()
                    if on_error == "report":
                        for index in pending[key]:
                            results[index] = outcome
                    continue
                measurement, reused = outcome
                self._count(reused)
                self._store(key, measurement)
                for index in pending[key]:
                    benchmark_name, profile = pairs[index]
                    results[index] = self._relabel(measurement, benchmark_name,
                                                   profile)
        return results

    # -- generic batched jobs ------------------------------------------------
    def map_jobs(self, fn, jobs: Sequence, on_error: str = "raise",
                 labels: Optional[Sequence[str]] = None,
                 on_result: Optional[Callable] = None) -> list:
        """Run ``fn(job)`` for every job, sharded across the worker pool.

        The generic sibling of :meth:`measure_pairs` for non-measurement
        batches (the differential fuzzer's seed shards use it): ``fn`` must be
        a module-level callable and each job picklable.  Results come back
        aligned with ``jobs``.  Uses the same long-lived pool, threshold,
        timeout/quarantine and salvage behaviour as measurement batches; no
        caching is done — callers own dedupe/persistence.

        ``on_error`` follows :meth:`measure_pairs` (``"raise"`` / ``"none"``
        / ``"report"``).  ``labels`` names jobs in failure records and
        ``on_result(index, outcome)`` — with ``outcome`` a result or a
        :class:`JobFailure` — fires once per job *as it finishes* (completion
        order), which lets the fuzz driver store each shard's verdicts as
        the shard finishes, so an interrupted campaign keeps them.
        """
        jobs = list(jobs)
        outcomes = self._map_batch(fn, jobs, labels=labels, on_result=on_result)
        results = []
        for outcome in outcomes:
            if isinstance(outcome, JobFailure):
                self.stats.errors += 1
                if on_error == "raise":
                    raise outcome.to_exception()
                results.append(outcome if on_error == "report" else None)
            else:
                results.append(outcome)
        return results

    # -- execution core ------------------------------------------------------
    def _compute_batch(self, jobs: list, labels: Optional[list] = None) -> list:
        """Run measurement jobs, in order: per job a ``(Measurement, reused)``
        pair or a JobFailure."""

        def compute_serial(job):
            # In-process execution reuses this engine's parsed modules and
            # content memos; the fault hook mirrors the pool worker's.
            # measure_pairs counts the outcome, so skip the counting override.
            fault_point("measure-job", f"{job[0]}/{job[1].name}")
            return BenchmarkRunner._compute(self, job[0], job[1])

        return self._map_batch(_compute_measurement_job, jobs, labels=labels,
                               serial_fn=compute_serial)

    def _map_batch(self, fn, jobs: list, labels: Optional[Sequence[str]] = None,
                   serial_fn: Optional[Callable] = None,
                   on_result: Optional[Callable] = None) -> list:
        """Run jobs through ``fn``; a result or JobFailure per job, in order.

        Jobs run on the process pool when the batch is big enough, with the
        full fault-tolerance machinery (:meth:`_run_group`).  When no pool
        can exist at all (restricted sandbox, broken fork) execution degrades
        to in-process — resuming from whatever the pool already finished, so
        a completed job is never re-run by the fallback.  In-process, each
        job runs once: its result, or the JobFailure of what it raised.
        """
        jobs = list(jobs)
        labels = list(labels) if labels is not None else \
            [f"job[{i}]" for i in range(len(jobs))]
        outcomes: list = [_UNRESOLVED] * len(jobs)
        attempts = [0] * len(jobs)

        def finalize(index: int, outcome) -> None:
            outcomes[index] = outcome
            if isinstance(outcome, JobFailure):
                self.failures.append(outcome)
            if on_result is not None:
                on_result(index, outcome)

        if (self.workers > 1 and not self._parallel_disabled
                and len(jobs) >= PARALLEL_THRESHOLD):
            self.stats.parallel_batches += 1
            try:
                self._run_group(fn, jobs, labels, list(range(len(jobs))),
                                attempts, finalize)
            except _PoolUnavailable:
                # Degrade to in-process execution and stop re-trying pool
                # creation on later batches.
                self._parallel_disabled = True
                self._kill_pool()

        run = serial_fn if serial_fn is not None else fn
        for index, outcome in enumerate(outcomes):
            if outcome is _UNRESOLVED:
                attempts[index] += 1
                try:
                    outcome = run(jobs[index])
                except Exception as exc:
                    outcome = failure_from_exception(labels[index], exc,
                                                     attempts[index])
                finalize(index, outcome)
        return outcomes

    def _run_group(self, fn, jobs: list, labels: list, indices: list,
                   attempts: list, finalize) -> None:
        """Run a group of job indices on the pool until each is finalized.

        This is the fault-tolerant core.  One iteration of the outer loop
        submits every pending index and watches the futures:

        * a future that completes finalizes its job, with its result or the
          JobFailure of what it raised;
        * a job observed *running* longer than ``job_timeout`` trips the
          watchdog: the pool's workers are killed, the timed-out job is
          resubmitted until it has had ``timeout_attempts`` attempts, then
          quarantined, and every other in-flight job is resubmitted with no
          attempt penalty;
        * a pool death (``BrokenProcessPool``) keeps every result that
          completed before the crash (**salvage**), then isolates the killer:
          a single unresolved job is the proven poison job and is
          quarantined; several unresolved jobs are split in half and re-run
          as sub-groups on fresh pools (**bisection**), converging on the
          poison job in O(log n) pool restarts while innocent bystanders
          complete normally.
        """
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

        pending = list(indices)
        while pending:
            try:
                pool = self._ensure_pool()
            except (ImportError, OSError) as exc:
                raise _PoolUnavailable from exc
            futures = {}
            try:
                for index in pending:
                    attempts[index] += 1
                    futures[pool.submit(fn, jobs[index])] = index
            except RuntimeError as exc:  # pool already broken/shut down
                for future in futures:
                    future.cancel()
                self._kill_pool()
                if not futures:
                    raise _PoolUnavailable from exc
                continue  # resubmit the whole round on a fresh pool
            self.stats.parallel_jobs += len(pending)
            pending = []

            started: dict[int, float] = {}
            timed_out: list[int] = []
            broken_victims: list[int] = []
            pool_broken = False
            completed_round = 0
            not_done = set(futures)
            try:
                while not_done and not pool_broken and not timed_out:
                    tick = None
                    if self.job_timeout is not None:
                        tick = max(0.01, min(0.1, self.job_timeout / 4))
                    done, not_done = wait(not_done, timeout=tick,
                                          return_when=FIRST_COMPLETED)
                    for future in done:
                        index = futures[future]
                        exc = future.exception()
                        if exc is None:
                            finalize(index, future.result())
                            completed_round += 1
                        elif isinstance(exc, BrokenExecutor):
                            pool_broken = True
                            broken_victims.append(index)
                        else:
                            finalize(index, failure_from_exception(
                                labels[index], exc, attempts[index]))
                    if (self.job_timeout is not None and not_done
                            and not pool_broken):
                        now = time.monotonic()
                        for future in not_done:
                            index = futures[future]
                            if future.running() and index not in started:
                                started[index] = now
                        timed_out = [futures[f] for f in not_done
                                     if futures[f] in started
                                     and now - started[futures[f]]
                                     >= self.job_timeout]
            except KeyboardInterrupt:
                self._kill_pool()
                raise

            if not pool_broken and not timed_out:
                continue  # round fully resolved

            # The pool is dead (or about to be killed by the watchdog):
            # everything finalized above survives — that is the salvage.
            self._kill_pool()
            self.stats.salvaged += completed_round
            unresolved = sorted(
                {futures[f] for f in not_done} | set(broken_victims))

            if timed_out:
                for index in sorted(timed_out):
                    self.stats.timeouts += 1
                    unresolved.remove(index)
                    if attempts[index] < self.timeout_attempts:
                        self.stats.retries += 1
                        pending.append(index)
                    else:
                        finalize(index, JobFailure(
                            job=labels[index], stage="timeout",
                            attempts=attempts[index],
                            error_type="JobTimeout",
                            message=f"exceeded the {self.job_timeout:.3g}s "
                                    f"per-job wall-clock budget"))
                # In-flight bystanders were killed with the pool through no
                # fault of their own: resubmit without an attempt penalty.
                for index in unresolved:
                    attempts[index] -= 1
                    pending.append(index)
                continue

            if len(unresolved) == 1:
                # Proven poison job: it was alone in flight when the pool
                # died.  Killing a worker is deterministic behaviour —
                # quarantine immediately.
                index = unresolved[0]
                self.stats.quarantined += 1
                finalize(index, JobFailure(
                    job=labels[index], stage="pool-kill",
                    attempts=attempts[index], error_type="WorkerCrash",
                    message="killed its worker process (isolated by "
                            "bisection; the process pool died with this "
                            "job alone in flight)"))
            elif unresolved:
                # Ambiguous killer: bisect.  Each half runs as its own
                # sub-group on a fresh pool; the half containing the poison
                # job dies again and splits further, the other completes.
                mid = len(unresolved) // 2
                for half in (unresolved[:mid], unresolved[mid:]):
                    if half:
                        self._run_group(fn, jobs, labels, half, attempts,
                                        finalize)

    # -- pool lifecycle ------------------------------------------------------
    def _ensure_pool(self):
        """The engine's long-lived worker pool (created on first parallel batch).

        Keeping one pool alive across batches lets ``_WORKER_RUNNERS`` persist
        in the workers, so e.g. consecutive autotuner generations reuse each
        worker's parsed frontend modules and content memos instead of paying
        pool startup, re-parsing and re-measuring per generation.  The
        ``fork`` context is pinned where available so worker state (and the
        fault-injection environment) is inherited deterministically.
        """
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # platform without fork
                context = None
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context,
                initializer=worker_fault_init,
                initargs=(os.environ.get(FAULT_PLAN_ENV),))
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down *now*, SIGTERMing workers (hung ones included).

        Used by the watchdog and the pool-death recovery paths; a later batch
        (or bisection sub-group) recreates a fresh pool on demand.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def close(self) -> None:
        """Shut down the worker pool; the engine stays usable, serially.

        Later batches will not respawn workers — reset ``_parallel_disabled``
        (or build a new engine) to re-enable parallelism.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._parallel_disabled = True

    def __del__(self):  # best effort; interpreter exit reaps workers anyway
        try:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
        except Exception:
            pass


__all__ = ["EngineStats", "ExperimentEngine", "PARALLEL_THRESHOLD"]
