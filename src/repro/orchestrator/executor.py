"""Sweep execution: serial and process-pool backends behind one entry point.

:func:`run_sweep` takes a list of :class:`~repro.orchestrator.jobs.SweepJob`
and returns their :class:`~repro.core.team.TeamResult` in *job order* —
regardless of the order the backend completes them in — plus a
:class:`~repro.orchestrator.progress.SweepReport` with timing and cache
accounting.  Cache lookups happen in the parent before anything is
submitted, so a fully warm sweep never touches a worker at all.

Parallel correctness rests on two properties of the simulator:

- every random stream derives from the job's own ``master_seed``, so a
  scenario's result is a pure function of its config;
- every run calibrates its own PDF Table from that seed, so no state
  flows between jobs except through the explicit config.

Together these make parallel output bit-identical to serial output,
which the regression suite enforces.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.team import TeamResult
from repro.experiments.runner import run_scenario
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.jobs import CODE_VERSION, SweepJob
from repro.orchestrator.progress import (
    JobRecord,
    ProgressListener,
    SweepReport,
)
from repro.telemetry.collect import Telemetry
from repro.telemetry.export import write_jsonl
from repro.telemetry.registry import DURATION_EDGES_S, Histogram

IndexedJob = Tuple[int, SweepJob]

#: Attempts per job before the pool backend aborts the sweep.
MAX_ATTEMPTS = 3
#: First retry delay; doubles per failure up to :data:`BACKOFF_MAX_S`.
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 2.0
#: Seed of the retry-jitter PRNG (kept deterministic so retried sweeps
#: behave reproducibly under test).
BACKOFF_SEED = 0


class SweepExecutionError(RuntimeError):
    """A job kept failing after every allowed attempt."""


def _job_telemetry(job: SweepJob) -> Optional[Telemetry]:
    """The job's rich-instrumentation handle, if it asked for one."""
    return Telemetry() if getattr(job, "telemetry", False) else None


def _record_cpu(result: TeamResult, cpu_s: float) -> None:
    """Stash worker CPU time in the result's telemetry snapshot.

    The backend tuple shape ``(index, result, wall_s, attempts)`` is
    pinned by tests and external backends, so CPU time rides inside the
    result instead of widening the protocol.
    """
    telemetry = getattr(result, "telemetry", None)
    if telemetry is not None:
        telemetry.metrics["orchestrator_job_cpu_s"] = cpu_s


def _timed_run(job: SweepJob) -> Tuple[TeamResult, float]:
    """Run one job and measure its wall time (top level: must pickle)."""
    start = time.perf_counter()
    cpu_start = time.process_time()
    result = run_scenario(job.config, telemetry=_job_telemetry(job))
    _record_cpu(result, time.process_time() - cpu_start)
    return result, time.perf_counter() - start


class SerialBackend:
    """In-process execution, one job at a time, in job order."""

    n_workers = 1
    #: Optional ``callable(index)`` invoked when a job starts executing;
    #: the sweep driver installs one for in-flight-aware ETAs.
    on_start: Optional[Callable[[int], None]] = None

    def execute(
        self, pending: Sequence[IndexedJob]
    ) -> Iterator[Tuple[int, TeamResult, float, int]]:
        for index, job in pending:
            if self.on_start is not None:
                self.on_start(index)
            start = time.perf_counter()
            cpu_start = time.process_time()
            result = run_scenario(job.config, telemetry=_job_telemetry(job))
            _record_cpu(result, time.process_time() - cpu_start)
            yield index, result, time.perf_counter() - start, 1


class ProcessPoolBackend:
    """Fan jobs out over a ``ProcessPoolExecutor``, surviving worker
    failures.

    Results are yielded as they complete (the caller restores job order).
    Two hardening layers wrap the happy path:

    - **retry with backoff**: a job whose attempt raises is resubmitted
      up to :data:`MAX_ATTEMPTS` times, sleeping an exponentially
      growing, jittered interval between attempts (the jitter draws from
      a dedicated seeded PRNG, so scheduling noise never touches any
      simulation stream);
    - **broken-pool recovery**: when a worker dies (OOM kill, segfault,
      interpreter crash) the ``BrokenProcessPool`` is discarded, the
      attempt that died is charged a failure, and every *other* in-flight
      job is resubmitted to a fresh pool without being charged.

    A job that fails :data:`MAX_ATTEMPTS` times raises
    :class:`SweepExecutionError` — a sweep never silently drops a point.

    Args:
        n_workers: worker process count (>= 1).
        task: the callable shipped to workers; injectable for tests.
    """

    #: Optional ``callable(index)`` invoked at submit time (see
    #: :class:`SerialBackend`).  Retried submissions fire it again.
    on_start: Optional[Callable[[int], None]] = None

    def __init__(
        self, n_workers: int, task: Optional[Callable] = None
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1, got %d" % n_workers)
        self.n_workers = n_workers
        self._task = task if task is not None else _timed_run

    def _new_pool(self, n_pending: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=min(self.n_workers, n_pending))

    @staticmethod
    def _backoff_s(failures: int, rng: random.Random) -> float:
        delay = BACKOFF_BASE_S * (2.0 ** max(failures - 1, 0))
        return min(delay, BACKOFF_MAX_S) * (0.5 + rng.random())

    @staticmethod
    def _terminate(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down hard, killing any stuck workers."""
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def execute(
        self, pending: Sequence[IndexedJob]
    ) -> Iterator[Tuple[int, TeamResult, float, int]]:
        if not pending:
            return
        jobs = dict(pending)
        queue = deque(index for index, _ in pending)
        attempts = {index: 0 for index, _ in pending}
        failures = {index: 0 for index, _ in pending}
        # repro: noqa[REP001] seeded per-sweep retry jitter, not sim-facing
        rng = random.Random(BACKOFF_SEED)
        pool = self._new_pool(len(pending))
        futures: Dict[object, int] = {}

        def fail(index: int, cause: BaseException) -> None:
            """Charge one failure; abort the sweep past the budget."""
            failures[index] += 1
            if failures[index] >= MAX_ATTEMPTS:
                raise SweepExecutionError(
                    "job %r failed %d times: %s"
                    % (jobs[index].name, MAX_ATTEMPTS, cause)
                ) from cause
            time.sleep(self._backoff_s(failures[index], rng))
            queue.append(index)

        try:
            while queue or futures:
                while queue:
                    index = queue.popleft()
                    attempts[index] += 1
                    if self.on_start is not None:
                        self.on_start(index)
                    future = pool.submit(self._task, jobs[index])
                    futures[future] = index

                done, _ = wait(set(futures), return_when=FIRST_COMPLETED)

                pool_broken = False
                for future in done:
                    index = futures.pop(future)
                    try:
                        result, wall_s = future.result()
                    except BrokenProcessPool as error:
                        # The attempt that rode the dying worker is
                        # charged; innocent in-flight jobs are not.
                        pool_broken = True
                        fail(index, error)
                    except Exception as error:
                        fail(index, error)
                    else:
                        yield index, result, wall_s, attempts[index]

                if pool_broken:
                    # A dead pool cannot take new work.  Requeue the
                    # in-flight survivors uncharged.
                    for index in futures.values():
                        if index not in queue:
                            queue.append(index)
                    futures.clear()
                    self._terminate(pool)
                    pool = self._new_pool(max(len(queue), 1))
        finally:
            self._terminate(pool)


@dataclass
class SweepOutcome:
    """Everything one sweep produced.

    Attributes:
        jobs: the submitted jobs, in submission order.
        results: one :class:`TeamResult` per job, in the same order.
        report: timing and cache accounting.
    """

    jobs: List[SweepJob]
    results: List[TeamResult]
    report: SweepReport = field(default_factory=SweepReport)

    def by_key(self) -> Dict[object, TeamResult]:
        """Results keyed by each job's ``key`` (jobs must have unique keys)."""
        out: Dict[object, TeamResult] = {}
        for job, result in zip(self.jobs, self.results):
            if job.key in out:
                raise ValueError("duplicate job key %r" % (job.key,))
            out[job.key] = result
        return out


def run_sweep(
    jobs: Sequence[SweepJob],
    n_jobs: int = 1,
    backend: Optional[object] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
    telemetry_path: Optional[str] = None,
) -> SweepOutcome:
    """Execute a sweep, returning results in deterministic job order.

    Args:
        jobs: the scenario runs to perform.
        n_jobs: worker count; > 1 selects the process-pool backend.
            Ignored when ``backend`` is given.
        backend: explicit backend instance (anything with ``n_workers``
            and ``execute(pending)``).
        cache: optional result cache consulted before execution and
            updated after; hits skip simulation entirely.  A sweep-level
            summary line (job counts, hit rate, wall quantiles) is also
            appended to the cache's ``sweeps.jsonl``.
        progress: optional listener for per-job progress and ETA.
        telemetry_path: if given, write one JSONL record per job (its
            telemetry snapshot, wall/CPU time, cache status) plus a final
            sweep-summary record to this path.
    """
    jobs = list(jobs)
    if backend is None:
        backend = (
            ProcessPoolBackend(n_jobs) if n_jobs > 1 else SerialBackend()
        )
    listener = progress if progress is not None else ProgressListener()
    n_workers = getattr(backend, "n_workers", 1)
    listener.sweep_started(len(jobs), n_workers)

    sweep_start = time.perf_counter()
    results: List[Optional[TeamResult]] = [None] * len(jobs)
    records: List[Optional[JobRecord]] = [None] * len(jobs)
    hits = 0
    done = 0
    wall_hist = Histogram("job_wall_s", DURATION_EDGES_S)
    #: index -> perf_counter at submit, for in-flight-aware ETAs.
    in_flight: Dict[int, float] = {}

    def job_started(index: int) -> None:
        in_flight[index] = time.perf_counter()
        listener.job_started(index, jobs[index].name)

    # Only backends that declare the hook get it; stub/test backends
    # without an ``on_start`` attribute are left untouched.
    if hasattr(backend, "on_start"):
        backend.on_start = job_started

    def finish(index: int, record: JobRecord) -> None:
        nonlocal done
        done += 1
        records[index] = record
        listener.job_finished(record, done, len(jobs), eta())

    def eta() -> Optional[float]:
        """Remaining-work estimate that credits in-flight progress.

        A job already running for ``e`` seconds is expected to need
        ``max(mean - e, 0)`` more, not the full mean — without this, the
        ETA jumps up every time a batch of jobs is submitted and decays
        in steps rather than smoothly.
        """
        left = len(jobs) - done
        if left == 0:
            return 0.0
        if wall_hist.count == 0:
            return None
        mean = wall_hist.mean
        now = time.perf_counter()
        running = [t0 for idx, t0 in in_flight.items() if results[idx] is None]
        inflight_s = sum(max(mean - (now - t0), 0.0) for t0 in running)
        queued = left - len(running)
        return (max(queued, 0) * mean + inflight_s) / max(1, n_workers)

    pending: List[IndexedJob] = []
    for index, job in enumerate(jobs):
        cached = cache.get(job.fingerprint) if cache is not None else None
        if cached is not None:
            results[index] = cached
            hits += 1
            finish(
                index,
                JobRecord(name=job.name, wall_s=0.0, cached=True, attempts=0),
            )
        else:
            pending.append((index, job))

    for index, result, wall_s, attempts in backend.execute(pending):
        job = jobs[index]
        results[index] = result
        in_flight.pop(index, None)
        if cache is not None:
            cache.put(job.fingerprint, result)
        wall_hist.observe(wall_s)
        snapshot = getattr(result, "telemetry", None)
        cpu_s = snapshot.get("orchestrator_job_cpu_s") if snapshot else 0.0
        finish(
            index,
            JobRecord(
                name=job.name, wall_s=wall_s, cached=False,
                attempts=attempts, cpu_s=cpu_s,
            ),
        )

    report = SweepReport(
        records=[r for r in records if r is not None],
        total_wall_s=time.perf_counter() - sweep_start,
        cache_hits=hits,
        cache_misses=len(pending),
        n_workers=n_workers,
        job_wall_p50_s=wall_hist.quantile(0.5),
        job_wall_p90_s=wall_hist.quantile(0.9),
    )
    listener.sweep_finished(report)

    sweep_record = {
        "record": "sweep",
        "code_version": CODE_VERSION,
        "jobs": len(jobs),
        "cache_hits": hits,
        "cache_misses": len(pending),
        "retried": report.n_retried,
        "wall_s": round(report.total_wall_s, 3),
        "n_workers": n_workers,
        "job_wall_p50_s": round(report.job_wall_p50_s, 3),
        "job_wall_p90_s": round(report.job_wall_p90_s, 3),
    }
    if cache is not None:
        cache.record_sweep(sweep_record)
    if telemetry_path is not None:
        _write_sweep_telemetry(
            telemetry_path, jobs, results, records, sweep_record
        )
    return SweepOutcome(jobs=jobs, results=[r for r in results], report=report)


def _write_sweep_telemetry(
    path: str,
    jobs: Sequence[SweepJob],
    results: Sequence[object],
    records: Sequence[Optional[JobRecord]],
    sweep_record: dict,
) -> None:
    """Dump per-job snapshots plus the sweep summary as JSONL."""
    lines: List[dict] = []
    for job, result, record in zip(jobs, results, records):
        entry = {
            "record": "job",
            "job": job.name,
            "fingerprint": job.fingerprint,
            "cached": record.cached if record is not None else False,
            "wall_s": round(record.wall_s, 3) if record is not None else 0.0,
            "attempts": record.attempts if record is not None else 0,
        }
        snapshot = getattr(result, "telemetry", None)
        if snapshot is not None:
            entry.update(snapshot.as_record())
        lines.append(entry)
    lines.append(sweep_record)
    write_jsonl(path, lines)
