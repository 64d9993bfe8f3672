"""Timing, progress and summary reporting for sweeps.

:class:`SweepReport` is the quantitative record of one
:func:`~repro.orchestrator.executor.run_sweep` call: per-job wall-clock
times, which jobs were answered from cache, and the sweep's total wall
time.  :class:`ProgressListener` is the callback interface the executor
drives while jobs run; :class:`ProgressPrinter` is the stock
implementation that prints one line per finished job with a running ETA.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import List, Optional, TextIO

from repro.telemetry.registry import DURATION_EDGES_S, Histogram


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one job.

    Attributes:
        name: the job's label.
        wall_s: execution wall-clock seconds (0.0 for cache hits).
        cached: True if the result came from the cache.
        attempts: times the job was submitted to a worker before the
            result landed (0 for cache hits, 1 for a clean run, more
            after retries or pool crashes).
        cpu_s: CPU seconds the job burned in its worker (0.0 for cache
            hits, or when the result carries no telemetry snapshot).
    """

    name: str
    wall_s: float
    cached: bool
    attempts: int = 1
    cpu_s: float = 0.0


@dataclass
class SweepReport:
    """Aggregate record of one sweep execution (jobs in submission order)."""

    records: List[JobRecord] = field(default_factory=list)
    total_wall_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    n_workers: int = 1
    #: p50/p90 of executed-job wall times (0.0 until any job executed).
    job_wall_p50_s: float = 0.0
    job_wall_p90_s: float = 0.0

    @property
    def n_jobs(self) -> int:
        return len(self.records)

    @property
    def n_executed(self) -> int:
        """Jobs that actually ran a simulation (cache misses)."""
        return sum(1 for r in self.records if not r.cached)

    @property
    def n_retried(self) -> int:
        """Jobs that needed more than one submission."""
        return sum(1 for r in self.records if r.attempts > 1)

    @property
    def executed_wall_s(self) -> float:
        """Summed per-job wall time (CPU-side cost, ignores overlap)."""
        return sum(r.wall_s for r in self.records if not r.cached)

    @property
    def speedup(self) -> float:
        """Summed job time over sweep wall time (> 1 means overlap won)."""
        if self.total_wall_s <= 0.0:
            return 1.0
        return self.executed_wall_s / self.total_wall_s

    def format_summary(self) -> str:
        """One-line human summary for CLI output and logs."""
        parts = [
            "%d jobs" % self.n_jobs,
            "%d executed" % self.n_executed,
            "%d cached" % self.cache_hits,
            "wall %.1fs" % self.total_wall_s,
        ]
        if self.n_retried:
            parts.append("%d retried" % self.n_retried)
        if self.n_workers > 1:
            parts.append(
                "%d workers (%.1fx speedup)" % (self.n_workers, self.speedup)
            )
        return ", ".join(parts)


class ProgressListener:
    """Callback interface driven by the executor; all methods optional."""

    def sweep_started(self, n_jobs: int, n_workers: int) -> None:
        """Called once before any job runs."""

    def job_started(self, index: int, name: str) -> None:
        """Called when a job is handed to a worker (never for cache hits).

        Backends without submit-time hooks may not drive this; listeners
        must tolerate never hearing it.
        """

    def job_finished(
        self,
        record: JobRecord,
        done: int,
        total: int,
        eta_s: Optional[float],
    ) -> None:
        """Called after each job (executed or cache hit) completes.

        Args:
            record: the finished job's outcome.
            done: jobs completed so far, including this one.
            total: total jobs in the sweep.
            eta_s: estimated seconds until the sweep finishes, or ``None``
                before any timing signal exists.
        """

    def sweep_finished(self, report: SweepReport) -> None:
        """Called once after the last job."""


class ProgressPrinter(ProgressListener):
    """Prints one status line per finished job, with a running ETA.

    Executed wall times feed a fixed-bucket telemetry
    :class:`~repro.telemetry.registry.Histogram`; once two jobs have
    executed, each line carries the running p50/p90 so a long sweep's
    spread (stragglers, bimodal configs) is visible while it runs.
    """

    def __init__(self, out: Optional[TextIO] = None) -> None:
        self.out = out if out is not None else sys.stderr
        self._walls = Histogram("job_wall_s", DURATION_EDGES_S)

    def sweep_started(self, n_jobs: int, n_workers: int) -> None:
        print(
            "sweep: %d jobs on %d worker%s"
            % (n_jobs, n_workers, "" if n_workers == 1 else "s"),
            file=self.out,
            flush=True,
        )

    def job_finished(self, record, done, total, eta_s) -> None:
        status = "cached" if record.cached else "%.1fs" % record.wall_s
        if not record.cached:
            self._walls.observe(record.wall_s)
        quantiles = ""
        if self._walls.count >= 2:
            quantiles = "  p50 %.1fs p90 %.1fs" % (
                self._walls.quantile(0.5),
                self._walls.quantile(0.9),
            )
        eta = "" if eta_s is None else "  eta %.0fs" % eta_s
        print(
            "  [%*d/%d] %-32s %s%s%s"
            % (len(str(total)), done, total, record.name, status, quantiles,
               eta),
            file=self.out,
            flush=True,
        )

    def sweep_finished(self, report: SweepReport) -> None:
        print("sweep done: %s" % report.format_summary(), file=self.out,
              flush=True)
