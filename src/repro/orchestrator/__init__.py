"""Sweep orchestration: declarative jobs, parallel execution, result cache.

Every evaluation in the paper — Figures 4 to 10 and the MRMM ablation —
is a parameter sweep over independent scenario runs.  This package turns
those hand-rolled loops into declarative :class:`~repro.orchestrator.jobs.SweepJob`
lists executed by :func:`~repro.orchestrator.executor.run_sweep`, which

- fans jobs out across cores (serial or ``ProcessPoolExecutor`` backends),
- memoizes finished runs in a content-addressed on-disk cache keyed by a
  canonical hash of the :class:`~repro.core.config.CoCoAConfig`, and
- reports per-job wall-clock timing, progress/ETA and cache accounting.

Results come back in deterministic job order regardless of completion
order, and parallel execution is bit-identical to serial execution
because every scenario derives all randomness from its own master seed.
"""
