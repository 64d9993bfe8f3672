"""repro.lint — AST-based determinism & async-safety linter.

Statically enforces the simulation contract the reproduction's results
rest on (see DESIGN.md, "Determinism contract"): seeded named RNG
streams only (REP001), no wall-clock reads in sim code (REP002), no
unsorted set iteration in result-producing code (REP003), no exact
float equality (REP004), no mutable default arguments (REP005), frozen
specs mutated only in ``__post_init__`` (REP006), and no blanket
``except`` in the engine/channel hot paths (REP007).

The ``ASY`` family enforces the serve stack's concurrency contract
(see DESIGN.md, "Concurrency contract for repro.serve"): no blocking
calls on the event loop (ASY001), no dropped task/coroutine handles
(ASY002), no ``await`` under a sync lock (ASY003), no module-global
mutable state crossing the shard queue boundary (ASY004), injected
clocks only in ``repro.serve`` (ASY005), and no deprecated
loop-ambient asyncio APIs (ASY006).  :mod:`repro.lint.sanitize` is the
runtime counterpart: ``repro lint --sanitize`` re-runs the asyncio
suites in debug mode and promotes blocked-loop / lost-task warnings
(SAN001-SAN003) to failures.

Run it as ``python -m repro lint src tests`` or programmatically::

    from repro.lint.runner import lint_paths
    report = lint_paths(["src"])
    assert report.exit_code == 0, [f.format() for f in report.findings]

Suppress a deliberate deviation inline, justification mandatory::

    rng = random.Random(seed)  # repro: noqa[REP001] seeded backoff jitter
"""
