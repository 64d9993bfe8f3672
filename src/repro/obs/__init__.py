"""repro.obs — wall-clock observability for the serving stack.

This package holds the code that reads the wall clock: it reads
relative timers (legal under REP002 outside the sim packages), mints
trace ids, and records ``wall``-clock spans — none of which may ever
touch a science payload.  The span record, its bounded ring and the
JSONL/Perfetto exporters are shared with the simulator's tracer and
live in :mod:`repro.telemetry`; they read no clock.  The serve layer
threads one :class:`RequestTracer`, built from ``ServeConfig``'s trace
settings, through its request path the way it threads a
:class:`~repro.telemetry.registry.MetricsRegistry`: mode ``off`` makes
every hook a ``None`` check, and the replay gate proves it byte-inert
in every mode (``tests/test_serve_replay.py`` runs the 3-seed
service-vs-batch comparison with tracing off, always-on and sampled).

Pieces:

- :mod:`~repro.obs.trace` — trace ids, per-request :class:`ActiveTrace`
  span accumulation and the head/tail-sampling :class:`RequestTracer`.
- :mod:`~repro.obs.oplog` — the structured ops event log
  (:class:`OpsLog`): supervisor restarts, evictions, rehydrations,
  each tagged with trace/rid/tenant correlation ids when known.
- :mod:`~repro.obs.summary` — per-hop latency attribution tables and
  the ``repro trace summarize`` / ``slowest`` views.
"""
