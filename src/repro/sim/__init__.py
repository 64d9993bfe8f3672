"""Discrete-event simulation kernel.

This package replaces the GloMoSim substrate the paper runs on.  It provides:

- :class:`~repro.sim.engine.Simulator` — a deterministic event-driven
  scheduler with a floating-point clock in seconds,
- :class:`~repro.sim.engine.Event` handles that can be cancelled or
  rescheduled,
- :class:`~repro.sim.timers.PeriodicTimer` — a fixed-period timer; the
  team's metric sampling is its only user (beacon periods run on each
  robot's drifting clock in the coordinator),
- :class:`~repro.sim.rng.RandomStreams` — named, independently seeded random
  streams so that e.g. mobility noise and RF shadowing are decoupled and
  every run is exactly reproducible from one master seed.

Tracing is not part of the kernel: simulation spans and the channel's
``channel.*`` events go to :class:`~repro.telemetry.spans.SpanTracer`,
stamped with the engine's clock by the caller.
"""
