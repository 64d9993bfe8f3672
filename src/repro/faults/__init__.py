"""Composable fault injection and graceful-degradation defenses.

The package splits cleanly into three layers:

- :mod:`repro.faults.spec` — frozen, hashable *descriptions* of faults
  (:class:`FaultPlan`) and defenses (:class:`DefenseConfig`) that ride
  inside :class:`~repro.core.config.CoCoAConfig`;
- :mod:`repro.faults.models` — the seeded stochastic processes behind
  each fault (Gilbert-Elliott bursts, calibration drift, brownout
  windows, bit-flip corruption);
- :mod:`repro.faults.injector` — the :class:`FaultInjector` the channel
  and team consult at runtime.

A default-constructed :class:`FaultPlan` is a no-op: the team skips the
injector entirely and the simulation is bit-identical to a build without
this package.
"""
