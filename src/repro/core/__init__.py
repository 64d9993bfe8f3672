"""The CoCoA core: cooperative localization + energy-efficient coordination.

This package implements the paper's primary contribution (§2):

- **Calibration** (:mod:`repro.core.calibration`): the offline phase that
  measures the channel and builds the *PDF Table* mapping every RSSI value
  to a probability density over distance.
- **Cooperative localization** (:mod:`repro.core.bayes`,
  :mod:`repro.core.estimator`): the grid-based Bayesian inference algorithm
  (Sichitiu & Ramadurai adapted to mobile robots) — Equations (1)-(3) —
  combined with odometry dead reckoning between beacon rounds.
- **Energy-efficient coordination** (:mod:`repro.core.coordinator`): the
  beacon-period/transmit-window schedule (``T``, ``t``, ``k``), radio sleep
  control, drifting local clocks, and SYNC dissemination over MRMM from a
  designated Sync robot.
- **Team orchestration** (:mod:`repro.core.team`): builds a complete
  simulated robot team from a :class:`~repro.core.config.CoCoAConfig` and
  runs the paper's scenarios.
"""
