"""Extensions: the paper's §6 future-work directions, implemented.

- :mod:`repro.ext.promotion` — "use the robots that do not have
  localization devices but are already localized to also initiate
  beaconing", with the confidence gate the paper worries about ("it is
  hard to ascertain the goodness of the location a particular node has").
- :mod:`repro.ext.power_control` — transmission power control: how raising
  or lowering transmit power moves the communication range, the calibrated
  PDF Table, localization accuracy and energy.
- :mod:`repro.ext.georouting` — greedy geographic routing over CoCoA
  coordinates, the application the conclusion motivates ("CoCoA
  coordinates are good enough to enable scalable geographic routing").
- :mod:`repro.ext.failures` — robot failure injection and Sync-robot
  failover, the robustness story the single-Sync-robot design needs in
  the paper's disaster scenarios.
"""
