"""The 802.11b-style wireless network substrate.

This package replaces GloMoSim's radio stack with the pieces the paper's
evaluation needs:

- :mod:`repro.net.packet` — frames with IP+UDP headers (20 bytes each, §2.3)
  and typed payloads,
- :mod:`repro.net.phy` — log-distance path loss with the paper's two-regime
  RSSI noise (Gaussian within 40 m, multipath-distorted beyond, Figure 1),
- :mod:`repro.net.radio` — the radio state machine (TX/RX/IDLE/SLEEP/OFF)
  wired to an :class:`~repro.energy.meter.EnergyMeter`,
- :mod:`repro.net.channel` — the shared broadcast medium with per-receiver
  delivery, SINR capture and collision handling,
- :mod:`repro.net.mac` — a CSMA/CA broadcast MAC at 2 Mbps,
- :mod:`repro.net.interface` — the per-node facade protocols talk to.
"""
