"""Transmission power control study (§6).

    "We are also interested in determining how transmission power control
    can be used to increase the distance that nodes in the CoCoA
    architecture can cooperate."

Raising transmit power shifts the whole RSSI curve up: the communication
range grows, more anchors become audible, but the per-packet transmit
energy grows with it.  :func:`run_power_sweep` re-runs the calibration and
the headline scenario for each power offset and reports range, accuracy
and energy, exposing the trade-off the paper asks about.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.config import CoCoAConfig
from repro.core.team import CoCoATeam
from repro.experiments.metrics import summarize_errors


@dataclass(frozen=True)
class PowerControlPoint:
    """One row of the power-control study.

    Attributes:
        power_delta_db: transmit power offset relative to the default.
        range_m: distance at which the mean RSSI meets the receiver's
            sensitivity.
        time_average_error_m: CoCoA localization error at this power.
        total_energy_j: team energy (transmit cost scales with power).
        beacons_delivered: beacons that actually reached a receiver.
    """

    power_delta_db: float
    range_m: float
    time_average_error_m: float
    total_energy_j: float
    beacons_delivered: int


def _tx_energy_scale(power_delta_db: float) -> float:
    """Transmit power in watts scales linearly with the mW level; the PA
    dominates, so per-packet send cost scales with the same ratio."""
    return 10.0 ** (power_delta_db / 10.0)


def run_power_sweep(
    power_deltas_db: Sequence[float] = (-6.0, 0.0, 6.0),
    base_config: Optional[CoCoAConfig] = None,
    duration_s: float = 600.0,
) -> List[PowerControlPoint]:
    """Run the CoCoA scenario at several transmit power levels.

    Each level gets its own channel model (the RSSI curve shifts by the
    power delta), its own calibration table (the paper's offline phase is
    per-hardware-configuration), and a transmit-cost-scaled energy model.
    """
    if base_config is None:
        base_config = CoCoAConfig(duration_s=duration_s)
    points: List[PowerControlPoint] = []
    for delta in power_deltas_db:
        base_pl = base_config.path_loss
        path_loss = replace(
            base_pl, rssi_at_1m_dbm=base_pl.rssi_at_1m_dbm + delta
        )
        scale = _tx_energy_scale(delta)
        energy_model = replace(
            base_config.energy_model,
            tx_power_mw=base_config.energy_model.tx_power_mw * scale,
            send_cost_per_byte_uj=(
                base_config.energy_model.send_cost_per_byte_uj * scale
            ),
            send_cost_fixed_uj=(
                base_config.energy_model.send_cost_fixed_uj * scale
            ),
        )
        config = replace(
            base_config,
            path_loss=path_loss,
            energy_model=energy_model,
            duration_s=duration_s,
        )
        team = CoCoATeam(config)
        result = team.run()
        range_m = path_loss.distance_for_mean_rssi(
            config.receiver.sensitivity_dbm
        )
        summary = summarize_errors(
            result.errors,
            skip_first_s=min(config.beacon_period_s, duration_s / 2),
        )
        points.append(
            PowerControlPoint(
                power_delta_db=delta,
                range_m=range_m,
                time_average_error_m=summary.time_average_m,
                total_energy_j=result.total_energy_j(),
                beacons_delivered=result.channel_stats.frames_delivered,
            )
        )
    return points
