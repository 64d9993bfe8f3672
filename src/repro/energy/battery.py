"""Battery model and team-lifetime projection.

The paper motivates coordination by energy, but never converts joules to
mission time.  This module closes that loop: given each node's measured
consumption *rate* and a battery capacity, project how long the team
survives — with the usual fleet-level definitions (first death, half
dead, communication-energy-only vs whole-robot budgets).

A WaveLAN-era laptop battery stores on the order of 100-200 kJ; the
defaults model a 2000 mAh pack at 11.1 V ≈ 80 kJ, of which a share is
budgeted to communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.util.validation import check_in_range, check_positive


@dataclass(frozen=True)
class Battery:
    """An energy budget for one robot's radio.

    Attributes:
        capacity_j: usable pack energy in joules.
        radio_share: fraction of the pack budgeted to communication (the
            rest drives motors and compute).
    """

    capacity_j: float = 80_000.0
    radio_share: float = 0.25

    def __post_init__(self) -> None:
        check_positive("capacity_j", self.capacity_j)
        check_in_range("radio_share", self.radio_share, 0.01, 1.0)

    @property
    def radio_budget_j(self) -> float:
        """Joules available for the wireless interface."""
        return self.capacity_j * self.radio_share


@dataclass(frozen=True)
class LifetimeProjection:
    """Projected team lifetime under a measured consumption profile.

    Attributes:
        node_lifetimes_s: per-node projected radio lifetime, seconds.
        first_death_s: when the first robot's radio budget runs out —
            the conservative "mesh starts degrading" point.
        half_team_s: when half the team is out.
        last_death_s: when the last robot dies.
    """

    node_lifetimes_s: Dict[int, float]
    first_death_s: float
    half_team_s: float
    last_death_s: float


def project_lifetime(
    per_node_energy_j: Dict[int, float],
    measured_duration_s: float,
    battery: Battery = Battery(),
) -> LifetimeProjection:
    """Extrapolate measured consumption to battery exhaustion.

    Assumes the measured interval is representative steady state (true
    for CoCoA once the periodic schedule is running).

    Args:
        per_node_energy_j: joules each node consumed during the run.
        measured_duration_s: length of the measured run.
        battery: the per-robot energy budget.

    Raises:
        ValueError: on an empty profile or non-positive duration.
    """
    if not per_node_energy_j:
        raise ValueError("per_node_energy_j is empty")
    check_positive("measured_duration_s", measured_duration_s)
    lifetimes: Dict[int, float] = {}
    for node_id, consumed in per_node_energy_j.items():
        if consumed <= 0.0:
            lifetimes[node_id] = float("inf")
            continue
        rate_w = consumed / measured_duration_s
        lifetimes[node_id] = battery.radio_budget_j / rate_w
    ordered: List[float] = sorted(lifetimes.values())
    return LifetimeProjection(
        node_lifetimes_s=lifetimes,
        first_death_s=ordered[0],
        half_team_s=ordered[len(ordered) // 2],
        last_death_s=ordered[-1],
    )
