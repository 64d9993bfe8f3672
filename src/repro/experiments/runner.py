"""Scenario execution helper.

Every run calibrates its own PDF Table from the config's ``calibration``
stream (see :class:`~repro.core.team.CoCoATeam`), so a scenario's result
is a pure function of its config.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import CoCoAConfig
from repro.core.team import CoCoATeam, TeamResult
from repro.telemetry.collect import Telemetry


def run_scenario(
    config: CoCoAConfig, telemetry: Optional[Telemetry] = None
) -> TeamResult:
    """Build and run one scenario.

    Args:
        config: the scenario.
        telemetry: optional rich-instrumentation handle, passed through
            to the team (never part of the config — see
            :class:`~repro.core.team.CoCoATeam`).
    """
    return CoCoATeam(config, telemetry=telemetry).run()
