"""Pinned bytes for the motion paths the golden digests do not cover.

``tests/test_science_digests.py`` pins plain teams.  Two more producers
run the odometer and the dead reckoner: a failure-injection team, whose
dead robots record NaN and stop sampling mid-run, and the Figure 5
runner, which drives one robot along a scripted path.  Their outputs
are pinned here so any rework of the motion code must keep them to the
bit.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.core.config import LocalizationMode
from repro.experiments.figures import run_fig5
from repro.ext.failures import FailureSchedule, ResilientTeam
from tests.test_science_digests import TINY, science_digest

#: One measured robot (id 14) and one anchor (id 3) die mid-run.
SCHEDULE = FailureSchedule.of((35.0, 14), (52.5, 3))

#: (localization mode, master seed) -> SHA-256 of the science payload.
FAILURE_GOLDEN = {
    ("cocoa", 1):
        "ed8a5da9f96be0c3718e988ecac42c18f0b63522be6ab055bf2dcb475f164c88",
    ("cocoa", 2):
        "af22545148a77d1ce56226ecdcb0a2fbd7b47b9d8a7ca4a05e6a0f4332f974cd",
    ("odometry_only", 1):
        "32c2dacb648613a1a9d0263d4eb33a98febf2fa90b9bea268abf6bb98a9d8ea2",
}

#: SHA-256 of run_fig5()["errors"].tobytes() and final_error_m.hex(),
#: per (speed, master seed).
FIG5_GOLDEN = {
    (1.0, 1): (
        "30b520f6360a3877a205632883af3d0141244327683399c1fd27cc5f2946de05",
        "0x1.62ca4fb37ec8ap+2",
    ),
    (2.0, 5): (
        "aa35446c6dacbe27f252da2c0758b2fe0d7eb99b79684c5759040ede8f93c807",
        "0x1.915f05fcc512ap+5",
    ),
}


def run_failure_case(mode, seed):
    config = replace(
        TINY, master_seed=seed, localization_mode=LocalizationMode(mode)
    )
    team = ResilientTeam(config, SCHEDULE, failover=True)
    return team, team.run()


@pytest.mark.parametrize("mode,seed", sorted(FAILURE_GOLDEN))
def test_failure_team_digest(mode, seed):
    team, result = run_failure_case(mode, seed)
    assert team.dead == {3, 14}
    assert science_digest(result) == FAILURE_GOLDEN[(mode, seed)]


def fig5_digest(speed, seed):
    out = run_fig5(speed=speed, master_seed=seed)
    return (
        hashlib.sha256(out["errors"].tobytes()).hexdigest(),
        float(out["final_error_m"]).hex(),
    )


@pytest.mark.parametrize("speed,seed", sorted(FIG5_GOLDEN))
def test_fig5_payload(speed, seed):
    assert fig5_digest(speed, seed) == FIG5_GOLDEN[(speed, seed)]


if __name__ == "__main__":
    for mode, seed in sorted(FAILURE_GOLDEN):
        _, result = run_failure_case(mode, seed)
        print((mode, seed), science_digest(result))
    for speed, seed in sorted(FIG5_GOLDEN):
        print((speed, seed), fig5_digest(speed, seed))
