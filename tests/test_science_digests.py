"""Golden science digests: fixed seeds must keep producing the same bytes.

Every case below runs a tiny scenario end to end and hashes its science
payload (everything a figure can read from a run).  The expected
SHA-256 values are committed, so any change to the simulator that moves
a single bit of a result -- an RNG draw taken in a different order, a
float sum regrouped, an event fired out of turn -- fails here, whatever
code path produced it.

Each (preset, seed) cell is pinned twice: with the LUT density kernel
on (the default) and off (the exact density evaluation).  A further
case turns on rich telemetry and ``channel.rx`` tracing, which must
observe a run without changing it.

Regenerate the table (only when a science change is intended) with::

    PYTHONPATH=src python -m tests.test_science_digests
"""

import hashlib
from dataclasses import replace

import pytest

from repro.core.config import CoCoAConfig, LocalizationMode
from repro.core.team import CoCoATeam
from repro.experiments.resilience import DEFENDED_DEFAULTS, example_fault_plan
from repro.kernels import KernelConfig
from repro.telemetry.collect import Telemetry
from repro.util.geometry import Rect

SEEDS = (1, 2, 3)

#: The CI-sized shape every case shares: few robots, short run, but an
#: area wider than carrier-sense range and a 1 s beacon window, so hidden
#: terminals collide, radios sleep mid-frame and transmit over incoming
#: frames -- every delivery branch is exercised (pinned below).
TINY = CoCoAConfig(
    area=Rect.square(200.0),
    n_robots=20,
    n_anchors=10,
    beacon_period_s=20.0,
    transmit_window_s=1.0,
    duration_s=90.0,
    calibration_samples=6000,
)

PRESETS = {
    "cocoa": {},
    "rf_only": dict(localization_mode=LocalizationMode.RF_ONLY),
    "odometry_only": dict(localization_mode=LocalizationMode.ODOMETRY_ONLY),
    "no_coordination": dict(coordination=False),
    "faults_defended": dict(
        faults=example_fault_plan(1.0), defenses=DEFENDED_DEFAULTS
    ),
    "faults_undefended": dict(faults=example_fault_plan(1.0)),
}

LUT_MODES = {"lut": True, "exact": False}

#: (preset, seed, LUT mode) -> SHA-256 of the science payload.
GOLDEN = {
    ("cocoa", 1, "exact"):
        "6b4649d3066105e2cc004c35f24bba48902db136c8580c5f003374684537eecd",
    ("cocoa", 1, "lut"):
        "6398b614573d7e5bd91787808335fc198f8b60ba8997dd7d6b694e4ad517f2fd",
    ("cocoa", 2, "exact"):
        "8daafd3fa953d1dd7e63884f53571783112210c2abed7805ee1fa4e4bce6e1f8",
    ("cocoa", 2, "lut"):
        "6b12f6b05a0c4c7e508458a048288e6363ffb347a677d0d551512c96daf5ac38",
    ("cocoa", 3, "exact"):
        "604196ed1072d8ea8296ebf91a1b2ec70c816038587e6ba864953af34adafdaf",
    ("cocoa", 3, "lut"):
        "a47788f370cd15544a76232d84d51108b380c70b3d2ce14609b9e2359ee0fd34",
    ("faults_defended", 1, "exact"):
        "28a8006befd52aa8464a419adc9464ec580532ee0a02e48d8ac8f22b0db1d468",
    ("faults_defended", 1, "lut"):
        "c267b7a85ce6d63691f114fd835f1091e74304102c7bec84aaa17b3bb87df732",
    ("faults_defended", 2, "exact"):
        "3e6a04a2d7a6e94c4b5862ba306d20980f8e3c1b46fa8644b88d7803a4427815",
    ("faults_defended", 2, "lut"):
        "564be6b315890576dcea0213290ec436a61aa68aefb7ede24c2a2a5306664fbc",
    ("faults_defended", 3, "exact"):
        "b4564218f214332da9c73e1aefab0b667f56a6c9b9ae18d2a69e7493a86bb446",
    ("faults_defended", 3, "lut"):
        "9017d62dec8dc8dd556389f1e7b853d50b3880150fa12d6bc134324a2824ca30",
    ("faults_undefended", 1, "exact"):
        "f9ab5dd66d8d071902a3b6b2d047b363039a4281e018f65b9e0b57ad6a735465",
    ("faults_undefended", 1, "lut"):
        "a4d26d164feb261ef2f273c2539959017568552cf399742881a9b8032c606b20",
    ("faults_undefended", 2, "exact"):
        "ec72d0b13b6cecf7b74333a1da9e03526890d9edc204c89e5ea244dcf7f01d66",
    ("faults_undefended", 2, "lut"):
        "7b9cfea724a724f537d290cf197604c6fa12c1e794d329b831f874a59b6b5b84",
    ("faults_undefended", 3, "exact"):
        "c9df28e711c0189cde4b5ec4418b277eeeac0fc273c0baad22c6c543e8eb7bf3",
    ("faults_undefended", 3, "lut"):
        "922b873d247ede8436e439f056307e8c253e503daed580680c264122f21387e7",
    ("no_coordination", 1, "exact"):
        "746c25c56ceb3ea411fcae0ee400d54fcb858d7b3e98719ef69879ad17302a7e",
    ("no_coordination", 1, "lut"):
        "c31d0087c023b1a77902de9f35bfe4879ff8534a5543d80da94603386d812928",
    ("no_coordination", 2, "exact"):
        "50f3a00c35bf4bd1341ba2fc4cbffec1c1519cdcb8dcc42088bdb10f18459559",
    ("no_coordination", 2, "lut"):
        "0f8821e388a3cfd5ddab14f283754ae6ed21b115b34900726d4039f716b49a20",
    ("no_coordination", 3, "exact"):
        "318819f7483a47ea9d9f3ab2bd972fa7b9af4bfbc4c3d3d173808e8b63494337",
    ("no_coordination", 3, "lut"):
        "7ee81748e91313e4ce04f31899b6da165203947e2be9acce50340df4dd70b7ca",
    ("odometry_only", 1, "exact"):
        "f3a743455efdb13a6662820edacba133acc28fec69e415aaf43a18598bf06c0c",
    ("odometry_only", 1, "lut"):
        "f3a743455efdb13a6662820edacba133acc28fec69e415aaf43a18598bf06c0c",
    ("odometry_only", 2, "exact"):
        "59b101cf2a689997e88d6f674d6b1872c71998d623cc4e94c4deeac4448c0919",
    ("odometry_only", 2, "lut"):
        "59b101cf2a689997e88d6f674d6b1872c71998d623cc4e94c4deeac4448c0919",
    ("odometry_only", 3, "exact"):
        "e5b4ba38a58d6fdf854ed756f06fa51730abe1a5f42fcc01a1bba287882622b2",
    ("odometry_only", 3, "lut"):
        "e5b4ba38a58d6fdf854ed756f06fa51730abe1a5f42fcc01a1bba287882622b2",
    ("rf_only", 1, "exact"):
        "c2d1785a11cf60b962a32ea66cdcb5468d194e5f1e9bb05a1db14f09b69fd348",
    ("rf_only", 1, "lut"):
        "502f0b78979efc94bc107b25dc74e6309fb9265eb2d5ec99c77f9a8e70b503c7",
    ("rf_only", 2, "exact"):
        "f6ddab09c20cfed31f9e257a218bebc33301a93cd93b231cd68be3ed81cc6b79",
    ("rf_only", 2, "lut"):
        "bab5854d5b98b9125378f53563c181b99c1d3aba9a34a3559f322bc26eb0e41b",
    ("rf_only", 3, "exact"):
        "68d7cf07c3cba8d96afa61433451c59e3be81208cf5efa199864ce6c0ee08def",
    ("rf_only", 3, "lut"):
        "306dec5cf625fb78faa69d301379ae4b8c6c76c28011cbd09cafe55a3119d95a",
}


def science_payload(result):
    """Everything a figure can read from a run, in byte-comparable form."""
    return (
        result.errors.tobytes(),
        result.measured_ids,
        result.fixes,
        sorted(result.per_node_energy_j.items()),
        repr(result.channel_stats),
        repr(result.multicast_stats),
        result.total_energy_j(),
    )


def science_digest(result):
    return hashlib.sha256(
        repr(science_payload(result)).encode("utf-8")
    ).hexdigest()


def run_case(preset, seed, lut, observed=False):
    config = replace(TINY, master_seed=seed, **PRESETS[preset])
    team = CoCoATeam(
        config,
        kernels=KernelConfig(lut_pdf=LUT_MODES[lut]),
        telemetry=Telemetry.enabled() if observed else None,
    )
    if observed:
        team.channel._trace.enable("channel.rx")
    return team, team.run()


@pytest.mark.parametrize("lut", sorted(LUT_MODES))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_digest_matches_golden(preset, seed, lut):
    _, result = run_case(preset, seed, lut)
    assert science_digest(result) == GOLDEN[(preset, seed, lut)]


@pytest.mark.parametrize("preset", ["cocoa", "faults_defended"])
def test_telemetry_and_rx_tracing_change_nothing(preset):
    team, result = run_case(preset, 1, "lut", observed=True)
    assert team.channel._trace.count("channel.rx") > 0
    assert science_digest(result) == GOLDEN[(preset, 1, "lut")]


def test_cases_exercise_every_delivery_branch():
    """The pinned cells must actually reach the branches they pin."""
    _, defended = run_case("faults_defended", 2, "lut")
    _, undefended = run_case("faults_undefended", 2, "lut")
    stats = defended.channel_stats
    assert stats.frames_below_sensitivity > 0
    assert stats.frames_collided > 0
    assert stats.frames_missed_asleep > 0
    assert stats.frames_missed_half_duplex > 0
    assert stats.frames_jammed > 0
    assert stats.frames_missed_brownout > 0
    assert stats.frames_crc_dropped > 0
    assert undefended.channel_stats.frames_corrupted > 0


if __name__ == "__main__":
    print("GOLDEN = {")
    for preset in sorted(PRESETS):
        for seed in SEEDS:
            for lut in sorted(LUT_MODES):
                _, result = run_case(preset, seed, lut)
                print(
                    '    ("%s", %d, "%s"):\n        "%s",'
                    % (preset, seed, lut, science_digest(result))
                )
    print("}")
