"""Golden science digests: fixed seeds must keep producing the same bytes.

Every case below runs a tiny scenario end to end and hashes its science
payload (everything a figure can read from a run).  The expected
SHA-256 values are committed, so any change to the simulator that moves
a single bit of a result -- an RNG draw taken in a different order, a
float sum regrouped, an event fired out of turn -- fails here, whatever
code path produced it.

Each (preset, seed) cell is pinned once, in two tables: ``GOLDEN`` hashes
the science payload, which carries each node's total joules only;
``ENERGY_GOLDEN`` hashes the energy split behind those totals
(per-cause joules, per-state seconds, packet and transition counts).  A
further case turns on rich telemetry and ``channel.rx`` tracing, which
must observe a run without changing it.

``CALIBRATION_GOLDEN`` pins the offline calibration phase on its own:
every fitted bin of a few PDF-Table builds, and the channel's array
RSSI draws that Fig. 1 reads directly.  A table passed into a team never
shows in a science payload, so a regrouped fit would otherwise only
surface as a moved figure.

Regenerate the tables (only when a science change is intended) with::

    PYTHONPATH=src python -m tests.test_science_digests
"""

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.calibration import build_pdf_table
from repro.core.config import CoCoAConfig, LocalizationMode
from repro.core.team import CoCoATeam
from repro.experiments.resilience import DEFENDED_DEFAULTS, example_fault_plan
from repro.net.phy import PathLossModel, ReceiverModel
from repro.sim.rng import RandomStreams
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

#: (preset, seed) -> SHA-256 of the science payload.
GOLDEN = {
    ("cocoa", 1):
        "6398b614573d7e5bd91787808335fc198f8b60ba8997dd7d6b694e4ad517f2fd",
    ("cocoa", 2):
        "6b12f6b05a0c4c7e508458a048288e6363ffb347a677d0d551512c96daf5ac38",
    ("cocoa", 3):
        "a47788f370cd15544a76232d84d51108b380c70b3d2ce14609b9e2359ee0fd34",
    ("faults_defended", 1):
        "c267b7a85ce6d63691f114fd835f1091e74304102c7bec84aaa17b3bb87df732",
    ("faults_defended", 2):
        "564be6b315890576dcea0213290ec436a61aa68aefb7ede24c2a2a5306664fbc",
    ("faults_defended", 3):
        "9017d62dec8dc8dd556389f1e7b853d50b3880150fa12d6bc134324a2824ca30",
    ("faults_undefended", 1):
        "a4d26d164feb261ef2f273c2539959017568552cf399742881a9b8032c606b20",
    ("faults_undefended", 2):
        "7b9cfea724a724f537d290cf197604c6fa12c1e794d329b831f874a59b6b5b84",
    ("faults_undefended", 3):
        "922b873d247ede8436e439f056307e8c253e503daed580680c264122f21387e7",
    ("no_coordination", 1):
        "c31d0087c023b1a77902de9f35bfe4879ff8534a5543d80da94603386d812928",
    ("no_coordination", 2):
        "0f8821e388a3cfd5ddab14f283754ae6ed21b115b34900726d4039f716b49a20",
    ("no_coordination", 3):
        "7ee81748e91313e4ce04f31899b6da165203947e2be9acce50340df4dd70b7ca",
    ("odometry_only", 1):
        "f3a743455efdb13a6662820edacba133acc28fec69e415aaf43a18598bf06c0c",
    ("odometry_only", 2):
        "59b101cf2a689997e88d6f674d6b1872c71998d623cc4e94c4deeac4448c0919",
    ("odometry_only", 3):
        "e5b4ba38a58d6fdf854ed756f06fa51730abe1a5f42fcc01a1bba287882622b2",
    ("rf_only", 1):
        "502f0b78979efc94bc107b25dc74e6309fb9265eb2d5ec99c77f9a8e70b503c7",
    ("rf_only", 2):
        "bab5854d5b98b9125378f53563c181b99c1d3aba9a34a3559f322bc26eb0e41b",
    ("rf_only", 3):
        "306dec5cf625fb78faa69d301379ae4b8c6c76c28011cbd09cafe55a3119d95a",
}

#: (preset, seed) -> SHA-256 of the energy split (see energy_digest).
#: Equal rows are expected: the localization mode and the defenses do
#: not touch the radio, and an odometry-only run's radio timeline does
#: not depend on the seed.
ENERGY_GOLDEN = {
    ("cocoa", 1):
        "dd97c076893f51b3371308c7059bd589de62cacd004527225cec7347b78f771f",
    ("cocoa", 2):
        "2783f0d70384dfda0dfae48acae6acffbeadec353ffbca5203aae7e7acd33747",
    ("cocoa", 3):
        "dd94e96c3b4c8aaec7247e0826120ab39e98d56cfd50c292668193d307ace483",
    ("faults_defended", 1):
        "8913bb5946c08646cd62b67ded882bffa1ec21e96a46c6ed9fa03a6e3c5783e5",
    ("faults_defended", 2):
        "35202630ceb314bed496956b828d2fecc912f3128977f7b57d02dda6177642e1",
    ("faults_defended", 3):
        "d140e0837784bbe147fc91032e4e1bcf710182542f010c7f1ebacec93f701bff",
    ("faults_undefended", 1):
        "8913bb5946c08646cd62b67ded882bffa1ec21e96a46c6ed9fa03a6e3c5783e5",
    ("faults_undefended", 2):
        "35202630ceb314bed496956b828d2fecc912f3128977f7b57d02dda6177642e1",
    ("faults_undefended", 3):
        "d140e0837784bbe147fc91032e4e1bcf710182542f010c7f1ebacec93f701bff",
    ("no_coordination", 1):
        "e3b3c8813859a61b1bba45c893d61220fdb322961bfa5a94c5cf0524e85dd75c",
    ("no_coordination", 2):
        "e5b1f225a73fa1be8ff9a5d0077ea6911d9d5b493c517d0be4870d593ee5bdf3",
    ("no_coordination", 3):
        "67270769197a55d900b6db0f82add33f0886753dbd12802b9b3a8c78ec5eae08",
    ("odometry_only", 1):
        "3f3acf38e85adce75f40fbc8adc5763f538f88704f24ce71051ad70f6e585d55",
    ("odometry_only", 2):
        "3f3acf38e85adce75f40fbc8adc5763f538f88704f24ce71051ad70f6e585d55",
    ("odometry_only", 3):
        "3f3acf38e85adce75f40fbc8adc5763f538f88704f24ce71051ad70f6e585d55",
    ("rf_only", 1):
        "dd97c076893f51b3371308c7059bd589de62cacd004527225cec7347b78f771f",
    ("rf_only", 2):
        "2783f0d70384dfda0dfae48acae6acffbeadec353ffbca5203aae7e7acd33747",
    ("rf_only", 3):
        "dd94e96c3b4c8aaec7247e0826120ab39e98d56cfd50c292668193d307ace483",
}

#: Calibration case -> (master seed, ``build_pdf_table`` keyword
#: arguments).  The ``campaign`` cases are the default 120,000-sample
#: build every scenario without a passed-in table runs; ``hello`` is the
#: 2,000-sample serve hello the tests and ``repro serve --smoke`` send;
#: ``narrow`` moves the support and the bin floor off their defaults.
CALIBRATION_CASES = {
    "campaign-1": (1, dict(n_samples=120_000)),
    "campaign-2": (2, dict(n_samples=120_000)),
    "campaign-3": (3, dict(n_samples=120_000)),
    "hello-1": (1, dict(n_samples=2000)),
    "narrow-4": (
        4, dict(n_samples=30_000, max_distance_m=150.0, min_samples_per_bin=10)
    ),
}

#: Calibration case -> SHA-256 (see calibration_digest and
#: sample_rssi_digest; ``sample_rssi`` is the channel draw case).
CALIBRATION_GOLDEN = {
    "campaign-1":
        "4ebe7a19920d00ed50e6bd29f92ac2e19fb9e5f814d706a2f54405cd21dddbad",
    "campaign-2":
        "0ba6e32cddbc6e5908822febe57cc936558d0be8e47e4abffd30cb71d61019f5",
    "campaign-3":
        "578fd4fc775f6e9ebe6d246a687687b87e544d8a554559d6647c9e8cde86b6e6",
    "hello-1":
        "ec4e0fee2f8e28931b6cc89b2ae9251ccef20a9247125bed66d054a2341e13cb",
    "narrow-4":
        "6be1ea10354daf61be2909329e4a9c5c5b17d613d32154e56ef792f758ee153b",
    "sample_rssi":
        "2a7f258601d56c33c792bd820e477f59961fbb10061c4082a37d278ab824a73e",
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


def energy_digest(result):
    """Hash every breakdown field and every ``radio_*`` telemetry metric,
    each as ``float.hex``, so a regrouped sum shows even where the
    totals agree."""
    breakdown = result.energy.breakdown
    items = [(f.name, getattr(breakdown, f.name)) for f in fields(breakdown)]
    items += sorted(
        (name, value)
        for name, value in result.telemetry.metrics.items()
        if name.startswith("radio_")
    )
    text = ";".join(
        "%s=%s" % (name, float(value).hex()) for name, value in items
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibration_digest(result):
    """Hash every fitted bin (key, kind, mean, std, sample count and, for
    histogram bins, edges and densities, floats as ``float.hex``) plus
    the campaign's counters."""
    parts = []
    for key, dist in result.table.items():
        parts.append("%d:%s:%s:%s:%d:%s:%s" % (
            key,
            "g" if dist.is_gaussian else "h",
            float(dist.mean_m).hex(),
            float(dist.std_m).hex(),
            dist.n_samples,
            ",".join(float(x).hex() for x in dist.hist_edges),
            ",".join(float(x).hex() for x in dist.hist_density),
        ))
    parts.append("decodable=%d;gaussian=%d;histogram=%d" % (
        result.n_samples_decodable,
        result.n_gaussian_bins,
        result.n_histogram_bins,
    ))
    return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()


def run_calibration_case(case):
    seed, kwargs = CALIBRATION_CASES[case]
    return build_pdf_table(
        PathLossModel(),
        RandomStreams(seed).get("calibration"),
        receiver=ReceiverModel(),
        **kwargs
    )


def sample_rssi_digest():
    """Hash ``PathLossModel.sample_rssi``'s array draws on a fixed 2-D
    distance array spanning both regimes, plus the stream's next draw
    (so a changed draw count shows even where the values agree)."""
    rng = RandomStreams(5).get("calibration")
    distances = np.linspace(0.5, 180.0, 6000).reshape(60, 100)
    rssi = PathLossModel().sample_rssi(distances, rng)
    assert rssi.shape == distances.shape
    text = ",".join(float(x).hex() for x in rssi.ravel())
    text += ";next=%s" % float(rng.random()).hex()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibration_golden():
    table = {
        case: calibration_digest(run_calibration_case(case))
        for case in CALIBRATION_CASES
    }
    table["sample_rssi"] = sample_rssi_digest()
    return table


def run_case(preset, seed, observed=False):
    config = replace(TINY, master_seed=seed, **PRESETS[preset])
    team = CoCoATeam(config, telemetry=Telemetry() if observed else None)
    if observed:
        team.channel._trace.enable("channel.rx")
    return team, team.run()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_digest_matches_golden(preset, seed):
    _, result = run_case(preset, seed)
    assert science_digest(result) == GOLDEN[(preset, seed)]
    assert energy_digest(result) == ENERGY_GOLDEN[(preset, seed)]


@pytest.mark.parametrize("preset", ["cocoa", "faults_defended"])
def test_telemetry_and_rx_tracing_change_nothing(preset):
    team, result = run_case(preset, 1, observed=True)
    assert team.channel._trace.count("channel.rx") > 0
    assert science_digest(result) == GOLDEN[(preset, 1)]


def test_cases_exercise_every_delivery_branch():
    """The pinned cells must actually reach the branches they pin."""
    _, defended = run_case("faults_defended", 2)
    _, undefended = run_case("faults_undefended", 2)
    stats = defended.channel_stats
    assert stats.frames_below_sensitivity > 0
    assert stats.frames_collided > 0
    assert stats.frames_missed_asleep > 0
    assert stats.frames_missed_half_duplex > 0
    assert stats.frames_jammed > 0
    assert stats.frames_missed_brownout > 0
    assert stats.frames_crc_dropped > 0
    assert undefended.channel_stats.frames_corrupted > 0


@pytest.mark.parametrize("case", sorted(CALIBRATION_CASES))
def test_calibration_matches_golden(case):
    result = run_calibration_case(case)
    assert calibration_digest(result) == CALIBRATION_GOLDEN[case]


def test_sample_rssi_matches_golden():
    assert sample_rssi_digest() == CALIBRATION_GOLDEN["sample_rssi"]


if __name__ == "__main__":
    results = {
        (preset, seed): run_case(preset, seed)[1]
        for preset in sorted(PRESETS)
        for seed in SEEDS
    }
    for table, digest in (
        ("GOLDEN", science_digest), ("ENERGY_GOLDEN", energy_digest)
    ):
        print("%s = {" % table)
        for (preset, seed), result in results.items():
            print('    ("%s", %d):\n        "%s",'
                  % (preset, seed, digest(result)))
        print("}")
    print("CALIBRATION_GOLDEN = {")
    for case, digest in calibration_golden().items():
        print('    "%s":\n        "%s",' % (case, digest))
    print("}")
