"""Canonical scenario configurations for each paper experiment.

Every preset starts from the paper's §4 headline scenario (50 robots,
200 m × 200 m, 25 anchors, T = 100 s, t = 3 s, k = 3, 30 minutes) and
applies that figure's variations.  The ``duration_s`` and ``master_seed``
parameters exist so benchmarks can trade fidelity for speed explicitly.
"""

from __future__ import annotations

from repro.core.config import CoCoAConfig, LocalizationMode


def headline_config(
    duration_s: float = 1800.0, master_seed: int = 1, **overrides
) -> CoCoAConfig:
    """The paper's default scenario (§4 intro)."""
    return CoCoAConfig(
        duration_s=duration_s, master_seed=master_seed, **overrides
    )


def fig4_config(
    v_max: float, duration_s: float = 1800.0, master_seed: int = 1
) -> CoCoAConfig:
    """§4.1 / Figure 4: odometry only, initial positions known.

    All 50 robots dead-reckon; there are no anchors, no beacons and no
    radio coordination (the radios are irrelevant to this experiment).
    """
    return headline_config(
        duration_s=duration_s,
        master_seed=master_seed,
        localization_mode=LocalizationMode.ODOMETRY_ONLY,
        n_anchors=0,
        coordination=False,
        v_max=v_max,
    )


def fig6_config(
    beacon_period_s: float,
    duration_s: float = 1800.0,
    master_seed: int = 1,
    v_max: float = 2.0,
) -> CoCoAConfig:
    """§4.2 / Figure 6: RF localization only, varying the period ``T``."""
    return headline_config(
        duration_s=duration_s,
        master_seed=master_seed,
        localization_mode=LocalizationMode.RF_ONLY,
        beacon_period_s=beacon_period_s,
        v_max=v_max,
    )


def fig7_config(
    mode: LocalizationMode,
    v_max: float,
    duration_s: float = 1800.0,
    master_seed: int = 1,
) -> CoCoAConfig:
    """§4.3 / Figure 7: the three strategies at T = 100 s."""
    if mode is LocalizationMode.ODOMETRY_ONLY:
        return fig4_config(
            v_max=v_max, duration_s=duration_s, master_seed=master_seed
        )
    return headline_config(
        duration_s=duration_s,
        master_seed=master_seed,
        localization_mode=mode,
        beacon_period_s=100.0,
        v_max=v_max,
    )


def fig9_config(
    beacon_period_s: float,
    coordination: bool = True,
    duration_s: float = 1800.0,
    master_seed: int = 1,
) -> CoCoAConfig:
    """§4.3.1 / Figure 9: CoCoA with varying ``T``; energy with and
    without coordinated sleeping."""
    return headline_config(
        duration_s=duration_s,
        master_seed=master_seed,
        beacon_period_s=beacon_period_s,
        coordination=coordination,
    )


def fig10_config(
    n_anchors: int, duration_s: float = 1800.0, master_seed: int = 1
) -> CoCoAConfig:
    """§4.3.2 / Figure 10: CoCoA with 5-35 anchor robots."""
    return headline_config(
        duration_s=duration_s,
        master_seed=master_seed,
        n_anchors=n_anchors,
    )
