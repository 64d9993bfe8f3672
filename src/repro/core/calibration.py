"""The offline calibration phase (§2.2).

    "Before running the algorithm, an offline calibration phase is
    necessary ... This phase constructs the PDF Table, which is stored at
    each node and maps every RSSI value to a Probability Distribution
    Function (PDF) versus distance."

The paper calibrates by driving robots around outdoors and recording
(distance, RSSI) pairs.  We reproduce the same procedure against the
simulated channel: draw many transmitter-receiver distances, sample the
channel's noisy RSSI for each, keep only the decodable samples (a real
receiver cannot log the RSSI of a frame it never received), bin by integer
dBm, and fit each bin's distance distribution — Gaussian in the near
regime, empirical beyond, per the paper's Figure 1 findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.pdf_table import DistanceDistribution, PdfTable
from repro.net.phy import PathLossModel, ReceiverModel
from repro.util.validation import check_positive


@dataclass(frozen=True)
class CalibrationResult:
    """The calibration output plus provenance for diagnostics.

    Attributes:
        table: the fitted PDF Table.
        n_samples_drawn: distances drawn in the measurement campaign.
        n_samples_decodable: samples that survived the sensitivity cut.
        n_gaussian_bins: bins represented as Gaussians (near regime).
        n_histogram_bins: bins represented as histograms (far regime).
    """

    table: PdfTable
    n_samples_drawn: int
    n_samples_decodable: int
    n_gaussian_bins: int
    n_histogram_bins: int


def build_pdf_table(
    path_loss: PathLossModel,
    rng: np.random.Generator,
    n_samples: int = 120_000,
    max_distance_m: float = 180.0,
    receiver: ReceiverModel = ReceiverModel(),
    min_samples_per_bin: int = 40,
    gaussian_limit_m: float = None,
) -> CalibrationResult:
    """Run the offline calibration campaign and fit the PDF Table.

    Args:
        path_loss: the channel being calibrated.
        rng: random stream for the campaign.
        n_samples: number of (distance, RSSI) measurements to draw.
        max_distance_m: largest distance visited by the campaign; should
            comfortably exceed the radio range so far-regime bins are
            populated.
        receiver: receiver whose sensitivity gates which samples a real
            logger could have captured.
        min_samples_per_bin: bins thinner than this are dropped (their
            RSSIs snap to the nearest populated neighbor at lookup time).
        gaussian_limit_m: near/far regime boundary for the Gaussian-vs-
            histogram decision; defaults to the channel's own
            ``far_threshold_m``.

    Returns:
        A :class:`CalibrationResult` with the fitted table.

    Raises:
        ValueError: if the campaign yields no populated bin (e.g. a
            sensitivity above every sampled RSSI).
    """
    check_positive("n_samples", n_samples)
    if max_distance_m <= 1.0:
        raise ValueError(
            "max_distance_m must exceed 1 m, got %r" % max_distance_m
        )
    if gaussian_limit_m is None:
        gaussian_limit_m = path_loss.far_threshold_m

    distances = rng.uniform(1.0, max_distance_m, size=n_samples)
    rssi = path_loss.sample_rssi(distances, rng)
    decodable = rssi >= receiver.sensitivity_dbm
    n_decodable = int(np.count_nonzero(decodable))
    bins: Dict[int, DistanceDistribution] = {}
    n_gauss = 0
    n_hist = 0
    if n_decodable:
        distances = distances.compress(decodable)
        keys = rssi.compress(decodable)
        np.round(keys, out=keys)
        # Group the samples by integer-dBm bin in one stable sort on a
        # small unsigned offset key (numpy radix-sorts 8- and 16-bit
        # keys).  The key's dtype is the smallest that holds the bin
        # range, so it cannot wrap.  Stability keeps each bin's samples
        # in draw order, so every bin fits from exactly the array a
        # ``keys == key`` mask would select.
        lowest = keys.min()
        key_type = np.min_scalar_type(int(keys.max() - lowest))
        keys -= lowest
        offsets = keys.astype(key_type)
        grouped = distances[np.argsort(offsets, kind="stable")]
        stop = 0
        for offset, count in enumerate(np.bincount(offsets).tolist()):
            start, stop = stop, stop + count
            if count == 0 or count < min_samples_per_bin:
                continue
            dist = DistanceDistribution.from_samples(
                grouped[start:stop],
                support_max_m=max_distance_m,
                gaussian_limit_m=gaussian_limit_m,
            )
            bins[int(lowest) + offset] = dist
            if dist.is_gaussian:
                n_gauss += 1
            else:
                n_hist += 1

    if not bins:
        raise ValueError(
            "calibration produced no populated bins: check sensitivity "
            "(%r dBm) against the channel" % receiver.sensitivity_dbm
        )
    table = PdfTable(bins, support_max_m=max_distance_m)
    return CalibrationResult(
        table=table,
        n_samples_drawn=n_samples,
        n_samples_decodable=n_decodable,
        n_gaussian_bins=n_gauss,
        n_histogram_bins=n_hist,
    )
