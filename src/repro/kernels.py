"""The one hot-path kernel choice that changes results: LUT densities.

Every other hot-path technique in the simulator — the batched RSSI draw
and single delivery event per frame in
:class:`~repro.net.channel.BroadcastChannel`, the structure-of-arrays
world state, the shared constraint-field cache and the pose memo — is
bit-identical to the straightforward evaluation it replaces, so it is
simply the code, with no switch (golden science digests pin the bytes).

The LUT kernel (:class:`~repro.core.pdf_table.PdfTable`) is different:
it quantizes the distance axis, so it is *tolerance-identical* — per-figure
metrics stay within 0.1 % relative of the exact densities (pinned by a
test).  Runs that need the exact densities switch it off.

The selection deliberately lives **outside**
:class:`~repro.core.config.CoCoAConfig`: like telemetry, it never changes
what a scenario *is*, so it must not change orchestrator cache
fingerprints.  Resolution order for a run:

1. an explicit ``kernels=`` argument to :class:`~repro.core.team.CoCoATeam`,
2. a process-local override installed with :func:`use_kernels` /
   :func:`set_default_kernels` (tests),
3. the ``REPRO_KERNELS`` environment variable (``on`` / ``off``), which
   also reaches process-pool workers because children inherit the
   environment,
4. :data:`KERNELS_ON` (the default: LUT on).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "KernelConfig",
    "KERNELS_ON",
    "KERNELS_OFF",
    "default_kernels",
    "resolve_kernels",
    "set_default_kernels",
    "use_kernels",
]

#: Environment variable consulted when no explicit selection is passed.
KERNELS_ENV_VAR = "REPRO_KERNELS"


@dataclass(frozen=True)
class KernelConfig:
    """Which result-changing hot-path kernels a run uses.

    Attributes:
        lut_pdf: evaluate RSSI-bin densities through a precomputed
            distance lookup table (tolerance-identical; < 0.1 % on
            figure metrics) instead of the exact per-call evaluation.
    """

    lut_pdf: bool = True


#: The default for new runs: LUT densities on.
KERNELS_ON = KernelConfig()
#: Exact densities: byte-equal to the pre-LUT evaluation.
KERNELS_OFF = KernelConfig(lut_pdf=False)

_ENV_VALUES = {"on": KERNELS_ON, "off": KERNELS_OFF}

_process_override: Optional[KernelConfig] = None


def default_kernels() -> KernelConfig:
    """The kernels a run gets when none are passed explicitly.

    Raises:
        ValueError: if ``REPRO_KERNELS`` holds anything but ``on`` or
            ``off`` (case and surrounding blanks ignored; set but empty
            counts as unset).
    """
    if _process_override is not None:
        return _process_override
    raw = os.environ.get(KERNELS_ENV_VAR, "")
    try:
        return _ENV_VALUES[raw.strip().lower() or "on"]
    except KeyError:
        raise ValueError(
            "%s=%r: expected 'on' or 'off'" % (KERNELS_ENV_VAR, raw)
        ) from None


def resolve_kernels(kernels: Optional[KernelConfig]) -> KernelConfig:
    """Resolve an optional explicit selection against the defaults."""
    return kernels if kernels is not None else default_kernels()


def set_default_kernels(kernels: Optional[KernelConfig]) -> None:
    """Install (or with ``None`` clear) the process-local default."""
    global _process_override
    _process_override = kernels


@contextmanager
def use_kernels(kernels: Optional[KernelConfig]) -> Iterator[None]:
    """Temporarily override the process-local kernel default.

    Note: the override is process-local; sweeps fanned out over a
    process pool follow the ``REPRO_KERNELS`` environment variable
    instead.
    """
    global _process_override
    previous = _process_override
    _process_override = kernels
    try:
        yield
    finally:
        _process_override = previous
