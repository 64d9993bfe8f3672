"""Declarative sweep jobs and the canonical scenario content hash.

A :class:`SweepJob` names one independent scenario run.  Its identity for
caching purposes is :func:`config_digest`: a SHA-256 over a *canonical*
serialization of the :class:`~repro.core.config.CoCoAConfig` — nested
dataclasses flattened field by field in sorted order, enums reduced to
their values, floats rendered with ``repr`` so the digest is stable
across processes and Python sessions (unlike ``hash()``).

:data:`CODE_VERSION` is the code-version salt.  The on-disk cache
partitions entries by it, so bumping the constant after any change that
alters simulation output invalidates every stored result at once.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, replace
from typing import List, Sequence

from repro.core.config import CoCoAConfig

#: Bump whenever a change anywhere in the simulator alters the metrics a
#: given config produces, or the config's fields (and so every digest)
#: change; cached results from older versions are then ignored (they
#: live under a different cache partition).
CODE_VERSION = "2026.10.1"


def _canonical(value: object) -> object:
    """Reduce ``value`` to JSON-serializable primitives, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        fields["__class__"] = type(value).__name__
        return fields
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        # repr round-trips doubles exactly; json.dumps would too, but being
        # explicit keeps the digest independent of the JSON float formatter.
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(
        "cannot canonicalize %r of type %s for hashing"
        % (value, type(value).__name__)
    )


def config_digest(config: CoCoAConfig) -> str:
    """Canonical, process-stable content hash of a scenario config."""
    payload = json.dumps(
        _canonical(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepJob:
    """One independent scenario run inside a sweep.

    Attributes:
        config: the complete scenario to run.
        name: human-readable label used in progress output, telemetry
            records and error messages (e.g. ``"fig9 T=100 coord"``).
        key: consumer-side key (seed, beacon period, (v_max, mode) tuple,
            ...) so sweep callers can reshape the flat result list back
            into their own structures.
        telemetry: run the job with rich telemetry (registry + span
            tracer) enabled.  Deliberately excluded from the fingerprint:
            telemetry never changes simulation output, so toggling it must
            not invalidate cached results.  Consequence: a job answered
            from cache carries whatever snapshot the original execution
            stored — rich keys only if *that* run had telemetry enabled.
    """

    config: CoCoAConfig
    name: str = ""
    key: object = None
    telemetry: bool = False

    @property
    def fingerprint(self) -> str:
        """Content hash identifying this job's scenario."""
        return config_digest(self.config)


def seed_jobs(
    config: CoCoAConfig,
    seeds: Sequence[int],
    telemetry: bool = False,
) -> List[SweepJob]:
    """Jobs re-running one scenario under several master seeds, named
    ``seed=<seed>``."""
    return [
        SweepJob(
            config=replace(config, master_seed=seed),
            name="seed=%d" % seed,
            key=seed,
            telemetry=telemetry,
        )
        for seed in seeds
    ]
