"""Content-addressed on-disk store for finished scenario runs.

Layout (under the cache root, ``.repro_cache/`` by default)::

    <root>/<salt>/<fp[:2]>/<fingerprint>.pkl   pickled TeamResult
    <root>/<salt>/manifest.jsonl               one JSON line per store

``salt`` is the code-version salt (:data:`~repro.orchestrator.jobs.CODE_VERSION`);
changing it orphans every older entry, which is exactly the invalidation
we want after a change that alters simulation output.  The manifest is an
append-only human-readable index (fingerprint, job name, wall seconds) so
``ls``-ing the cache is never required to know what is in it.

The cache is strictly best-effort: a corrupt pickle, an unreadable
directory or an unwritable filesystem downgrades to a miss (the sweep
recomputes) and bumps :attr:`CacheStats.errors` — it never raises out of
:meth:`ResultCache.get` or :meth:`ResultCache.put`.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.team import TeamResult
from repro.orchestrator.jobs import CODE_VERSION

DEFAULT_CACHE_DIR = ".repro_cache"


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache` instance.

    Attributes:
        hits: lookups answered from disk.
        misses: lookups that found no entry.
        stores: results written.
        errors: I/O or deserialization failures silently downgraded to
            misses / dropped stores.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0


@dataclass
class ManifestEntry:
    """One line of the cache manifest."""

    fingerprint: str
    job: str
    wall_s: float
    written_at: float
    extra: dict = field(default_factory=dict)


class ResultCache:
    """Content-addressed store mapping config fingerprints to results.

    Args:
        root: cache directory (created lazily on first store).
        salt: code-version salt partitioning the entries; defaults to
            :data:`~repro.orchestrator.jobs.CODE_VERSION`.
    """

    def __init__(
        self, root: str = DEFAULT_CACHE_DIR, salt: str = CODE_VERSION
    ) -> None:
        self.root = root
        self.salt = salt
        self.stats = CacheStats()

    # -- paths ---------------------------------------------------------------

    @property
    def _partition(self) -> str:
        return os.path.join(self.root, self.salt)

    def path_for(self, fingerprint: str) -> str:
        """On-disk path of a fingerprint's entry (existing or not)."""
        return os.path.join(
            self._partition, fingerprint[:2], fingerprint + ".pkl"
        )

    @property
    def manifest_path(self) -> str:
        return os.path.join(self._partition, "manifest.jsonl")

    @property
    def sweeps_path(self) -> str:
        """Append-only log of sweep-level summaries (``repro report``
        reads it for orchestrator-side numbers like the cache hit rate)."""
        return os.path.join(self._partition, "sweeps.jsonl")

    # -- lookup / store ------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[TeamResult]:
        """Return the stored result, or ``None`` on miss or any error."""
        return self.get_payload(fingerprint, TeamResult)

    def get_payload(self, fingerprint: str, expected_type: type):
        """Generic typed lookup: the stored object, or ``None``.

        The type check is part of the contract — a fingerprint scheme
        that stores other payloads (serve's ``ckpt-`` session
        checkpoints) shares the cache with
        :class:`~repro.core.team.TeamResult` entries, and a prefix
        collision must read as a miss, never as a wrongly-typed hit.
        """
        path = self.path_for(fingerprint)
        if not os.path.exists(path):
            self.stats.misses += 1
            return None
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except Exception:
            # Corrupt or unreadable entry: recompute rather than crash.
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        if not isinstance(result, expected_type):
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(
        self,
        fingerprint: str,
        result: TeamResult,
        job_name: str = "",
        wall_s: float = 0.0,
    ) -> bool:
        """Store ``result``; returns False (and keeps going) on failure."""
        return self.put_payload(fingerprint, result, job_name, wall_s)

    def put_payload(
        self,
        fingerprint: str,
        payload,
        job_name: str = "",
        wall_s: float = 0.0,
    ) -> bool:
        """Store any picklable payload under ``fingerprint``."""
        path = self.path_for(fingerprint)
        tmp = path + ".tmp.%d" % os.getpid()
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)  # atomic: readers never see partial files
        except Exception:
            self.stats.errors += 1
            try:
                if os.path.exists(tmp):
                    os.remove(tmp)
            except OSError:
                pass
            return False
        self.stats.stores += 1
        self._append_manifest(fingerprint, job_name, wall_s)
        return True

    def _append_manifest(
        self, fingerprint: str, job_name: str, wall_s: float
    ) -> None:
        line = json.dumps(
            {
                "fingerprint": fingerprint,
                "job": job_name,
                "wall_s": round(wall_s, 3),
                # repro: noqa[REP002] manifest metadata, not a result
                "written_at": time.time(),
            },
            sort_keys=True,
        )
        try:
            with open(self.manifest_path, "a") as handle:
                handle.write(line + "\n")
        except Exception:
            self.stats.errors += 1

    def record_sweep(self, record: dict) -> bool:
        """Append one sweep summary to ``sweeps.jsonl`` (best effort)."""
        try:
            os.makedirs(self._partition, exist_ok=True)
            line = json.dumps(record, sort_keys=True, default=str)
            with open(self.sweeps_path, "a") as handle:
                handle.write(line + "\n")
        except Exception:
            self.stats.errors += 1
            return False
        return True

    def sweep_records(self) -> List[dict]:
        """Parse the sweep log, newest last (skipping unreadable lines)."""
        out: List[dict] = []
        try:
            with open(self.sweeps_path) as handle:
                for raw in handle:
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        data = json.loads(raw)
                    except ValueError:
                        continue
                    if isinstance(data, dict):
                        out.append(data)
        except OSError:
            return out
        return out

    def remove(self, fingerprint: str) -> bool:
        """Delete one entry (best effort); True if a file was removed.

        Used by latest-wins payload schemes (serve checkpoints) whose
        entries stop being meaningful — e.g. a tenant said ``bye`` and
        its checkpoint must not re-hydrate a future session.
        """
        try:
            os.remove(self.path_for(fingerprint))
        except FileNotFoundError:
            return False
        except OSError:
            self.stats.errors += 1
            return False
        return True

    # -- maintenance ---------------------------------------------------------

    def entries(self) -> List[ManifestEntry]:
        """Parse the manifest (skipping unreadable lines)."""
        out: List[ManifestEntry] = []
        try:
            with open(self.manifest_path) as handle:
                for raw in handle:
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        data = json.loads(raw)
                        out.append(
                            ManifestEntry(
                                fingerprint=data.pop("fingerprint"),
                                job=data.pop("job", ""),
                                wall_s=float(data.pop("wall_s", 0.0)),
                                written_at=float(data.pop("written_at", 0.0)),
                                extra=data,
                            )
                        )
                    except Exception:
                        continue
        except OSError:
            return out
        return out

    def size_bytes(self) -> int:
        """Total bytes stored across every salt partition."""
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    continue
        return total

    def clear(self) -> None:
        """Wipe the whole cache root (every salt partition)."""
        shutil.rmtree(self.root, ignore_errors=True)
