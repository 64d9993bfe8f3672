"""Content-addressed on-disk store for finished scenario runs.

Layout (under the cache root, ``.repro_cache/`` by default)::

    <root>/<salt>/<fp[:2]>/<fingerprint>.pkl   one pickled payload
    <root>/<salt>/sweeps.jsonl                 one JSON line per sweep

``salt`` is the code-version salt (:data:`~repro.orchestrator.jobs.CODE_VERSION`);
changing it orphans every older entry, which is exactly the invalidation
we want after a change that alters simulation output.  The directory is
its own index: :meth:`ResultCache.fingerprints` lists the stored
entries, and a re-``put`` overwrites its file, so a latest-wins payload
(serve's session checkpoints) occupies one file however often it is
stored.

The cache is strictly best-effort: a corrupt pickle, an unreadable
directory or an unwritable filesystem downgrades to a miss (the sweep
recomputes) and bumps :attr:`CacheStats.errors` — it never raises out of
:meth:`ResultCache.get` or :meth:`ResultCache.put`.
"""

from __future__ import annotations

import glob
import json
import os
import pickle
import shutil
from dataclasses import dataclass
from typing import List

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
    def sweeps_path(self) -> str:
        """Append-only log of sweep-level summaries (``repro report``
        reads it for orchestrator-side numbers like the cache hit rate)."""
        return os.path.join(self._partition, "sweeps.jsonl")

    # -- lookup / store ------------------------------------------------------

    def get(self, fingerprint: str, expected_type: type = TeamResult):
        """Return the stored payload, or ``None`` on miss or any error.

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

    def put(self, fingerprint: str, payload) -> bool:
        """Store any picklable payload under ``fingerprint``; returns
        False (and keeps going) on failure."""
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
        return True

    def fingerprints(self) -> List[str]:
        """Every stored fingerprint in this salt partition, sorted.

        Only finished ``<fp[:2]>/<fp>.pkl`` files count; a
        ``.pkl.tmp.<pid>`` left by an interrupted write does not.
        """
        pattern = os.path.join(self._partition, "??", "*.pkl")
        return sorted(
            os.path.basename(path)[: -len(".pkl")]
            for path in glob.glob(pattern)
        )

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

    def clear(self) -> None:
        """Wipe the whole cache root (every salt partition)."""
        shutil.rmtree(self.root, ignore_errors=True)
