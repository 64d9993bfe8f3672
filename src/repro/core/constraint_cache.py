"""Shared constraint-field cache: one grid evaluation per beacon frame.

Every unknown robot in a team runs a :class:`~repro.core.bayes.GridBayesFilter`
on the *same* grid (same deployment area, same resolution), and every
robot that hears a given beacon frame evaluates the same two fields over
that grid: the distance from each cell to the beacon's claimed origin,
and — for robots whose RSSI snapped to the same PDF-table bin — the very
same constraint density.  With 50 robots and 25 anchors the team
recomputes each distance field up to ~25 times per beacon round.

:class:`ConstraintFieldCache` shares those fields across the team.  It is
**bit-identical** by construction: a cached field is the float-for-float
output of the same numpy operation sequence the uncached path runs, keyed
so that only *exactly* matching inputs can ever hit.

Key design (see also DESIGN.md):

- Distance fields are keyed by the beacon position quantized to 1 µm.
  Constraint fields add the anchor id and the resolved PDF-table bin key.
  Quantization only picks the *bucket*; every entry stores the exact
  coordinates it was computed from (as ``float.hex()`` tokens, an exact
  representation), and a lookup whose coordinates do not match the stored
  tokens is a miss — the entry is then recomputed and replaced.  A hash
  bucket can therefore never smuggle a neighbouring position's field into
  a result.
- Cached arrays are marked read-only.  The filter multiplies them into
  its posterior; nothing may mutate them in place.
- One cache serves one grid geometry.  The first filter to attach binds
  its grid signature; attaching a filter with a different signature is a
  programming error and raises.

Eviction is LRU with a shared budget over both stores; the counters the
telemetry snapshot exports make hit rates observable per run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["ConstraintFieldCache"]

#: Position-key quantum (metres).  1 µm is far below any coordinate
#: difference the simulation can produce on purpose, so distinct beacon
#: origins land in distinct buckets; the exact-token check makes the
#: choice a pure performance knob, never a correctness one.
POSITION_QUANTUM_M = 1e-6

#: LRU capacity, in fields per store, of a team's shared cache.
CACHE_CAPACITY = 128

_DistKey = Tuple[int, int]
_ConstraintKey = Tuple[Optional[int], int, int, int]


def _position_token(x: float, y: float) -> Tuple[str, str]:
    """Exact, hashable representation of a beacon position."""
    return (float(x).hex(), float(y).hex())


def _quantize(value: float) -> int:
    return int(round(value / POSITION_QUANTUM_M))


class ConstraintFieldCache:
    """Per-team LRU cache of beacon distance and constraint fields.

    Args:
        capacity: maximum number of cached fields per store (distance
            and constraint fields are budgeted separately: the former
            are shared across RSSI bins, the latter are what robots in
            the same bin reuse directly).
    """

    def __init__(self, capacity: int = CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(
                "capacity must be >= 1, got %r" % capacity
            )
        self._capacity = int(capacity)
        self._signature: Optional[str] = None
        self._distance: "OrderedDict[_DistKey, tuple]" = OrderedDict()
        self._constraint: "OrderedDict[_ConstraintKey, tuple]" = (
            OrderedDict()
        )
        self._index: "OrderedDict[_DistKey, tuple]" = OrderedDict()
        # Memo of the last position's (key, token): one beacon frame
        # produces a run of cache calls at the same (x, y) — half a
        # dozen per apply_beacon, times every receiver of the frame —
        # and the quantize/hex work was visible in the hot-path profile.
        # Guarded against x or y == 0.0 because -0.0 == 0.0 compares
        # True while their hex tokens differ.
        self._pos_memo: Tuple[float, float, tuple, tuple] = (
            float("nan"), float("nan"), (), ()
        )
        self.hits = 0
        self.misses = 0
        self.distance_hits = 0
        self.distance_misses = 0
        self.index_hits = 0
        self.index_misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def bind_grid(self, signature: str) -> None:
        """Bind the cache to one grid geometry.

        The first filter to attach establishes the signature; later
        filters must match it exactly.

        Raises:
            ValueError: on a signature mismatch — the caller tried to
                share fields between incompatible grids.
        """
        if self._signature is None:
            self._signature = signature
            return
        if self._signature != signature:
            raise ValueError(
                "constraint cache is bound to grid %s, cannot attach a "
                "filter with grid %s" % (self._signature, signature)
            )

    def _pos_key_token(self, x: float, y: float) -> Tuple[tuple, tuple]:
        """Quantized key and exact token for a position, memoized."""
        memo = self._pos_memo
        # Bitwise equality is the memo contract (a tolerance would alias
        # distinct positions); 0.0 is excluded as the empty-memo sentinel.
        # repro: noqa[REP004] memo identity check needs exact comparison
        if x == memo[0] and y == memo[1] and x != 0.0 and y != 0.0:
            return memo[2], memo[3]
        key = (_quantize(x), _quantize(y))
        token = _position_token(x, y)
        self._pos_memo = (x, y, key, token)
        return key, token

    # -- distance fields ----------------------------------------------------

    def distance_field(self, x: float, y: float) -> Optional[np.ndarray]:
        """The cached cell-to-``(x, y)`` distance field, or ``None``."""
        key, token = self._pos_key_token(x, y)
        entry = self._distance.get(key)
        if entry is not None and entry[0] == token:
            self._distance.move_to_end(key)
            self.distance_hits += 1
            return entry[1]
        self.distance_misses += 1
        return None

    def store_distance(
        self, x: float, y: float, field: np.ndarray
    ) -> np.ndarray:
        """Cache a freshly computed distance field (made read-only)."""
        field.flags.writeable = False
        key, token = self._pos_key_token(x, y)
        self._put(self._distance, key, (token, field))
        return field

    # -- LUT index fields ---------------------------------------------------

    def index_field(
        self, x: float, y: float, params: tuple
    ) -> Optional[np.ndarray]:
        """The cached LUT index field for a beacon position, or ``None``.

        Index fields (:meth:`~repro.core.pdf_table.PdfTable.lut_index_for`
        results) depend on the position's distance field and the LUT
        geometry only — not the RSSI bin — so every bin evaluated at the
        same beacon position reuses one.  ``params`` is the table's
        ``lut_params``; an entry computed under different LUT geometry is
        a miss.
        """
        key, token = self._pos_key_token(x, y)
        entry = self._index.get(key)
        if (
            entry is not None
            and entry[0] == token
            and entry[1] == params
        ):
            self._index.move_to_end(key)
            self.index_hits += 1
            return entry[2]
        self.index_misses += 1
        return None

    def store_index(
        self, x: float, y: float, field: np.ndarray, params: tuple
    ) -> np.ndarray:
        """Cache a freshly computed LUT index field (made read-only)."""
        field.flags.writeable = False
        key, token = self._pos_key_token(x, y)
        self._put(self._index, key, (token, params, field))
        return field

    # -- constraint fields --------------------------------------------------

    def constraint_field(
        self,
        anchor_id: Optional[int],
        x: float,
        y: float,
        bin_key: int,
    ) -> Optional[np.ndarray]:
        """The cached constraint density for one (anchor, position, bin)."""
        pos_key, token = self._pos_key_token(x, y)
        key = (anchor_id, pos_key[0], pos_key[1], int(bin_key))
        entry = self._constraint.get(key)
        if entry is not None and entry[0] == token:
            self._constraint.move_to_end(key)
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def store_constraint(
        self,
        anchor_id: Optional[int],
        x: float,
        y: float,
        bin_key: int,
        field: np.ndarray,
    ) -> np.ndarray:
        """Cache a freshly computed constraint field (made read-only)."""
        field.flags.writeable = False
        pos_key, token = self._pos_key_token(x, y)
        self._put(
            self._constraint,
            (anchor_id, pos_key[0], pos_key[1], int(bin_key)),
            (token, field),
        )
        return field

    # -- bookkeeping --------------------------------------------------------

    def _put(self, store: OrderedDict, key, value) -> None:
        store[key] = value
        store.move_to_end(key)
        while len(store) > self._capacity:
            store.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every cached field (counters are kept)."""
        self._distance.clear()
        self._constraint.clear()
        self._index.clear()

    def __len__(self) -> int:
        return (
            len(self._distance) + len(self._constraint) + len(self._index)
        )

    def counters(self) -> Dict[str, int]:
        """The cache's accounting, keyed as telemetry exports it."""
        return {
            "kernel_cache_constraint_hits": self.hits,
            "kernel_cache_constraint_misses": self.misses,
            "kernel_cache_distance_hits": self.distance_hits,
            "kernel_cache_distance_misses": self.distance_misses,
            "kernel_cache_index_hits": self.index_hits,
            "kernel_cache_index_misses": self.index_misses,
            "kernel_cache_evictions": self.evictions,
        }
