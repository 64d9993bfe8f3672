"""Shared constraint fields: one grid evaluation per beacon frame.

Every unknown robot in a team — or in one serve tenant's session — runs
a :class:`~repro.core.bayes.GridBayesFilter` on the *same* grid (same
deployment area, same resolution), and every robot that hears a given
beacon frame evaluates the same two fields over that grid: the distance
from each cell to the beacon's claimed origin, and — for robots whose
RSSI snapped to the same PDF-table bin — the very same constraint
density.  A frame is heard by a few dozen robots, and they apply it back
to back, one per delivery (in serve, one per window close).

:class:`ConstraintFieldCache` shares those fields between the hearers of
one frame, and it is the filter's only source of constraint fields: a
team and a serve session each attach one to all their robots, and a
filter built on its own makes a private one.  It is a **one-position
memo**: it holds the distance field and LUT index field of the current
claimed beacon position plus one constraint field per RSSI bin heard
there.  A lookup at any other position drops all of it and starts
fresh.  A claimed position repeats
across frames only when its advertiser stands still or re-advertises an
unchanged estimate (a promoted robot in :mod:`repro.ext.promotion` does
the latter between fixes).  The fig7-cocoa and rf-dense-faults benchmark
scenarios, where every advertiser moves, showed no such repeat; on the
promotion ablation the memo recomputes about 0.2% of the constraint
fields a team-wide LRU reused.  A longer-lived store kept cold arrays
alive for that.

The memo is **bit-identical** by construction: a field is the
float-for-float output of Equation (1) evaluated afresh
(``table.pdf(rssi, grid.compute_distance_field(beacon))``), and only an
exact ``(x, y)`` match reuses it.  ``-0.0`` and ``0.0`` compare
equal and may share an entry; the distance computation squares the
coordinate difference, which drops the sign, so both give the same bits.
The fields are read-only (the filter multiplies them into its posterior),
and one cache serves one grid geometry and one PDF table: attaching a
filter with a different grid signature raises, and a lookup with another
table drops the memo like a new position does.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["ConstraintFieldCache"]


class ConstraintFieldCache:
    """Team- or session-wide memo of the current beacon position's fields."""

    def __init__(self) -> None:
        self._signature: Optional[str] = None
        self._x = float("nan")
        self._y = float("nan")
        self._table = None
        self._distances: Optional[np.ndarray] = None
        self._index: Optional[np.ndarray] = None
        self._constraints: Dict[int, np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        self.distance_hits = 0
        self.distance_misses = 0
        self.index_hits = 0
        self.index_misses = 0
        #: Memo entries dropped because a lookup moved to a new position.
        self.evictions = 0

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

    def constraint_field(self, grid, beacon, table, bin_key: int) -> np.ndarray:
        """The constraint density of ``bin_key`` at ``beacon``'s position.

        Args:
            grid: the calling :class:`~repro.core.bayes.GridBayesFilter`;
                its ``compute_distance_field`` builds a missing distance
                field.
            beacon: the claimed beacon position.
            table: the PDF table the bin key came from.
            bin_key: the resolved PDF-table bin of the measured RSSI.
        """
        # Exact comparison is the memo contract; NaN never matches, so
        # the empty memo (and a NaN position) always computes afresh.
        # repro: noqa[REP004] memo identity check needs exact comparison
        if beacon.x != self._x or beacon.y != self._y or table is not self._table:
            self._move_to(beacon, table)
        field = self._constraints.get(bin_key)
        if field is not None:
            self.hits += 1
            return field
        self.misses += 1
        # The LUT index field depends only on the distances and the LUT
        # geometry, not the bin, and pdf_from_index gathers the same LUT
        # entries pdf_for_key would, so every bin after the first at
        # this position skips the clip/cast pass.
        index = self.index_field(table, self.distance_field(grid, beacon))
        return self.store_constraint(
            bin_key, table.pdf_from_index(bin_key, index)
        )

    def _move_to(self, beacon, table) -> None:
        if self._distances is not None:
            self.evictions += 1
        self._x = beacon.x
        self._y = beacon.y
        self._table = table
        self._distances = None
        self._index = None
        self._constraints = {}

    def distance_field(self, grid, beacon) -> np.ndarray:
        """The cell-to-beacon distance field of ``beacon``'s position.

        A position other than the memo's moves the memo there first, so
        a direct call never returns another position's field.
        """
        # repro: noqa[REP004] memo identity check needs exact comparison
        if beacon.x != self._x or beacon.y != self._y:
            self._move_to(beacon, self._table)
        distances = self._distances
        if distances is not None:
            self.distance_hits += 1
            return distances
        self.distance_misses += 1
        distances = grid.compute_distance_field(beacon)
        distances.flags.writeable = False
        self._distances = distances
        return distances

    def index_field(self, table, distances: np.ndarray) -> np.ndarray:
        """The LUT index field of ``distances`` under ``table``.

        Only the memo's own distance field with the memo's table reuses
        or fills the held index field; any other pair is computed afresh
        and not held.
        """
        index = self._index
        held = distances is self._distances and table is self._table
        if held and index is not None:
            self.index_hits += 1
            return index
        self.index_misses += 1
        index = table.lut_index_for(distances)
        index.flags.writeable = False
        if held:
            self._index = index
        return index

    def store_constraint(self, bin_key: int, field: np.ndarray) -> np.ndarray:
        """Hold a freshly computed constraint field (made read-only)."""
        field.flags.writeable = False
        self._constraints[bin_key] = field
        return field

    def __len__(self) -> int:
        """Fields currently held: at most one position's worth."""
        return (
            (self._distances is not None)
            + (self._index is not None)
            + len(self._constraints)
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
