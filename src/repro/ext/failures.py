"""Failure injection and Sync-robot failover.

The paper deploys CoCoA in disaster-response scenarios where robots *will*
die — falls, crushed chassis, drained batteries — yet it designates a
single Sync robot as the source of all synchronization.  This module makes
that single point of failure survivable and lets experiments measure how
the team degrades:

- :class:`FailureSchedule` / :class:`ResilientTeam` kill robots at chosen
  times: the radio powers off, the coordinator halts, and the robot stops
  counting toward localization metrics from that moment on (its error
  samples become NaN; :class:`~repro.core.team.TeamResult` aggregates with
  NaN-aware means).
- :class:`SyncFailover` gives every anchor a takeover rule: an anchor that
  misses ``threshold`` consecutive expected SYNCs begins waiting its
  *rank* (position among anchor ids) in further silent periods, then
  promotes itself to Sync robot.  Rank staggering makes the lowest alive
  anchor win without any extra protocol traffic, and a self-promoted
  anchor demotes itself the moment it hears SYNC from a lower id — the
  classic bully-style resolution, paid for entirely with messages CoCoA
  already sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.core.config import CoCoAConfig
from repro.core.coordinator import Coordinator, SyncPayload
from repro.core.pdf_table import PdfTable
from repro.core.team import CoCoATeam


@dataclass(frozen=True)
class FailureSchedule:
    """Robot deaths to inject: (time_s, node_id) pairs.

    Entries are sorted and de-duplicated at construction, so the kill
    events :meth:`ResilientTeam.run` schedules — and therefore the
    simulation outcome — never depend on the order the caller listed
    them in.
    """

    failures: Tuple[Tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        for time_s, node_id in self.failures:
            if time_s < 0:
                raise ValueError(
                    "failure time must be non-negative, got %r" % time_s
                )
            if node_id < 0:
                raise ValueError(
                    "node id must be non-negative, got %r" % node_id
                )
        object.__setattr__(
            self, "failures", tuple(sorted(set(self.failures)))
        )

    @staticmethod
    def of(*failures: Tuple[float, int]) -> "FailureSchedule":
        """Convenience constructor: ``FailureSchedule.of((100.0, 3))``."""
        return FailureSchedule(tuple(failures))


class SyncFailover:
    """One anchor's Sync-robot takeover logic.

    Args:
        team: the owning team (provides SYNC sending machinery).
        node_id: this anchor's id.
        rank: this anchor's position among anchor ids (0 = first backup).
        coordinator: this anchor's coordinator.
        threshold: consecutive silent periods before the rank counter
            starts; total silence before takeover is ``threshold + rank``
            periods.
    """

    def __init__(
        self,
        team: "ResilientTeam",
        node_id: int,
        rank: int,
        coordinator: Coordinator,
        threshold: int = 3,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1, got %r" % threshold)
        self._team = team
        self.node_id = node_id
        self.rank = rank
        self._coordinator = coordinator
        self._threshold = threshold
        self._last_sync_count = 0
        self.silent_periods = 0
        self.is_acting_sync = False
        self.takeovers = 0

    def on_window_close(self) -> None:
        """Called each period: track SYNC silence, maybe take over.

        Taking over additionally requires having *listened continuously*
        (coordinator resync mode, radio never sleeping) for at least one
        full period.  A backup whose own clock drifted during the outage
        would otherwise promote itself without ever being able to hear
        that a lower-ranked backup already took over — a split-brain with
        two Sync robots on diverged timelines.
        """
        received = self._coordinator.syncs_received
        if received > self._last_sync_count:
            self.silent_periods = 0
        else:
            self.silent_periods += 1
        self._last_sync_count = received
        # The stagger lives in the *listening* requirement: backup rank r
        # must have spent 2 + r full periods awake in resync mode hearing
        # nothing.  Every lower-ranked backup promotes (and is heard —
        # the candidates are continuously awake) at least one period
        # earlier, so exactly one new Sync robot emerges even when every
        # backup's clock drifted during the outage.
        if self._coordinator.resync_after is None:
            listened_enough = self.silent_periods >= (
                self._threshold + self.rank
            )
        else:
            # Two periods of spacing per rank: a single lost SYNC from the
            # newly promoted backup must not trigger the next one.
            listened_enough = (
                self._coordinator.resync_periods >= 2 + 2 * self.rank
            )
        if (
            not self.is_acting_sync
            and self.silent_periods >= self._threshold
            and listened_enough
        ):
            self._take_over()

    def _take_over(self) -> None:
        self.is_acting_sync = True
        self.takeovers += 1
        self._coordinator.suppress_resync = True
        node = self._team.nodes[self.node_id]
        if node.multicast is not None:
            node.multicast.promote_to_source()

    def on_sync_heard(self, payload: SyncPayload) -> None:
        """Demote if a lower-id (healthier-ranked) Sync robot is alive."""
        self.silent_periods = 0
        if (
            self.is_acting_sync
            and payload.source_id >= 0
            and payload.source_id < self.node_id
        ):
            self.is_acting_sync = False
            self._coordinator.suppress_resync = False
            node = self._team.nodes[self.node_id]
            if node.multicast is not None and not node.is_sync_robot:
                node.multicast.demote_from_source()


class ResilientTeam(CoCoATeam):
    """A CoCoA team with injected failures and Sync failover.

    Args:
        config: base scenario.
        schedule: robot deaths to inject.
        failover: enable the anchors' Sync takeover rule.
        failover_threshold: silent periods before the first backup reacts.
        pdf_table: optional pre-built calibration.

    Whole-robot deaths compose with the channel/sensor faults of
    :mod:`repro.faults` that ``config.faults`` describes.
    """

    def __init__(
        self,
        config: CoCoAConfig,
        schedule: FailureSchedule = FailureSchedule(),
        failover: bool = True,
        failover_threshold: int = 3,
        resync_after_silent_periods: Optional[int] = 3,
        pdf_table: Optional[PdfTable] = None,
    ) -> None:
        self.schedule = schedule
        self._failover_enabled = failover
        self._failover_threshold = failover_threshold
        self._resync_after = resync_after_silent_periods
        self.failovers: Dict[int, SyncFailover] = {}
        self.dead: Set[int] = set()
        super().__init__(config, pdf_table=pdf_table)
        self._wire_failover()

    def _build_coordinator(self, *args, **kwargs) -> Coordinator:
        coordinator = super()._build_coordinator(*args, **kwargs)
        coordinator.resync_after = self._resync_after
        return coordinator

    # -- failover wiring ------------------------------------------------------

    def _wire_failover(self) -> None:
        if not self._failover_enabled:
            return
        anchors = [n for n in self.nodes if n.is_anchor and n.coordinator]
        backups = [n for n in anchors if not n.is_sync_robot]
        for rank, node in enumerate(sorted(backups, key=lambda n: n.node_id)):
            component = SyncFailover(
                self,
                node.node_id,
                rank,
                node.coordinator,
                threshold=self._failover_threshold,
            )
            self.failovers[node.node_id] = component
            self._hook_anchor(node, component)

    def _hook_anchor(self, node, component: SyncFailover) -> None:
        coordinator = node.coordinator

        def start_with_failover() -> None:
            if component.is_acting_sync and node.multicast is not None:
                self._sync_round(node.multicast, coordinator.clock)

        coordinator.add_window_close_hook(component.on_window_close)
        coordinator.add_window_start_hook(start_with_failover)
        if node.multicast is not None:
            node.multicast.on_data(
                lambda body, rp, c=component: (
                    c.on_sync_heard(body)
                    if isinstance(body, SyncPayload)
                    else None
                )
            )

    # -- failure injection ------------------------------------------------------

    def kill(self, node_id: int) -> None:
        """Kill a robot immediately: radio off, schedule halted.

        Idempotent; killing an unknown id raises ``KeyError``.
        """
        node = self.nodes[node_id]
        if node_id in self.dead:
            return
        self.dead.add(node_id)
        node.interface.mac.flush()
        node.interface.radio.power_off()
        if node.coordinator is not None:
            node.coordinator.stop()
        self._retire(node_id)

    def run(self):
        for time_s, node_id in self.schedule.failures:
            if time_s > self.config.duration_s:
                continue
            self.sim.schedule_at(time_s, self.kill, node_id, name="failure")
        return super().run()
