"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import Simulator, SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_fire_in_fifo_order(self):
        sim = Simulator()
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_callback_args_passed(self):
        sim = Simulator()
        got = []
        sim.schedule(0.0, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]

    def test_events_scheduled_from_callbacks(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(sim.now)
            if depth:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_later_events_survive_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == ["b"]

    def test_run_until_exact_event_time_includes_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "x")
        sim.run(until=2.0)
        assert fired == ["x"]

    def test_run_until_past_rejected(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run(until=3.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_run_empty_queue_advances_clock_to_until(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(0.0, reenter)
        sim.run()
        assert len(errors) == 1


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending_count == 1

    def test_events_processed_counts_only_fired(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        cancelled = sim.schedule(2.0, lambda: None)
        cancelled.cancel()
        sim.run()
        assert sim.events_processed == 1


class TestStepAndClear:
    def test_step_processes_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step()
        assert fired == ["a"]

    def test_step_on_empty_queue_returns_false(self):
        assert not Simulator().step()

    def test_step_skips_cancelled(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        event.cancel()
        assert sim.step()
        assert fired == ["b"]

    def test_clear_drops_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.clear()
        sim.run()
        assert fired == []


class TestScheduleTimeGuards:
    """Non-finite timestamps must be rejected, not silently enqueued.

    ``time < now`` is False for NaN, so a plain in-the-past check waves
    NaN through — and a NaN timestamp poisons heap ordering for every
    event scheduled after it.
    """

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_schedule_at_non_finite_rejected(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)
        assert sim.pending_count == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_schedule_non_finite_delay_rejected(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        assert sim.pending_count == 0


class TestPendingCountLiveCounter:
    """pending_count is a live O(1) counter, exact under cancel/fire/clear."""

    def test_schedule_increments_and_fire_decrements(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_count == 2
        sim.step()
        assert sim.pending_count == 1
        sim.run()
        assert sim.pending_count == 0

    def test_cancel_decrements_immediately(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending_count == 1

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_count == 0

    def test_clear_resets_counter_and_marks_handles(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.clear()
        assert sim.pending_count == 0
        assert event.cancelled
        # A late cancel() of a cleared handle must not drive it negative.
        event.cancel()
        assert sim.pending_count == 0

    def test_cancel_after_fire_does_not_corrupt_counter(self):
        """A late cancel() of an already-fired handle must be a no-op."""
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        event.cancel()
        assert sim.pending_count == 0
        sim.schedule(3.0, lambda: None)
        assert sim.pending_count == 1


class TestStepAndClearCounters:
    def test_step_across_cancelled_runs(self):
        """step() must discard arbitrarily long cancelled runs lazily."""
        sim = Simulator()
        fired = []
        cancelled = [sim.schedule(1.0 + i, lambda: None) for i in range(4)]
        sim.schedule(10.0, fired.append, "live")
        for event in cancelled:
            event.cancel()
        assert sim.step()
        assert fired == ["live"]
        assert sim.now == 10.0
        assert sim.events_cancelled == 4
        assert sim.events_processed == 1
        assert not sim.step()

    def test_clear_does_not_count_as_lazy_cancellations(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.clear()
        sim.run()
        # events_cancelled only counts lazy pop-time discards.
        assert sim.events_cancelled == 0
        assert sim.events_processed == 0

    def test_clear_preserves_processed_count(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        sim.clear()
        assert sim.events_processed == 1


class _ReferenceScheduler:
    """Linear-scan model of the engine's contract: fire the live entry
    with the least (time, scheduling order), with lazy cancellation."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.pending_count = 0
        self._entries = []
        self._seq = 0

    def schedule_at(self, time, callback, *args):
        entry = _ReferenceEvent(self, (time, self._seq), callback, args)
        self._seq += 1
        self._entries.append(entry)
        self.pending_count += 1
        return entry

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def run(self):
        while self._entries:
            entry = min(self._entries, key=lambda e: e.key)
            self._entries.remove(entry)
            if entry.cancelled:
                continue
            entry.fired = True
            self.pending_count -= 1
            self.now = entry.key[0]
            self.events_processed += 1
            entry.callback(*entry.args)


class _ReferenceEvent:
    def __init__(self, owner, key, callback, args):
        self.owner = owner
        self.key = key
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self):
        if not (self.cancelled or self.fired):
            self.cancelled = True
            self.owner.pending_count -= 1


class TestFiringOrderAgainstReference:
    """The heap must fire the identical (time, seq) sequence a naive
    linear-scan scheduler fires, under randomized mixes of periodic
    timers, aperiodic one-shots (including far-future ones), same-
    timestamp ties, mid-callback scheduling, and cancellations."""

    @staticmethod
    def _scenario(seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        oneshots = [
            (float(rng.uniform(0.0, 400.0)), "one-%d" % i)
            for i in range(int(rng.integers(5, 25)))
        ]
        # A clump of exact ties exercises FIFO ordering.
        tie_time = float(rng.uniform(0.0, 50.0))
        oneshots += [(tie_time, "tie-%d" % i) for i in range(3)]
        periodics = [
            (
                float(rng.uniform(0.0, 10.0)),       # start delay
                float(rng.uniform(0.05, 7.0)),       # period
                int(rng.integers(3, 40)),            # fires
                "per-%d" % i,
            )
            for i in range(int(rng.integers(2, 6)))
        ]
        # chains: when `src` fires, schedule a follow-up `delta` later
        # (inserts ahead of, among and behind the pending events).
        chains = {
            "one-%d" % int(rng.integers(0, 5)): float(rng.uniform(0.0, 30.0))
            for _ in range(3)
        }
        # cancels: when `src` fires, cancel the handle of `victim`.
        cancels = {
            "per-0": "one-0",
            "one-1": "per-1",
        }
        return oneshots, periodics, chains, cancels

    @classmethod
    def _run(cls, seed, sim):
        oneshots, periodics, chains, cancels = cls._scenario(seed)
        log = []
        handles = {}

        def fire(tag):
            log.append((sim.now, tag))
            delta = chains.get(tag)
            if delta is not None:
                sub = "%s+sub" % tag
                handles[sub] = sim.schedule(delta, fire, sub)
            victim = cancels.get(tag)
            if victim is not None:
                handle = handles.get(victim)
                if handle is not None:
                    handle.cancel()

        def periodic(tag, period, remaining):
            log.append((sim.now, tag))
            if remaining > 1:
                handles[tag] = sim.schedule(
                    period, periodic, tag, period, remaining - 1
                )

        for time, tag in oneshots:
            handles[tag] = sim.schedule_at(time, fire, tag)
        # One event far beyond every other.
        handles["far"] = sim.schedule_at(9_999.0, fire, "far")
        for delay, period, fires, tag in periodics:
            handles[tag] = sim.schedule(delay, periodic, tag, period, fires)
        sim.run()
        return log, sim.events_processed, sim.pending_count

    @pytest.mark.parametrize("seed", range(8))
    def test_firing_sequence_identical(self, seed):
        heap_log, heap_n, heap_pending = self._run(seed, Simulator())
        ref_log, ref_n, ref_pending = self._run(seed, _ReferenceScheduler())
        assert heap_log == ref_log
        assert heap_n == ref_n
        assert heap_pending == ref_pending == 0
