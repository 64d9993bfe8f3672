"""Unit tests for PeriodicTimer, RandomStreams and the sim tracer's
category filter."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.timers import PeriodicTimer
from repro.telemetry.spans import SpanTracer


class TestPeriodicTimer:
    def test_fires_at_period_multiples(self):
        sim = Simulator()
        times = []
        PeriodicTimer(sim, 2.0, lambda c: times.append(sim.now))
        sim.run(until=7.0)
        assert times == [0.0, 2.0, 4.0, 6.0]

    def test_start_delay_offsets_first_fire(self):
        sim = Simulator()
        times = []
        PeriodicTimer(
            sim, 2.0, lambda c: times.append(sim.now), start_delay=1.0
        )
        sim.run(until=6.0)
        assert times == [1.0, 3.0, 5.0]

    def test_callback_receives_fire_count(self):
        sim = Simulator()
        counts = []
        PeriodicTimer(sim, 1.0, counts.append)
        sim.run(until=2.5)
        assert counts == [0, 1, 2]

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda c: None)

    def test_invalid_start_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 1.0, lambda c: None, start_delay=-1.0)

    def test_non_finite_period_rejected(self):
        sim = Simulator()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                PeriodicTimer(sim, bad, lambda c: None)

    def test_non_finite_start_delay_rejected(self):
        sim = Simulator()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                PeriodicTimer(sim, 1.0, lambda c: None, start_delay=bad)


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(1)
        assert streams.get("a") is streams.get("a")

    def test_different_names_are_independent(self):
        streams = RandomStreams(1)
        a = streams.get("a").random(5)
        b = streams.get("b").random(5)
        assert list(a) != list(b)

    def test_reproducible_across_instances(self):
        x = RandomStreams(7).get("mobility").random(4)
        y = RandomStreams(7).get("mobility").random(4)
        assert list(x) == list(y)

    def test_different_master_seeds_differ(self):
        x = RandomStreams(7).get("mobility").random(4)
        y = RandomStreams(8).get("mobility").random(4)
        assert list(x) != list(y)

    def test_creation_order_does_not_matter(self):
        s1 = RandomStreams(3)
        s1.get("first")
        a1 = s1.get("second").random(3)
        s2 = RandomStreams(3)
        a2 = s2.get("second").random(3)
        assert list(a1) == list(a2)

    def test_spawn_indexes_streams(self):
        streams = RandomStreams(1)
        assert streams.spawn("odo", 1) is not streams.spawn("odo", 2)
        assert streams.spawn("odo", 1) is streams.spawn("odo", 1)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")


class TestTraceLog:
    """The sim tracer's category filter: per-frame emit sites (the
    channel's ``channel.*`` events) record only enabled categories."""

    @staticmethod
    def emit(tracer, t, category, node=None, **details):
        # The guard every channel emit site runs before building attrs.
        if tracer.enabled(category):
            tracer.event(t, category, node, attrs=details)

    def test_disabled_category_not_recorded(self):
        tracer = SpanTracer()
        self.emit(tracer, 1.0, "x", 1, foo="bar")
        assert not tracer.enabled("x")
        assert len(tracer) == 0

    def test_enabled_category_recorded(self):
        tracer = SpanTracer(categories=["x"])
        self.emit(tracer, 1.0, "x", 1, foo="bar")
        assert tracer.count("x") == 1
        span = tracer.records("x")[0]
        assert span.clock == "sim"
        assert span.start_s == span.end_s == 1.0
        assert span.trace == 1
        assert span.attrs == {"foo": "bar"}

    def test_enable_disable(self):
        tracer = SpanTracer()
        tracer.enable("y")
        assert tracer.enabled("y")
        self.emit(tracer, 0.0, "y")
        tracer.disable("y")
        assert not tracer.enabled("y")
        self.emit(tracer, 1.0, "y")
        assert tracer.count("y") == 1

    def test_records_filtering(self):
        tracer = SpanTracer(categories=["a", "b"])
        self.emit(tracer, 0.0, "a")
        self.emit(tracer, 1.0, "b")
        assert len(tracer.records()) == 2
        assert len(tracer.records("a")) == 1

    def test_iteration(self):
        tracer = SpanTracer(categories=["a"])
        self.emit(tracer, 0.0, "a")
        self.emit(tracer, 1.0, "a")
        assert [span.start_s for span in tracer] == [0.0, 1.0]
