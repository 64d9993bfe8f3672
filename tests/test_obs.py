"""Unit tests for ``repro.obs``: spans, sampling, exporters, views.

Everything here drives the tracer with a fake relative clock — no test
sleeps, and every asserted duration is exact arithmetic on the fake
clock's ticks.
"""

import json

import pytest

from repro.obs import oplog, trace
from repro.obs.oplog import OpsLog
from repro.obs.summary import (
    hop_table,
    render_slowest,
    render_summary,
    slowest_traces,
)
from repro.obs.trace import RequestTracer
from repro.serve.protocol import FixRequest, WindowRequest
from repro.serve.server import ServeConfig
from repro.telemetry.export import (
    perfetto_trace_events,
    read_trace_jsonl,
    write_jsonl,
    write_perfetto_json,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import Ring


class FakeClock:
    """A hand-cranked relative clock."""

    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def make_tracer(mode="always", clock=None, registry=None, **settings):
    """A tracer at ``ServeConfig``'s trace settings, ``settings``
    overriding them."""
    config = ServeConfig(trace_mode=mode, **settings)
    return RequestTracer(
        config.trace_mode,
        config.trace_sample_every,
        config.trace_slow_ms,
        clock=clock if clock is not None else FakeClock(),
        registry=registry if registry is not None else MetricsRegistry(),
        id_entropy="test",
    )


REQUEST = FixRequest(tenant="acme", robot=3, rid=7)


class TestActiveTrace:
    def test_root_and_queue_open_at_begin(self):
        clock = FakeClock()
        tracer = make_tracer(clock=clock)
        active = tracer.begin(REQUEST)
        names = [span.name for span in active.spans]
        assert names == ["request", "queue"]
        assert active.root.attrs == {"op": "fix", "tenant": "acme", "rid": 7}
        assert active.spans[1].parent_id == active.root.span_id

    def test_dequeued_closes_queue_opens_service(self):
        clock = FakeClock()
        tracer = make_tracer(clock=clock)
        active = tracer.begin(REQUEST)
        clock.tick(0.010)
        service = active.dequeued()
        assert active.queue_span.duration_s == pytest.approx(0.010)
        assert service.name == "shard_service"
        assert service.end_s is None
        clock.tick(0.005)
        active.close_span(service)
        assert service.duration_s == pytest.approx(0.005)

    def test_hop_context_manager_closes_on_exit(self):
        clock = FakeClock()
        tracer = make_tracer(clock=clock)
        active = tracer.begin(REQUEST)
        with active.hop("checkpoint", robot=3) as span:
            clock.tick(0.002)
        assert span.duration_s == pytest.approx(0.002)
        assert span.attrs["robot"] == 3

    def test_seal_closes_stragglers_and_tags_error(self):
        clock = FakeClock()
        tracer = make_tracer(clock=clock)
        active = tracer.begin(REQUEST)
        active.open_span("estimator_ingest")
        clock.tick(0.5)
        duration = active.seal("overloaded")
        assert duration == pytest.approx(0.5)
        assert all(span.end_s is not None for span in active.spans)
        assert active.root.attrs["error"] == "overloaded"

    def test_close_span_idempotent(self):
        clock = FakeClock()
        tracer = make_tracer(clock=clock)
        active = tracer.begin(REQUEST)
        span = active.open_span("checkpoint")
        clock.tick(0.001)
        active.close_span(span)
        first_end = span.end_s
        clock.tick(0.001)
        active.close_span(span)
        active.close_span(None)
        assert span.end_s == first_end


class TestSampling:
    def test_off_mode_returns_none(self):
        tracer = make_tracer(mode="off")
        assert tracer.begin(REQUEST) is None
        assert tracer.records() == []

    def test_always_mode_keeps_everything(self):
        tracer = make_tracer(mode="always")
        for _ in range(5):
            active = tracer.begin(REQUEST)
            tracer.finish(active, None)
        traces = {record["trace"] for record in tracer.records()}
        assert len(traces) == 5

    def test_head_sampling_one_in_n(self):
        registry = MetricsRegistry()
        tracer = make_tracer(mode="sampled", trace_sample_every=4,
                             trace_slow_ms=1e9, registry=registry)
        for _ in range(8):
            tracer.finish(tracer.begin(REQUEST), None)
        assert registry.counter("obs_traces_recorded").value == 2.0
        assert registry.counter("obs_traces_sampled_out").value == 6.0

    def test_tail_sampling_keeps_slow_requests(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        tracer = make_tracer(mode="sampled", trace_sample_every=10**6,
                             trace_slow_ms=25.0, clock=clock,
                             registry=registry)
        # Burn the head sample so only the tail rule can keep traces.
        tracer.finish(tracer.begin(REQUEST), None)
        fast = tracer.begin(REQUEST)
        clock.tick(0.001)
        tracer.finish(fast, None)
        slow = tracer.begin(REQUEST)
        clock.tick(0.050)
        tracer.finish(slow, None)
        kept = {record["trace"] for record in tracer.records()}
        assert slow.trace_id in kept
        assert fast.trace_id not in kept
        assert registry.counter("obs_traces_tail_kept").value == 1.0

    def test_adopts_client_stamped_id(self):
        tracer = make_tracer()
        stamped = WindowRequest(tenant="acme", robot=0, event="close",
                                trace="client-42")
        active = tracer.begin(stamped)
        assert active.trace_id == "client-42"

    def test_minted_ids_unique_and_prefixed(self):
        tracer = make_tracer()
        ids = {tracer.mint() for _ in range(100)}
        assert len(ids) == 100
        assert all(minted.startswith("test-") for minted in ids)

    def test_error_response_tagged_on_root(self):
        from repro.serve.protocol import error_response

        tracer = make_tracer()
        active = tracer.begin(REQUEST)
        tracer.finish(active, error_response("overloaded"))
        roots = [record for record in tracer.records()
                 if record["name"] == "request"]
        assert roots[0]["attrs"]["error"] == "overloaded"


class TestSpanBuffer:
    def test_bounded_with_drop_accounting(self):
        ring = Ring(3)
        ring.append(0)
        ring.extend([1, 2, 3, 4])
        assert len(ring) == 3
        assert list(ring) == [2, 3, 4]
        assert ring.dropped == 2
        assert ring.maxlen == 3
        with pytest.raises(ValueError):
            Ring(0)

    def test_tracer_buffer_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_SPANS", 4)
        tracer = make_tracer()
        first = tracer.begin(REQUEST)
        tracer.finish(first, None)
        second = tracer.begin(REQUEST)
        tracer.finish(second, None)
        third = tracer.begin(REQUEST)
        tracer.finish(third, None)
        kept = {record["trace"] for record in tracer.records()}
        assert first.trace_id not in kept
        assert {second.trace_id, third.trace_id} <= kept
        assert tracer.ring.dropped == 2


class TestOpsLog:
    def test_emit_records_relative_time_and_fields(self):
        clock = FakeClock(start=5.0)
        ops = OpsLog(clock=clock)
        ops.emit("shard_restarted", shard=1, restarts=2, error=None)
        clock.tick(1.0)
        ops.emit("session_evicted", tenant="acme", robots=4)
        records = ops.records()
        assert records[0] == {"kind": "shard_restarted", "at_s": 5.0,
                              "shard": 1, "restarts": 2}
        assert records[1]["at_s"] == 6.0
        assert records[1]["tenant"] == "acme"

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(oplog, "MAX_EVENTS", 3)
        ops = OpsLog(clock=FakeClock())
        for index in range(6):
            ops.emit("tick", index=index)
        assert [record["index"] for record in ops.records()] == [3, 4, 5]
        assert ops.ring.dropped == 3

    def test_write_jsonl(self, tmp_path):
        ops = OpsLog(clock=FakeClock())
        ops.emit("tick", index=1)
        path = tmp_path / "ops.jsonl"
        assert write_jsonl(path, ops.records()) == 1
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "tick"


def recorded_spans():
    """A deterministic recording: two traces with distinct shapes."""
    clock = FakeClock()
    tracer = make_tracer(clock=clock)
    fast = tracer.begin(FixRequest(tenant="acme", robot=1, trace="t-fast"))
    clock.tick(0.001)
    service = fast.dequeued()
    clock.tick(0.002)
    fast.close_span(service)
    tracer.finish(fast, None)

    slow = tracer.begin(WindowRequest(tenant="acme", robot=2, event="close",
                                      trace="t-slow"))
    clock.tick(0.004)
    service = slow.dequeued()
    with slow.hop("estimator_ingest"):
        clock.tick(0.030)
    with slow.hop("checkpoint"):
        clock.tick(0.006)
    slow.close_span(service)
    tracer.finish(slow, None)
    return tracer.records()


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        records = recorded_spans()
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(path, records) == len(records)
        assert read_trace_jsonl(path) == records
        assert {record["clock"] for record in records} == {"wall"}

    def test_perfetto_document_shape(self):
        document = perfetto_trace_events(recorded_spans())
        events = document["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        metadata = [event for event in events if event["ph"] == "M"]
        assert complete and metadata
        # One tid track per trace, labelled via metadata.
        assert {event["args"]["name"] for event in metadata} == {
            "trace t-fast", "trace t-slow",
        }
        tids = {event["tid"] for event in complete}
        assert len(tids) == 2
        for event in complete:
            assert event["dur"] >= 0.0
            assert event["cat"] == "wall"
            assert event["args"]["trace"] in ("t-fast", "t-slow")

    def test_perfetto_skips_open_spans(self):
        records = recorded_spans()
        records.append({"trace": "t-open", "span": 9, "parent": None,
                        "name": "request", "start_s": 0.0, "end_s": None,
                        "attrs": {}})
        document = perfetto_trace_events(records)
        names = {event["args"].get("trace")
                 for event in document["traceEvents"]
                 if event["ph"] == "X"}
        assert "t-open" not in names

    def test_write_perfetto_json_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.perfetto.json"
        count = write_perfetto_json(path, recorded_spans())
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert count == len(recorded_spans())
        assert document["displayTimeUnit"] == "ms"


class TestSummary:
    def test_hop_table_attribution(self):
        rows = hop_table(recorded_spans())
        byname = {row["name"]: row for row in rows}
        assert rows[0]["name"] == "request"
        assert rows[0]["share"] == pytest.approx(1.0)
        assert byname["estimator_ingest"]["mean_ms"] == pytest.approx(30.0)
        assert byname["checkpoint"]["total_ms"] == pytest.approx(6.0)
        assert byname["queue"]["count"] == 2
        # Hops sorted by total time after the root row.
        hop_totals = [row["total_ms"] for row in rows[1:]]
        assert hop_totals == sorted(hop_totals, reverse=True)

    def test_slowest_traces_ranked_with_hops(self):
        entries = slowest_traces(recorded_spans(), n=1)
        assert len(entries) == 1
        assert entries[0]["trace"] == "t-slow"
        assert entries[0]["duration_ms"] == pytest.approx(40.0)
        assert entries[0]["hops"]["estimator_ingest"] == pytest.approx(30.0)

    def test_render_views_are_stable_text(self):
        records = recorded_spans()
        summary = render_summary(records)
        assert "2 traces" in summary
        assert "estimator_ingest" in summary
        slowest = render_slowest(records, n=2)
        assert slowest.splitlines()[0].lstrip().startswith("1. t-slow")
        assert render_summary([]) == "no closed spans recorded"
        assert render_slowest([]) == "no closed spans recorded"
