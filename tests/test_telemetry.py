"""Tests for the telemetry subsystem: registry, spans, snapshots,
exporters, the report renderer, and the determinism regression.

The load-bearing test here is :class:`TestBitIdenticalRegression`: a run
with rich telemetry enabled must produce byte-identical simulation
output to the same run with telemetry disabled, on both the serial and
process-pool backends.  Telemetry that perturbs results is worse than no
telemetry at all.
"""

import io
import json

import pytest

from repro.analysis.seeds import run_seed_sweep
from repro.core.config import CoCoAConfig
from repro.core.team import CoCoATeam
from repro.experiments.metrics import summarize_errors
from repro.experiments.runner import run_scenario
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.executor import run_sweep
from repro.orchestrator.jobs import seed_jobs
from repro.telemetry.collect import Telemetry
from repro.telemetry.export import (
    prometheus_text,
    read_jsonl,
    read_trace_jsonl,
    write_jsonl,
    write_perfetto_json,
)
from repro.telemetry.registry import (
    COUNT_EDGES,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.report import render_report
from repro.telemetry.snapshot import TelemetrySnapshot, merge_snapshots
from repro.telemetry.spans import DEFAULT_MAX_SPANS, SpanTracer
from repro.util.geometry import Rect


def tiny_config(**overrides):
    """A scenario small enough for per-test simulation."""
    defaults = dict(
        area=Rect.square(60.0),
        n_robots=8,
        n_anchors=4,
        beacon_period_s=20.0,
        duration_s=45.0,
        calibration_samples=6000,
    )
    defaults.update(overrides)
    return CoCoAConfig(**defaults)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("hits").inc(-1.0)

    def test_gauge_set_and_set_max(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5.0)
        gauge.set_max(3.0)
        assert gauge.value == 5.0
        gauge.set_max(9.0)
        assert gauge.value == 9.0

    def test_histogram_buckets_and_quantiles(self):
        hist = Histogram("x", edges=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 10.0):
            hist.observe(value)
        assert hist.bucket_counts == [1, 2, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(16.5)
        assert hist.mean == pytest.approx(3.3)
        assert 0.5 <= hist.quantile(0.5) <= 2.0
        assert hist.quantile(1.0) == 10.0
        assert hist.quantile(0.0) >= 0.5

    def test_histogram_empty_quantile_is_zero(self):
        assert Histogram("x", edges=(1.0,)).quantile(0.9) == 0.0

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram("x", edges=())
        with pytest.raises(ValueError):
            Histogram("x", edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("x", edges=(1.0, 1.0))

    def test_registry_memoizes(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_metrics_flattens_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7.0)
        hist = registry.histogram("h", COUNT_EDGES)
        hist.observe(3.0)
        metrics = registry.metrics()
        assert metrics["c"] == 2.0
        assert metrics["g"] == 7.0
        assert metrics["h_count"] == 1.0
        assert metrics["h_sum"] == 3.0
        assert "h_p50" in metrics and "h_p90" in metrics
        assert list(metrics) == sorted(metrics)

    def test_null_registry_absorbs_everything(self):
        NULL_REGISTRY.counter("a").inc(5)
        NULL_REGISTRY.gauge("b").set_max(9.0)
        NULL_REGISTRY.histogram("c").observe(1.0)
        assert NULL_REGISTRY.metrics() == {}
        assert not NULL_REGISTRY.enabled
        # The shim shares one instrument: nothing is ever allocated.
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("z")


class TestSpanTracer:
    def test_span_lifecycle_and_duration(self):
        tracer = SpanTracer()
        span = tracer.start_span(10.0, "window", node=3, attrs={"index": 1})
        assert span.end_s is None
        assert span.duration_s == 0.0
        tracer.end_span(span, 13.0)
        assert span.duration_s == pytest.approx(3.0)
        assert span.attrs == {"index": 1}
        assert (span.clock, span.trace) == ("sim", 3)

    def test_end_before_start_rejected(self):
        tracer = SpanTracer()
        span = tracer.start_span(10.0, "w")
        with pytest.raises(ValueError):
            tracer.end_span(span, 9.0)

    def test_parent_links_and_children(self):
        tracer = SpanTracer()
        parent = tracer.start_span(0.0, "beacon_round", node=1)
        child = tracer.event(1.0, "beacon_rx", node=2, parent=parent)
        other = tracer.event(2.0, "beacon_rx", node=3)
        assert child.parent_id == parent.span_id
        assert other.parent_id is None
        assert child.as_record()["parent"] == parent.as_record()["span"]

    def test_point_events_are_closed_spans(self):
        tracer = SpanTracer()
        span = tracer.event(5.0, "tick", node=None, attrs={"rssi": -70})
        assert span.start_s == span.end_s == 5.0
        assert span.duration_s == 0.0
        assert span.attrs == {"rssi": -70}

    def test_ring_buffer_drops_oldest(self):
        tracer = SpanTracer(max_records=3)
        for t in range(5):
            tracer.event(float(t), "e", attrs={"seq": t})
        assert len(tracer) == 3
        assert tracer.ring.dropped == 2
        assert [s.attrs["seq"] for s in tracer] == [2, 3, 4]

    def test_invalid_max_records_rejected(self):
        for bad in (0, None):
            with pytest.raises(ValueError):
                SpanTracer(max_records=bad)

    def test_records_filter_and_count(self):
        tracer = SpanTracer()
        tracer.event(0.0, "a")
        tracer.event(1.0, "b")
        tracer.event(2.0, "a")
        assert tracer.count("a") == 2
        assert [s.start_s for s in tracer.records("a")] == [0.0, 2.0]

    def test_bounded_by_default(self):
        tracer = SpanTracer()
        assert tracer.ring.maxlen == DEFAULT_MAX_SPANS
        assert Telemetry().tracer.ring.maxlen == DEFAULT_MAX_SPANS


class TestTraceLogFacade:
    """The filter, attrs and ring the channel's emit sites rely on."""

    def test_only_enabled_categories_recorded(self):
        tracer = SpanTracer(categories=("mac",))
        for t, category in ((1.0, "mac"), (2.0, "phy")):
            if tracer.enabled(category):
                tracer.event(t, category, node=2, attrs={"kind": "send"})
        assert len(tracer) == 1
        span = tracer.records()[0]
        assert (span.start_s, span.name, span.trace) == (1.0, "mac", 2)
        assert span.attrs == {"kind": "send"}

    def test_detail_keys_may_shadow_parameter_names(self):
        # "node"/"parent" inside attrs must not collide with the
        # tracer's own parameters.
        tracer = SpanTracer()
        span = tracer.event(1.0, "route", node=1,
                            attrs={"parent": 7, "node": 9})
        assert span.attrs == {"parent": 7, "node": 9}
        assert (span.trace, span.parent_id) == (1, None)

    def test_ring_buffer_mode(self):
        tracer = SpanTracer(max_records=2, categories=("e",))
        for t in range(4):
            tracer.event(float(t), "e")
        assert tracer.ring.maxlen == 2
        assert len(tracer) == 2
        assert tracer.ring.dropped == 2
        assert [s.start_s for s in tracer] == [2.0, 3.0]

    def test_spans_visible_through_tracer_property(self):
        # Category events and spans share one ring: a point event lands
        # next to the beacon round it happened in.
        tracer = SpanTracer(categories=("sync",))
        round_span = tracer.start_span(0.0, "beacon_round", node=4)
        tracer.event(3.0, "sync", node=4)
        tracer.end_span(round_span, 5.0)
        assert [s.name for s in tracer] == ["beacon_round", "sync"]


class TestSnapshot:
    def test_merge_sums_by_default(self):
        a = TelemetrySnapshot({"net_frames_sent": 2.0})
        a.merge(TelemetrySnapshot({"net_frames_sent": 3.0}))
        assert a.get("net_frames_sent") == 5.0
        assert a.n_runs == 2

    def test_merge_max_and_last_metrics(self):
        a = TelemetrySnapshot(
            {"sim_max_queue_depth": 10.0, "run_n_robots": 8.0}
        )
        a.merge(TelemetrySnapshot(
            {"sim_max_queue_depth": 7.0, "run_n_robots": 16.0}
        ))
        assert a.get("sim_max_queue_depth") == 10.0  # high-water mark
        assert a.get("run_n_robots") == 16.0  # config echo: last wins

    def test_merge_snapshots_is_associative_over_sums(self):
        parts = [TelemetrySnapshot({"x": float(i)}) for i in range(4)]
        left = merge_snapshots(parts[:2])
        left.merge(merge_snapshots(parts[2:]))
        flat = merge_snapshots(parts)
        assert left.metrics == flat.metrics
        assert left.n_runs == flat.n_runs == 4

    def test_record_round_trip(self):
        snapshot = TelemetrySnapshot({"b": 2.0, "a": 1.0}, n_runs=3)
        record = snapshot.as_record()
        assert record == {"n_runs": 3, "metrics": {"a": 1.0, "b": 2.0}}
        back = TelemetrySnapshot.from_mapping(
            record["metrics"], n_runs=record["n_runs"]
        )
        assert back.metrics == snapshot.metrics
        assert back.n_runs == 3


class TestExporters:
    def test_jsonl_round_trip_skips_corrupt_lines(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_jsonl(path, [{"a": 1}, {"b": 2.5}])
        with open(path, "a") as handle:
            handle.write("{not json\n\n")
        write_jsonl(path, [{"c": 3}], mode="a")
        assert read_jsonl(path) == [{"a": 1}, {"b": 2.5}, {"c": 3}]

    def test_prometheus_text_from_registry(self):
        registry = MetricsRegistry()
        registry.counter("frames_sent").inc(4)
        hist = registry.histogram("beacons", edges=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(5.0)
        text = prometheus_text(registry)
        assert "# TYPE repro_frames_sent counter" in text
        assert "repro_frames_sent 4.0" in text
        assert "# TYPE repro_beacons histogram" in text
        assert 'repro_beacons_bucket{le="1.0"} 1' in text
        assert 'repro_beacons_bucket{le="+Inf"} 2' in text
        assert "repro_beacons_count 2" in text
        # Flattened scalars must not double-render next to the buckets.
        assert "# TYPE repro_beacons_count" not in text

    def test_prometheus_text_from_snapshot(self):
        snapshot = TelemetrySnapshot({"run_n_robots": 8.0, "fixes": 3.0})
        text = prometheus_text(snapshot)
        assert "# TYPE repro_run_n_robots gauge" in text
        assert "# TYPE repro_fixes counter" in text

    def test_span_records_are_json_serializable(self):
        tracer = SpanTracer()
        parent = tracer.start_span(1.0, "round", node=1)
        tracer.end_span(parent, 2.0)
        tracer.event(1.5, "rx", node=2, parent=parent)
        records = [span.as_record() for span in tracer]
        assert len(records) == 2
        assert all(r["clock"] == "sim" for r in records)
        assert records[1]["parent"] == records[0]["span"]
        json.dumps(records)


class TestReportRenderer:
    def test_sections_render_from_empty_snapshot(self):
        text = render_report(TelemetrySnapshot({}))
        for section in ("network", "estimator", "radio", "energy",
                        "multicast", "simulation"):
            assert section in text
        assert "orchestrator" not in text
        assert "tracing" not in text

    def test_sweep_and_tracing_sections(self):
        snapshot = TelemetrySnapshot({
            "trace_spans_recorded": 12.0,
            "trace_spans_dropped": 2.0,
            "orchestrator_job_cpu_s": 1.5,
        })
        sweep = {
            "jobs": 4, "cache_hits": 3, "cache_misses": 1, "retried": 0,
            "wall_s": 2.0, "n_workers": 2,
            "job_wall_p50_s": 0.5, "job_wall_p90_s": 0.9,
        }
        text = render_report(snapshot, sweep=sweep)
        assert "hit rate 75.0%" in text
        assert "job wall p50 0.50 s" in text
        assert "spans recorded 12, dropped 2" in text
        assert "job cpu total 1.50 s" in text

    def test_drop_causes_listed(self):
        text = render_report(TelemetrySnapshot({"net_drops_crc": 7.0}))
        assert "crc 7" in text
        for cause in ("below-sensitivity", "collided", "asleep",
                      "half-duplex", "jammed", "brownout"):
            assert cause in text


class TestRunSnapshots:
    """End-to-end: every run carries a base snapshot; rich mode adds to it."""

    def test_base_snapshot_always_present(self):
        result = run_scenario(tiny_config())
        snapshot = result.telemetry
        assert snapshot is not None
        assert snapshot.n_runs == 1
        assert snapshot.get("run_n_robots") == 8.0
        assert snapshot.get("sim_events_processed") > 0
        assert snapshot.get("net_frames_sent") > 0
        assert snapshot.get("energy_total_j") > 0
        assert snapshot.get("coordinator_windows_run") > 0
        # Rich-only keys absent without a Telemetry handle.
        assert "trace_spans_recorded" not in snapshot.metrics

    def test_route_switches_sum_the_nodes(self):
        """``multicast_route_switches`` is the sum of every node's MRMM
        route switches (the team's ``multicast_stats`` leaves them out)."""
        team = CoCoATeam(tiny_config(
            area=Rect.square(120.0), n_robots=12, n_anchors=6,
            duration_s=100.0,
        ))
        result = team.run()
        per_node = sum(
            node.multicast.stats.route_switches for node in team.nodes
        )
        assert per_node > 0
        assert result.telemetry.get("multicast_route_switches") == per_node

    def test_rich_snapshot_adds_registry_and_spans(self):
        telemetry = Telemetry()
        result = run_scenario(tiny_config(), telemetry=telemetry)
        snapshot = result.telemetry
        assert snapshot.get("trace_spans_recorded") > 0
        assert snapshot.get("trace_spans_dropped") == 0.0
        assert snapshot.get("estimator_beacons_per_window_count") > 0
        rounds = telemetry.tracer.records("beacon_round")
        assert rounds
        assert all(s.end_s is not None for s in rounds[:-1])
        # Receive events hang off their window span.
        rx = telemetry.tracer.records("beacon_rx")
        assert rx
        parent_ids = {s.span_id for s in rounds}
        assert all(s.parent_id in parent_ids for s in rx)


class TestSimSpanExport:
    """Sim spans go through the exporters serve traces use."""

    @pytest.fixture(scope="class")
    def records(self):
        telemetry = Telemetry(tracer=SpanTracer(categories=("channel.rx",)))
        run_scenario(tiny_config(), telemetry=telemetry)
        assert telemetry.tracer.count("channel.rx") > 0
        return [span.as_record() for span in telemetry.tracer]

    def test_beacon_rx_hangs_off_its_nodes_round(self, records):
        rounds = {r["span"]: r for r in records if r["name"] == "beacon_round"}
        rx = [r for r in records if r["name"] == "beacon_rx"]
        assert rx
        for record in rx:
            parent = rounds[record["parent"]]
            assert parent["trace"] == record["trace"]

    def test_perfetto_has_one_sim_track_per_node(self, records, tmp_path):
        path = tmp_path / "sim.perfetto.json"
        count = write_perfetto_json(path, records)
        document = json.loads(path.read_text(encoding="utf-8"))
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert count == len(complete) == len(records) > 0
        assert {e["cat"] for e in complete} == {"sim"}
        nodes = {r["trace"] for r in records}
        assert len(nodes) > 1
        tracks = {e["tid"]: e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        assert sorted(tracks.values()) == sorted(
            "node %s" % node for node in nodes
        )
        for event in complete:
            assert tracks[event["tid"]] == "node %s" % event["args"]["trace"]

    def test_jsonl_round_trip_is_exact(self, records, tmp_path):
        path = tmp_path / "sim.jsonl"
        assert write_jsonl(path, records) == len(records)
        assert read_trace_jsonl(path) == records


class TestBitIdenticalRegression:
    """Rich telemetry must never change simulation output."""

    SEEDS = (1, 2)

    def _summaries(self, results):
        return [
            summarize_errors(r.errors, skip_first_s=10.0) for r in results
        ]

    def test_single_run_bit_identical(self):
        plain = run_scenario(tiny_config())
        rich = run_scenario(tiny_config(), telemetry=Telemetry())
        assert plain.errors.tobytes() == rich.errors.tobytes()
        assert plain.times.tolist() == rich.times.tolist()
        assert plain.total_energy_j() == rich.total_energy_j()
        assert self._summaries([plain]) == self._summaries([rich])

    def test_serial_sweep_bit_identical(self):
        off = run_sweep(seed_jobs(tiny_config(), self.SEEDS))
        on = run_sweep(
            seed_jobs(tiny_config(), self.SEEDS, telemetry=True)
        )
        for a, b in zip(off.results, on.results):
            assert a.errors.tobytes() == b.errors.tobytes()
            assert a.beacons_sent == b.beacons_sent
        assert self._summaries(off.results) == self._summaries(on.results)

    def test_process_pool_sweep_bit_identical(self, tmp_path):
        off = run_sweep(seed_jobs(tiny_config(), self.SEEDS), n_jobs=2)
        on = run_sweep(
            seed_jobs(tiny_config(), self.SEEDS, telemetry=True), n_jobs=2
        )
        for a, b in zip(off.results, on.results):
            assert a.errors.tobytes() == b.errors.tobytes()
            assert a.total_energy_j() == b.total_energy_j()
        assert self._summaries(off.results) == self._summaries(on.results)

    def test_telemetry_flag_does_not_change_fingerprint(self):
        plain, rich = (
            seed_jobs(tiny_config(), (1,), telemetry=flag)[0]
            for flag in (False, True)
        )
        assert plain.fingerprint == rich.fingerprint

    def test_seed_sweep_metrics_unchanged_by_telemetry(self, tmp_path):
        off = run_seed_sweep(tiny_config(), seeds=self.SEEDS)
        on = run_seed_sweep(
            tiny_config(), seeds=self.SEEDS,
            telemetry_path=str(tmp_path / "t.jsonl"),
        )
        assert off.error_time_averages_m == on.error_time_averages_m
        assert off.energy_totals_j == on.energy_totals_j


class TestSweepTelemetryStream:
    def test_jsonl_has_one_job_record_per_job_plus_sweep(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        jobs = seed_jobs(tiny_config(), (1, 2), telemetry=True)
        run_sweep(jobs, telemetry_path=path)
        records = read_jsonl(path)
        job_records = [r for r in records if r.get("record") == "job"]
        sweep_records = [r for r in records if r.get("record") == "sweep"]
        assert len(job_records) == 2
        assert len(sweep_records) == 1
        for record in job_records:
            assert record["metrics"]["run_n_robots"] == 8.0
            assert record["metrics"]["trace_spans_recorded"] > 0
            assert not record["cached"]
        assert sweep_records[0]["jobs"] == 2

    def test_sweep_log_written_to_cache(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "c"))
        run_sweep(seed_jobs(tiny_config(), (1, 2)), cache=cache)
        records = cache.sweep_records()
        assert len(records) == 1
        assert records[0]["cache_misses"] == 2
        run_sweep(seed_jobs(tiny_config(), (1, 2)), cache=cache)
        records = cache.sweep_records()
        assert len(records) == 2
        assert records[1]["cache_hits"] == 2


class TestReportCommand:
    def _run_cli(self, argv):
        out = io.StringIO()
        from repro.cli import main

        code = main(argv, out=out)
        return code, out.getvalue()

    def test_report_from_cache(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "c"))
        run_sweep(seed_jobs(tiny_config(), (1, 2)), cache=cache)
        code, output = self._run_cli(
            ["report", "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 0
        assert "2 runs aggregated" in output
        assert "drops by cause" in output
        assert "sleep fraction" in output
        assert "cache hits 0, misses 2" in output

    def test_report_skips_session_checkpoints(self, tmp_path, monkeypatch):
        """A --warm-cache server's checkpoints share the report's cache
        directory: the report renders as without them, reads none of
        them, and counts no error or miss."""
        import repro.orchestrator.cache
        from repro.serve.checkpoint import SessionCheckpoint

        root = str(tmp_path / "c")
        run_sweep(seed_jobs(tiny_config(), (1,)), cache=ResultCache(root=root))
        code, before = self._run_cli(["report", "--cache-dir", root])
        assert code == 0
        fingerprint = "ckpt-" + "a" * 64
        assert ResultCache(root=root).put(fingerprint, SessionCheckpoint(
            fingerprint=fingerprint, tenant="t", hello={}, counters={},
        ))
        opened = []

        class RecordingCache(ResultCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        # The CLI imports the cache class when a command needs it.
        monkeypatch.setattr(
            repro.orchestrator.cache, "ResultCache", RecordingCache
        )
        code, after = self._run_cli(["report", "--cache-dir", root])
        assert code == 0
        assert after == before
        assert "1 run aggregated" in after
        [cache] = opened
        assert len(cache.fingerprints()) == 2
        assert (cache.stats.hits, cache.stats.misses, cache.stats.errors) == (
            1, 0, 0
        )

    def test_report_from_jsonl_and_prometheus(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        run_sweep(
            seed_jobs(tiny_config(), (1, 2), telemetry=True),
            telemetry_path=path,
        )
        code, output = self._run_cli(["report", "--from", path])
        assert code == 0
        assert "2 runs aggregated" in output
        assert "spans recorded" in output
        code, prom = self._run_cli(["report", "--from", path,
                                    "--prometheus"])
        assert code == 0
        assert "# TYPE repro_net_frames_sent counter" in prom

    def test_report_empty_cache_fails_cleanly(self, tmp_path):
        code, output = self._run_cli(
            ["report", "--cache-dir", str(tmp_path / "nothing")]
        )
        assert code == 1
        assert "no telemetry snapshots" in output

    def test_report_missing_jsonl_fails_cleanly(self, tmp_path):
        code, output = self._run_cli(
            ["report", "--from", str(tmp_path / "missing.jsonl")]
        )
        assert code == 2
        assert "cannot read" in output
