"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.obs.trace import RequestTracer
from repro.serve.protocol import FixRequest, WindowRequest
from repro.serve.server import ServeConfig


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults_match_paper(self):
        args = build_parser().parse_args(["run"])
        assert args.robots == 50
        assert args.anchors == 25
        assert args.period == 100.0
        assert args.mode == "cocoa"

    def test_figure_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mode", "teleport"])


class TestRunCommand:
    def test_small_cocoa_run(self):
        code, output = run_cli([
            "run", "--robots", "12", "--anchors", "6", "--period", "30",
            "--duration", "65", "--seed", "3",
        ])
        assert code == 0
        assert "time-average" in output
        assert "team total" in output
        assert "beacons" in output

    def test_odometry_mode_forces_no_anchors(self):
        code, output = run_cli([
            "run", "--mode", "odometry_only", "--robots", "10",
            "--duration", "40", "--seed", "2",
        ])
        assert code == 0
        assert "(0 anchors)" in output

    def test_no_coordination_flag(self):
        code, output = run_cli([
            "run", "--robots", "10", "--anchors", "5", "--period", "20",
            "--duration", "45", "--no-coordination", "--seed", "2",
        ])
        assert code == 0
        # Radios never slept.
        assert "sleep_j              0.00 J" in output

    def test_particle_filter_option(self):
        code, output = run_cli([
            "run", "--robots", "10", "--anchors", "5", "--period", "20",
            "--duration", "45", "--filter", "particle", "--seed", "2",
        ])
        assert code == 0
        assert "fixes" in output


class TestFigureCommand:
    def test_fig5(self):
        code, output = run_cli(["figure", "fig5"])
        assert code == 0
        assert "odometry error" in output

    def test_fig1(self):
        code, output = run_cli(["figure", "fig1"])
        assert code == 0
        assert "gaussian" in output
        assert "histogram" in output

    def test_fig4_short(self):
        code, output = run_cli(["figure", "fig4", "--duration", "60"])
        assert code == 0
        assert "v_max=0.5" in output and "v_max=2.0" in output


class TestSweepCommand:
    ARGS = [
        "sweep", "--robots", "10", "--anchors", "5", "--period", "20",
        "--duration", "45", "--area", "60",
    ]

    def test_default_seeds(self):
        code, output = run_cli(self.ARGS)
        assert code == 0
        assert "5 seeds" in output
        assert "error" in output and "energy" in output

    def test_explicit_seed_list(self):
        code, output = run_cli(self.ARGS + ["--seeds", "2,4"])
        assert code == 0
        assert "2 seeds" in output

    def test_num_seeds(self):
        code, output = run_cli(self.ARGS + ["--num-seeds", "3"])
        assert code == 0
        assert "3 seeds" in output
        assert "[3/3]" in output  # per-job progress lines

    def test_bad_seed_list_rejected(self):
        code, output = run_cli(self.ARGS + ["--seeds", "1,zap"])
        assert code == 2
        assert "invalid" in output

    def test_single_seed_rejected(self):
        code, output = run_cli(self.ARGS + ["--seeds", "7"])
        assert code == 2
        assert "at least 2" in output

    def test_seeds_and_num_seeds_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--seeds", "1,2", "--num-seeds", "2"]
            )

    def test_parallel_matches_serial(self):
        code_s, out_s = run_cli(self.ARGS + ["--seeds", "1,2"])
        code_p, out_p = run_cli(self.ARGS + ["--seeds", "1,2", "--jobs", "2"])
        assert code_s == code_p == 0
        # identical per-seed tables; only the worker-count header differs
        table_s = out_s[out_s.index("\nseed"):]
        table_p = out_p[out_p.index("\nseed"):]
        assert table_s == table_p

    def test_cache_warm_rerun(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cold_args = self.ARGS + ["--seeds", "1,2", "--cache"]
        code, output = run_cli(cold_args)
        assert code == 0
        assert "cache: 0 hits, 2 misses, 2 stored" in output
        code, output = run_cli(cold_args)
        assert code == 0
        assert "cache: 2 hits, 0 misses, 0 stored" in output
        code, output = run_cli(cold_args + ["--clear-cache"])
        assert code == 0
        assert "cache: 0 hits, 2 misses, 2 stored" in output


class TestFigureOrchestrationFlags:
    def test_fig4_with_jobs_and_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = ["figure", "fig4", "--duration", "60", "--jobs", "2",
                "--cache-dir", cache_dir]
        code, cold = run_cli(args)
        assert code == 0
        assert "v_max=0.5" in cold and "v_max=2.0" in cold
        assert "2 stored" in cold
        code, warm = run_cli(args)
        assert code == 0
        assert "2 hits, 0 misses" in warm
        # cached figure data is identical to the freshly simulated data
        assert [l for l in cold.splitlines() if l.startswith("v_max")] == \
               [l for l in warm.splitlines() if l.startswith("v_max")]


class TestCalibrateCommand:
    def test_prints_table(self):
        code, output = run_cli(["calibrate", "--samples", "30000"])
        assert code == 0
        assert "bins:" in output
        assert "gaussian" in output


class TestResilienceCommand:
    def test_small_resilience_sweep(self):
        code, output = run_cli([
            "resilience", "--robots", "12", "--anchors", "6",
            "--period", "30", "--duration", "65", "--area", "100",
            "--seed", "3", "--intensities", "0,1",
        ])
        assert code == 0
        assert "undefended (m)" in output
        assert "defended (m)" in output
        # One table row per requested intensity.
        assert "\n0 " in output and "\n1 " in output

    def test_bad_intensity_list_rejected(self):
        code, output = run_cli(["resilience", "--intensities", "a,b"])
        assert code == 2
        assert "invalid" in output

    def test_empty_intensity_list_rejected(self):
        code, output = run_cli(["resilience", "--intensities", ","])
        assert code == 2


class _FakeClock:
    """A hand-cranked relative clock: every duration is exact ticks."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


@pytest.fixture
def trace_file(tmp_path):
    """Two requests recorded on a fake clock, dumped as trace JSONL with
    plain ``json`` so the fixture does not depend on the writer."""
    clock = _FakeClock()
    config = ServeConfig()
    tracer = RequestTracer(
        "always", config.trace_sample_every, config.trace_slow_ms,
        clock=clock, id_entropy="cli",
    )
    fast = tracer.begin(FixRequest(tenant="acme", robot=1, rid=4,
                                   trace="t-fast"))
    clock.tick(0.001)
    service = fast.dequeued()
    clock.tick(0.002)
    fast.close_span(service)
    tracer.finish(fast, None)
    slow = tracer.begin(WindowRequest(tenant="acme", robot=2, event="close",
                                      rid=5, trace="t-slow"))
    clock.tick(0.004)
    service = slow.dequeued()
    with slow.hop("estimator_ingest"):
        clock.tick(0.030)
    with slow.hop("checkpoint"):
        clock.tick(0.006)
    slow.close_span(service)
    tracer.finish(slow, None)
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(
        json.dumps(record, sort_keys=True) + "\n"
        for record in tracer.records()
    ))
    return path


class TestTraceCommand:
    def test_summarize(self, trace_file):
        code, output = run_cli(["trace", "summarize", str(trace_file)])
        assert code == 0
        assert output == (
            "8 spans across 2 traces\n"
            "\n"
            "hop               count  total ms  mean ms  p50 ms  p99 ms  share \n"
            "----------------  -----  --------  -------  ------  ------  ------\n"
            "request           2      43.00     21.500   21.500  39.630  100.0%\n"
            "shard_service     2      38.00     19.000   19.000  35.660  88.4% \n"
            "estimator_ingest  1      30.00     30.000   30.000  30.000  69.8% \n"
            "checkpoint        1      6.00      6.000    6.000   6.000   14.0% \n"
            "queue             2      5.00      2.500    2.500   3.970   11.6% \n"
        )

    def test_slowest(self, trace_file):
        code, output = run_cli(["trace", "slowest", str(trace_file),
                                "-n", "1"])
        assert code == 0
        assert output == (
            " 1. t-slow  40.000 ms  op=window tenant=acme rid=5\n"
            "      shard_service        36.000 ms\n"
            "      estimator_ingest     30.000 ms\n"
            "      checkpoint            6.000 ms\n"
            "      queue                 4.000 ms\n"
        )

    def test_export(self, trace_file, tmp_path):
        out_path = tmp_path / "trace.perfetto.json"
        code, output = run_cli(["trace", "export", str(trace_file),
                                "--out", str(out_path)])
        assert code == 0
        assert output == "wrote 8 events to %s\n" % out_path
        document = json.loads(out_path.read_text())
        complete = [event for event in document["traceEvents"]
                    if event["ph"] == "X"]
        assert sorted(
            (event["name"], round(event["dur"], 3)) for event in complete
        ) == [
            ("checkpoint", 6000.0),
            ("estimator_ingest", 30000.0),
            ("queue", 1000.0),
            ("queue", 4000.0),
            ("request", 3000.0),
            ("request", 40000.0),
            ("shard_service", 2000.0),
            ("shard_service", 36000.0),
        ]

    def test_not_json_exits_2(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("this is not json\n")
        code, output = run_cli(["trace", "summarize", str(path)])
        assert code == 2
        assert "not trace JSONL" in output

    def test_missing_file_exits_2(self, tmp_path):
        code, output = run_cli(["trace", "summarize",
                                str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert "cannot read" in output
