"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from perfbench import compare, run, serve_fleet, sim_workloads, spans

run._import_program()

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _benchmark():
    with open(run.BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def _tiny(name, duration_s=30.0):
    return replace(sim_workloads.WORKLOADS[name], duration_s=duration_s,
                   panel=1)


class TestMetricNames:
    def test_benchmark_json_names_are_wellformed_and_unique(self):
        benchmark = _benchmark()
        names = [m["name"] for m in benchmark["end_to_end"]]
        names += [m["name"] for m in benchmark["per_layer"]]
        names += [w["name"] for w in benchmark["workloads"]]
        assert all(NAME.match(n) and len(n) <= 64 for n in names)
        assert len(names) == len(set(names))
        assert [w["name"] for w in benchmark["workloads"]] == list(
            run.WORKLOADS
        )

    def test_every_emitted_metric_is_listed(self, monkeypatch):
        benchmark = _benchmark()
        end_to_end = {m["name"] for m in benchmark["end_to_end"]}
        per_layer = {m["name"] for m in benchmark["per_layer"]}
        emitted_layers = set()
        for name in ("fig7-cocoa", "rf-dense-faults"):
            workload = _tiny(name)
            plain = sim_workloads.measure(workload, 1, 0.1, {})
            traced = sim_workloads.measure_traced(workload, 1, 0.1, {})
            assert plain["failed"] == traced["failed"] == 0
            assert set(plain["metrics"]) == end_to_end
            emitted_layers |= set(traced["metrics"])
        monkeypatch.setattr(serve_fleet, "SETUPS", 1)
        plain = serve_fleet.measure(run.ROOT, 1, 0.5)
        traced = serve_fleet.measure_traced(run.ROOT, 1, 0.5)
        assert plain["failed"] == traced["failed"] == 0, (
            plain["problems"] + traced["problems"]
        )
        assert set(plain["metrics"]) == end_to_end
        emitted_layers |= set(traced["metrics"])
        assert all(NAME.match(n) for n in emitted_layers)
        assert emitted_layers == per_layer


class TestLedger:
    def test_self_time_is_span_time_minus_child_time(self):
        # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9] > a [6, 7]
        names = ["root", "a", "b", "c"]
        parents = np.array([-1, 0, 1, 0, 3])
        name_idx = np.array([0, 1, 2, 3, 1])
        starts = np.array([0.0, 1.0, 2.0, 5.0, 6.0])
        ends = np.array([10.0, 4.0, 3.0, 9.0, 7.0])
        out = spans.ledger(parents, name_idx, starts, ends, names)
        assert out["root"] == {"count": 1, "self_s": 3.0}
        assert out["a"] == {"count": 2, "self_s": 3.0}
        assert out["b"] == {"count": 1, "self_s": 1.0}
        assert out["c"] == {"count": 1, "self_s": 3.0}
        assert sum(v["self_s"] for v in out.values()) == 10.0

    def test_recorder_nests_wrapped_calls(self):
        ticks = iter(range(100))
        recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
        inner = recorder.wrap(lambda: None, "inner")
        outer = recorder.wrap(lambda: inner() or inner(), "outer")
        root = recorder.open(spans.ROOT)
        outer()
        recorder.close(root)
        records = recorder.records()
        assert [(r[1], r[2]) for r in records] == [
            (-1, spans.ROOT), (0, "outer"), (1, "inner"), (1, "inner"),
        ]
        ledger = recorder.ledger()
        assert ledger["inner"] == {"count": 2, "self_s": 2.0}
        assert ledger["outer"]["self_s"] == 5.0 - 2.0
        assert sum(v["self_s"] for v in ledger.values()) == 7.0


class TestOpenLoop:
    def test_latency_counts_a_stall_from_the_due_time(self):
        stall_s = 0.3
        windows = serve_fleet.make_windows(3, 20)

        async def scenario():
            loop = asyncio.get_running_loop()
            state = {"closes": 0, "until": 0.0}

            async def handle(reader, writer):
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    request = json.loads(line)
                    if request.get("event") == "close":
                        state["closes"] += 1
                        if state["closes"] == 6:
                            state["until"] = loop.time() + stall_s
                    await asyncio.sleep(max(0.0, state["until"] - loop.time()))
                    writer.write(b'{"ok":true,"fixed":true}\n')
                    await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await serve_fleet.offer(port, windows, rate=100.0)
            finally:
                server.close()
                await server.wait_closed()

        outcomes = asyncio.run(scenario())
        assert all(o.close is not None for o in outcomes)
        # Window 6 was due 10 ms after the stalled close; it is sent on
        # schedule and its latency from the due time carries the stall.
        due_latency = outcomes[6].close_at - outcomes[6].due
        assert outcomes[6].sent - outcomes[6].due < 0.05
        assert due_latency >= stall_s - 0.02
        assert outcomes[0].close_at - outcomes[0].due < stall_s / 2


class TestDigests:
    @pytest.mark.parametrize("name", ["fig7-cocoa", "rf-dense-faults"])
    def test_traced_digest_equals_untraced(self, name):
        workload = _tiny(name, duration_s=25.0)
        seeds = workload.seeds(2)
        plain = sim_workloads.run_pass(workload, seeds)
        recorder = spans.SpanRecorder()
        with spans.Patches(recorder, spans.SIM_TARGETS):
            traced = sim_workloads.run_pass(workload, seeds)
        assert [s.digest for s in traced] == [s.digest for s in plain]
        assert len(recorder) > 0

    def test_recorded_digest_mismatch_is_a_failed_operation(self):
        workload = _tiny("fig7-cocoa", duration_s=20.0)
        outcome = sim_workloads.measure(
            workload, 1, 0.1, {str(workload.seeds(1)[0]): "0" * 64}
        )
        assert outcome["failed"] == 1
        line = run.result_line(outcome, _benchmark()["end_to_end"], False)
        assert line["correct"] is False and line["failed"] == 1


class TestCompare:
    def test_rule_of_section_8(self):
        parent = [100.0 + i % 3 for i in range(10)]
        faster = [90.0 + i % 3 for i in range(10)]
        assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == (
            "improved"
        )
        slower = [120.0 + i % 3 for i in range(10)]
        assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == (
            "REGRESSED"
        )
        noisy = [60.0, 140.0] * 5
        assert compare.verdict(noisy, noisy, "lower", 0.1)["verdict"] == (
            "unresolved"
        )
        assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == (
            "unchanged"
        )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(run.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7-cocoa",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
