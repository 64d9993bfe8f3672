"""Start ``repro serve`` with the benchmark's span wrappers installed.

    python perfbench/serve_launcher.py serve --port 0

Runs the ordinary CLI in this process after patching the serve and
estimator entry points listed in :mod:`perfbench.spans`.  On exit (SIGINT
drains the server as usual) it prints one JSON line with the per-layer
metrics of the server's whole life: the self-time ledger, the queue wait
of every request (from enqueue in ``Shard.submit`` to the worker's
``Shard.handle``), per-request service, ingest and checkpoint-write
times, and the service's own counters.
"""

from __future__ import annotations

import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from perfbench import spans as spanlib  # noqa: E402


def _p(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def main(argv) -> int:
    from repro import cli
    from repro.serve.server import ServiceCore
    from repro.serve.shard import Shard

    recorder = spanlib.SpanRecorder()
    clock = recorder.clock
    enqueued = {}
    waits = []
    cores = []

    submit, handle, core_init = Shard.submit, Shard.handle, ServiceCore.__init__

    def stamped_submit(self, request, trace=None):
        future = submit(self, request, trace)
        if not future.done():  # queued, not shed
            enqueued[id(request)] = clock()
        return future

    def timed_handle(self, request, trace=None):
        queued = enqueued.pop(id(request), None)
        if queued is not None:
            waits.append(clock() - queued)
        return handle(self, request, trace)

    def captured_init(self, *args, **kwargs):
        core_init(self, *args, **kwargs)
        cores.append(self)

    Shard.submit, Shard.handle = stamped_submit, timed_handle
    ServiceCore.__init__ = captured_init
    targets = list(spanlib.SIM_TARGETS) + list(spanlib.SERVE_TARGETS)
    with spanlib.Patches(recorder, targets):
        root = recorder.open(spanlib.ROOT)
        code = cli.main(argv)
        recorder.close(root)
    print(json.dumps(report(recorder, root, waits, cores[0])), flush=True)
    return code


def report(recorder, root: int, waits, core) -> dict:
    spans = recorder.ledger()
    wall_s = recorder.ends[root] - recorder.starts[root]
    stats = core.stats()
    records = recorder.records()
    # Ingest time of a close is the close's duration minus the checkpoint
    # write it performs inside it.
    closes = {i: end - start for i, _p_, name, start, end in records
              if name == "serve.session.close"}
    for _i, parent, name, start, end in records:
        if name == "serve.checkpoint.save" and parent in closes:
            closes[parent] -= end - start
    ms = 1000.0
    wait_ms = np.asarray(waits) * ms

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    other_s = self_s(spanlib.ROOT)
    metrics = {
        "serve.protocol.decode_s": self_s("serve.protocol.decode"),
        "serve.protocol.encode_s": self_s("serve.protocol.encode"),
        "serve.queue.wait_p50_ms": _p(wait_ms, 50),
        "serve.queue.wait_p99_ms": _p(wait_ms, 99),
        "serve.queue.depth_max": float(stats.get("serve_queue_depth_max", 0.0)),
        "serve.shard.self_s": self_s("serve.shard.service"),
        "serve.shard.service_p50_ms": _p(
            recorder.durations("serve.shard.service") * ms, 50
        ),
        "serve.session.self_s": (
            self_s("serve.session") + self_s("serve.session.close")
        ),
        "serve.session.ingest_p50_ms": _p(
            np.fromiter(closes.values(), dtype=float) * ms, 50
        ),
        "serve.checkpoint.saves": float(
            stats.get("serve_checkpoints_saved", 0.0)
        ),
        "serve.checkpoint.self_s": self_s("serve.checkpoint.save"),
        "serve.checkpoint.save_p50_ms": _p(
            recorder.durations("serve.checkpoint.save") * ms, 50
        ),
        "serve.calibration.self_s": self_s("serve.calibration"),
        "serve.loop.idle_s": self_s("serve.loop.idle"),
        "serve.shed": float(stats.get("serve_shed_total_all", 0.0)),
        "obs.spans_recorded": float(len(core.tracer.records())),
        "core.estimator.self_s": self_s("core.estimator"),
        "core.bayes.apply_beacon_calls": float(
            spans.get("core.bayes.apply_beacon", {}).get("count", 0)
        ),
        "core.bayes.apply_beacon_s": self_s("core.bayes.apply_beacon"),
        "core.pdf_table.lookup_s": self_s("core.pdf_table.lookup"),
        "other_s": other_s,
        "bench.traced_wall_s": wall_s,
        "bench.attributed_share": 1.0 - other_s / wall_s,
    }
    return {
        "metrics": metrics,
        "problems": spanlib.ledger_problems(spans, wall_s),
        "spans": len(recorder),
    }


if __name__ == "__main__":
    # The benchmark stops the server with SIGINT, which a parent started
    # as a background job would otherwise pass on as ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.exit(main(sys.argv[1:]))
