"""Tests for the ASY async-safety family and the runtime sanitizer.

Mirrors test_lint.py's structure: each rule gets a good/bad snippet
corpus linted under virtual paths, so package scoping (serve vs obs vs
sim) is exercised without touching disk.  The second half covers the
import-alias resolution the ASY call classification depends on, and
the runtime sanitizer (SAN001/SAN002) that complements the static
rules.
"""

from __future__ import annotations

import ast
import asyncio
import gc
import importlib
import io
import json
import textwrap
import time

import pytest

from repro.cli import main
from repro.lint.driver import LintContext
from repro.lint.findings import Finding
from repro.lint.runner import (
    FINDINGS_SCHEMA,
    LintReport,
    findings_payload,
    format_human,
    lint_text,
)
from repro.lint import asyncrules
from repro.lint.sanitize import (
    ENV_OUT,
    ENV_THRESHOLD_MS,
    PENDING_TASK_CODE,
    SLOW_CALLBACK_CODE,
    loop_sanitizer,
    threshold_from_env,
)

SERVE_PATH = "src/repro/serve/snippet.py"
OBS_PATH = "src/repro/obs/snippet.py"
SIM_PATH = "src/repro/core/snippet.py"
ORCH_PATH = "src/repro/orchestrator/snippet.py"
TEST_PATH = "tests/snippet.py"


def codes_at(text, path, select=None):
    result = lint_text(textwrap.dedent(text), path, select=select)
    return [(f.code, f.line) for f in result.findings]


def codes(text, path, select=None):
    return [c for c, _ in codes_at(text, path, select=select)]


class TestAsy001BlockingInCoroutine:
    def test_time_sleep_in_async_def_fires(self):
        found = codes_at(
            """\
            import time

            async def worker():
                time.sleep(1.0)
            """,
            SERVE_PATH,
        )
        assert found == [("ASY001", 4)]

    def test_open_and_subprocess_fire(self):
        snippet = """\
            import subprocess

            async def dump(path):
                with open(path) as handle:
                    handle.read()
                subprocess.run(["true"])
            """
        assert codes(snippet, SERVE_PATH) == ["ASY001", "ASY001"]

    def test_known_internal_disk_writer_fires(self):
        snippet = """\
            from repro.telemetry.export import write_jsonl

            async def drain(tracer):
                write_jsonl("out.jsonl", tracer.records())
            """
        assert codes(snippet, SERVE_PATH) == ["ASY001"]

    @pytest.mark.parametrize("origin", sorted(asyncrules.BLOCKING_INTERNAL))
    def test_every_listed_disk_writer_fires(self, origin):
        module, name = origin.rsplit(".", 1)
        snippet = """\
            from %s import %s

            async def drain(tracer):
                %s("out", tracer.records())
            """ % (module, name, name)
        assert codes(snippet, SERVE_PATH) == ["ASY001"]

    @pytest.mark.parametrize("origin", sorted(asyncrules.BLOCKING_INTERNAL))
    def test_every_listed_disk_writer_exists(self, origin):
        module, name = origin.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(module), name))

    def test_sync_context_is_silent(self):
        snippet = """\
            import time

            def retry_pause():
                time.sleep(0.1)
            """
        assert codes(snippet, ORCH_PATH) == []

    def test_to_thread_offload_is_legal(self):
        snippet = """\
            import asyncio

            def dump(path, rows):
                with open(path, "w") as handle:
                    handle.write(repr(rows))

            async def drain(rows):
                await asyncio.to_thread(dump, "out.jsonl", rows)
            """
        assert codes(snippet, SERVE_PATH) == []

    def test_one_hop_through_local_sync_helper_fires(self):
        found = codes_at(
            """\
            def dump(path, rows):
                with open(path, "w") as handle:
                    handle.write(repr(rows))

            async def drain(rows):
                dump("out.jsonl", rows)
            """,
            SERVE_PATH,
        )
        assert found == [("ASY001", 6)]

    def test_allowlist_mechanism_exempts_an_origin(self, monkeypatch):
        snippet = """\
            import time

            async def worker():
                time.sleep(0.0)
            """
        assert codes(snippet, SERVE_PATH) == ["ASY001"]
        monkeypatch.setattr(
            asyncrules, "ASY001_ALLOWLIST", frozenset({"time.sleep"})
        )
        assert codes(snippet, SERVE_PATH) == []

    def test_noqa_with_justification_suppresses(self):
        result = lint_text(textwrap.dedent(
            """\
            import time

            async def worker():
                time.sleep(0)  # repro: noqa[ASY001] deliberate stall probe
            """
        ), SERVE_PATH)
        assert result.findings == []
        assert result.noqa_suppressed == 1


class TestAsy002DroppedAwaitable:
    def test_dropped_create_task_fires(self):
        snippet = """\
            import asyncio

            async def spawn(coro):
                asyncio.create_task(coro)
            """
        assert codes(snippet, SERVE_PATH) == ["ASY002"]

    def test_dropped_loop_create_task_fires(self):
        snippet = """\
            async def spawn(loop, coro):
                loop.create_task(coro)
            """
        assert codes(snippet, SERVE_PATH) == ["ASY002"]

    def test_retained_task_is_silent(self):
        snippet = """\
            import asyncio

            async def spawn(coro):
                task = asyncio.create_task(coro)
                return task
            """
        assert codes(snippet, SERVE_PATH) == []

    def test_bare_gather_fires_awaited_gather_does_not(self):
        snippet = """\
            import asyncio

            async def fan_out(a, b):
                asyncio.gather(a, b)
                await asyncio.gather(a, b)
            """
        assert codes_at(snippet, SERVE_PATH) == [("ASY002", 4)]

    def test_unawaited_same_file_coroutine_fires(self):
        snippet = """\
            async def work():
                return 1

            async def main():
                work()
                await work()
            """
        assert codes_at(snippet, SERVE_PATH) == [("ASY002", 5)]

    def test_unawaited_self_coroutine_method_fires(self):
        snippet = """\
            class Server:
                async def drain(self):
                    return 0

                async def stop(self):
                    self.drain()
            """
        assert codes_at(snippet, SERVE_PATH) == [("ASY002", 6)]

    def test_unknown_bare_call_is_silent(self):
        snippet = """\
            async def main(client):
                client.flush()
            """
        assert codes(snippet, SERVE_PATH) == []


class TestAsy003AwaitUnderSyncLock:
    SELECT = frozenset({"ASY003"})

    def test_await_under_self_lock_fires(self):
        snippet = """\
            async def update(self):
                with self._lock:
                    await self.flush()
            """
        assert codes_at(snippet, SERVE_PATH, select=self.SELECT) \
            == [("ASY003", 3)]

    def test_await_under_fresh_threading_lock_fires(self):
        snippet = """\
            import threading

            async def update(shared):
                with threading.Lock():
                    await shared.flush()
            """
        assert codes(snippet, SERVE_PATH, select=self.SELECT) == ["ASY003"]

    def test_async_with_asyncio_lock_is_silent(self):
        snippet = """\
            async def update(self):
                async with self._lock:
                    await self.flush()
            """
        assert codes(snippet, SERVE_PATH, select=self.SELECT) == []

    def test_sync_with_without_await_is_silent(self):
        snippet = """\
            async def snapshot(self):
                with self._lock:
                    return dict(self._state)
            """
        assert codes(snippet, SERVE_PATH, select=self.SELECT) == []

    def test_non_lock_context_manager_is_silent(self):
        snippet = """\
            async def fetch(self, session):
                with session.span("fetch"):
                    await session.pull()
            """
        assert codes(snippet, SERVE_PATH, select=self.SELECT) == []

    def test_await_in_nested_function_is_not_the_locks_await(self):
        snippet = """\
            async def update(self):
                with self._lock:
                    async def later():
                        await self.flush()
                    self._later = later
            """
        assert codes(snippet, SERVE_PATH, select=self.SELECT) == []


class TestAsy004SharedMutableState:
    def test_module_global_dict_store_fires(self):
        snippet = """\
            _cache = {}

            def remember(key, value):
                _cache[key] = value
            """
        assert codes_at(snippet, SERVE_PATH) == [("ASY004", 4)]

    def test_module_global_list_append_fires(self):
        snippet = """\
            _journal = []

            async def record(entry):
                _journal.append(entry)
            """
        assert codes(snippet, SERVE_PATH) == ["ASY004"]

    def test_global_rebind_fires(self):
        snippet = """\
            _requests_seen = 0

            def bump():
                global _requests_seen
                _requests_seen += 1
            """
        assert codes(snippet, OBS_PATH) == ["ASY004"]

    def test_read_only_module_constant_is_silent(self):
        snippet = """\
            _defaults = {"ttl": 300}

            def ttl_for(tenant):
                return _defaults["ttl"]
            """
        assert codes(snippet, SERVE_PATH) == []

    def test_out_of_scope_package_is_silent(self):
        snippet = """\
            _cache = {}

            def remember(key, value):
                _cache[key] = value
            """
        assert codes(snippet, SIM_PATH) == []


class TestAsy005ServeWallClock:
    def test_monotonic_call_in_serve_fires(self):
        snippet = """\
            import time

            def idle_for(self):
                return time.monotonic() - self.last_seen
            """
        assert codes(snippet, SERVE_PATH) == ["ASY005"]

    def test_injectable_clock_default_reference_is_legal(self):
        snippet = """\
            import time

            def __init__(self, clock=None):
                self._clock = clock if clock is not None else time.monotonic
            """
        assert codes(snippet, SERVE_PATH) == []

    def test_obs_owns_real_time_measurement(self):
        snippet = """\
            import time

            def span_start(self):
                return time.perf_counter()
            """
        assert codes(snippet, OBS_PATH) == []

    def test_orchestrator_timers_stay_legal(self):
        snippet = """\
            import time

            def elapsed(start):
                return time.perf_counter() - start
            """
        assert codes(snippet, ORCH_PATH) == []


class TestAsy006LoopAmbientApi:
    def test_get_event_loop_fires_everywhere(self):
        snippet = """\
            import asyncio

            def runner():
                return asyncio.get_event_loop()
            """
        for path in (SERVE_PATH, ORCH_PATH, TEST_PATH):
            assert codes(snippet, path) == ["ASY006"]

    def test_aliased_get_event_loop_fires(self):
        snippet = """\
            from asyncio import get_event_loop as gel

            def runner():
                return gel()
            """
        assert codes(snippet, TEST_PATH) == ["ASY006"]

    def test_get_running_loop_is_the_blessed_api(self):
        snippet = """\
            import asyncio

            async def here():
                return asyncio.get_running_loop()
            """
        assert codes(snippet, SERVE_PATH) == []


# -- import-alias resolution (the classification substrate) ------------------


def _resolve(source, expr, path=SERVE_PATH):
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    ctx = LintContext(path, source, tree)
    return ctx.resolve_name(ast.parse(expr, mode="eval").body)


class TestImportAliasResolution:
    def test_module_alias_chain(self):
        assert _resolve("import numpy as np\n", "np.random.seed") \
            == "numpy.random.seed"

    def test_from_import_with_asname(self):
        assert _resolve("from time import sleep as pause\n", "pause") \
            == "time.sleep"

    def test_from_import_asname_attribute_chain(self):
        assert _resolve("from os import path as p\n", "p.join") \
            == "os.path.join"

    def test_dotted_module_alias(self):
        assert _resolve("import os.path as osp\n", "osp.join") \
            == "os.path.join"

    def test_dotted_import_binds_top_level_name(self):
        assert _resolve("import asyncio.events\n",
                        "asyncio.events.get_event_loop") \
            == "asyncio.events.get_event_loop"

    def test_relative_import_never_aliases_stdlib(self):
        # ``from .compat import sleep`` must NOT make ``sleep`` look
        # like ``time.sleep``: a relative import is project code.
        assert _resolve("from .compat import sleep\n", "sleep") == "sleep"
        assert _resolve("from . import helpers\n", "helpers.run") \
            == "helpers.run"

    def test_unimported_name_resolves_to_itself(self):
        assert _resolve("x = 1\n", "open") == "open"

    def test_call_base_is_unresolvable(self):
        assert _resolve("x = 1\n", "factory().attr") is None

    def test_asy001_fires_through_module_alias(self):
        snippet = """\
            import time as t

            async def worker():
                t.sleep(1)
            """
        assert codes(snippet, SERVE_PATH) == ["ASY001"]

    def test_asy001_fires_through_from_import_asname(self):
        snippet = """\
            from time import sleep as pause

            async def worker():
                pause(1)
            """
        assert codes(snippet, SERVE_PATH) == ["ASY001"]

    def test_relative_sleep_is_not_a_false_positive(self):
        snippet = """\
            from .virtual_time import sleep

            async def worker():
                sleep(1)
            """
        assert codes(snippet, SERVE_PATH) == []


# -- shared finding schema ----------------------------------------------------


class TestFindingsSchema:
    def test_payload_shape_and_family_counts(self):
        findings = [
            Finding("a.py", 1, 0, "ASY001", "m1"),
            Finding("a.py", 2, 0, "ASY002", "m2"),
            Finding("b.py", 3, 0, "REP001", "m3"),
        ]
        payload = findings_payload(findings, tool="lint")
        assert payload["schema"] == FINDINGS_SCHEMA
        assert payload["tool"] == "lint"
        assert payload["clean"] is False
        assert payload["counts_by_code"] == {
            "ASY001": 1, "ASY002": 1, "REP001": 1,
        }
        assert payload["counts_by_family"] == {"ASY": 2, "REP": 1}
        assert [f["code"] for f in payload["findings"]] \
            == ["ASY001", "ASY002", "REP001"]

    def test_lint_json_carries_the_shared_schema(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import asyncio\n\n"
            "async def f(coro):\n"
            "    asyncio.create_task(coro)\n"
        )
        out = io.StringIO()
        assert main(["lint", str(bad), "--json"], out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["schema"] == FINDINGS_SCHEMA
        assert payload["tool"] == "lint"
        assert payload["counts_by_family"] == {"ASY": 1}

    def test_human_report_names_families(self):
        report = LintReport(findings=[
            Finding("a.py", 1, 0, "ASY001", "m1"),
            Finding("b.py", 1, 0, "REP004", "m2"),
        ], files_scanned=2)
        text = format_human(report)
        assert "findings by family: ASY 1, REP 1" in text

    def test_async_flag_selects_the_family(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        out = io.StringIO()
        # Only a REP violation present: the async-only view is clean.
        assert main(["lint", str(bad), "--async"], out=out) == 0
        assert main(["lint", str(bad)], out=out) == 1

    def test_async_flag_conflicts_with_select(self, tmp_path):
        good = tmp_path / "ok.py"
        good.write_text("x = 1\n")
        out = io.StringIO()
        assert main(
            ["lint", str(good), "--async", "--select", "REP001"], out=out
        ) == 2


# -- runtime sanitizer --------------------------------------------------------


class TestLoopSanitizer:
    def test_catches_blocked_loop(self):
        with loop_sanitizer(slow_callback_s=0.05) as armed:
            async def blocker():
                # repro: noqa[ASY001] deliberate stall: sanitizer must see it
                time.sleep(0.2)

            asyncio.run(blocker())
        assert [f.code for f in armed.findings] == [SLOW_CALLBACK_CODE]
        assert "blocked" in armed.findings[0].message

    def test_clean_coroutine_produces_no_findings(self):
        with loop_sanitizer(slow_callback_s=0.05) as armed:
            async def polite():
                await asyncio.sleep(0)

            asyncio.run(polite())
        assert armed.findings == []

    def test_catches_task_destroyed_while_pending(self):
        with loop_sanitizer() as armed:
            loop = asyncio.new_event_loop()
            try:
                task = loop.create_task(asyncio.sleep(60))
                loop.run_until_complete(asyncio.sleep(0))
            finally:
                loop.close()
            del task
            gc.collect()
        assert PENDING_TASK_CODE in [f.code for f in armed.findings]

    def test_threshold_env_parsing(self, monkeypatch):
        monkeypatch.delenv(ENV_THRESHOLD_MS, raising=False)
        assert threshold_from_env() == pytest.approx(0.25)
        monkeypatch.setenv(ENV_THRESHOLD_MS, "100")
        assert threshold_from_env() == pytest.approx(0.1)
        monkeypatch.setenv(ENV_THRESHOLD_MS, "junk")
        assert threshold_from_env() == pytest.approx(0.25)

    def test_findings_stream_to_the_out_file(self, tmp_path, monkeypatch):
        stream = tmp_path / "findings.jsonl"
        monkeypatch.setenv(ENV_OUT, str(stream))
        with loop_sanitizer(slow_callback_s=0.05):
            async def blocker():
                # repro: noqa[ASY001] deliberate stall: sanitizer must see it
                time.sleep(0.2)

            asyncio.run(blocker())
        lines = stream.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["code"] == SLOW_CALLBACK_CODE

    def test_policy_is_restored_on_exit(self):
        before = asyncio.get_event_loop_policy()
        with loop_sanitizer():
            assert asyncio.get_event_loop_policy() is not before
        assert asyncio.get_event_loop_policy() is before
