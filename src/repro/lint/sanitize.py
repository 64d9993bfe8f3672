"""Runtime async sanitizer: blocked-loop and lost-task detection.

The ASY rules (:mod:`repro.lint.asyncrules`) prove what they can see in
the AST; this module catches what only shows up at runtime.  It runs
code under asyncio **debug mode** with a configurable slow-callback
threshold and converts the loop's own diagnostics into the same
:class:`~repro.lint.findings.Finding` records the static linter emits:

- ``SAN001`` — "Executing <Handle ...> took N seconds": a callback
  (or the synchronous section of a coroutine step) blocked the event
  loop past the threshold, stalling every other task on it.
- ``SAN002`` — "Task was destroyed but it is pending!": a task handle
  was dropped and garbage-collected mid-flight; its exceptions (and
  its work) are gone.  The runtime twin of ASY002.
- ``SAN003`` — "Task exception was never retrieved": a task failed and
  nobody awaited it, so the traceback surfaced only at GC time.

Two entry points:

- :func:`loop_sanitizer` — a context manager installing an event-loop
  policy whose loops run in debug mode, plus a handler on the
  ``asyncio`` logger collecting findings.  The pytest hook in
  ``tests/conftest.py`` wraps every test in it when
  ``REPRO_ASYNC_SANITIZE=1`` and fails tests that produced findings.
- :func:`run_gate` — the ``repro lint --sanitize`` surface: re-runs
  the serve/chaos suites in a child pytest with the sanitizer armed
  and writes a JSON findings artifact in the same schema as
  ``repro lint --json`` (:data:`repro.lint.runner.FINDINGS_SCHEMA`),
  so CI can diff the two with one tool.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import re
import subprocess
import sys
from typing import List, Optional, Sequence

from repro.lint.findings import Finding

__all__ = [
    "DEFAULT_SLOW_CALLBACK_S",
    "DEFAULT_SUITES",
    "ENV_ENABLE",
    "ENV_OUT",
    "ENV_THRESHOLD_MS",
    "SANITIZER_CODES",
    "LoopSanitizer",
    "loop_sanitizer",
    "run_gate",
    "threshold_from_env",
]

SLOW_CALLBACK_CODE = "SAN001"
PENDING_TASK_CODE = "SAN002"
UNRETRIEVED_EXC_CODE = "SAN003"

#: Runtime-only codes: not AST rules (nothing to ``--select``), but they
#: share the finding schema and appear in ``--list-rules`` output.
SANITIZER_CODES = {
    SLOW_CALLBACK_CODE: (
        "a callback blocked the event loop past the slow-callback "
        "threshold (runtime twin of ASY001)"
    ),
    PENDING_TASK_CODE: (
        "a task was destroyed while still pending; its work and "
        "exceptions are lost (runtime twin of ASY002)"
    ),
    UNRETRIEVED_EXC_CODE: (
        "a task exception was never retrieved; the failure surfaced "
        "only at garbage collection"
    ),
}

DEFAULT_SLOW_CALLBACK_S = 0.25

#: Environment contract between ``run_gate`` (parent) and the pytest
#: hook in tests/conftest.py (child process).
ENV_ENABLE = "REPRO_ASYNC_SANITIZE"
ENV_THRESHOLD_MS = "REPRO_SLOW_CALLBACK_MS"
ENV_OUT = "REPRO_SANITIZE_OUT"

#: The asyncio suites the ``--sanitize`` gate runs (service, crash
#: recovery, chaos, replay determinism, the boundary's property tests
#: in process and over TCP, and the obs layer they report through).
DEFAULT_SUITES = (
    "tests/test_serve.py",
    "tests/test_serve_durability.py",
    "tests/test_serve_chaos.py",
    "tests/test_serve_replay.py",
    "tests/test_serve_properties.py",
    "tests/test_obs.py",
)

_EXECUTING_RE = re.compile(
    r"Executing <(?P<what>.+?)> took (?P<seconds>[\d.]+) seconds"
)
_CREATED_AT_RE = re.compile(r"created at (?P<path>[^\s:]+):(?P<line>\d+)")


def threshold_from_env() -> float:
    """Slow-callback threshold in seconds, from the env contract."""
    raw = os.environ.get(ENV_THRESHOLD_MS)
    if not raw:
        return DEFAULT_SLOW_CALLBACK_S
    try:
        return max(float(raw) / 1000.0, 0.001)
    except ValueError:
        return DEFAULT_SLOW_CALLBACK_S


def _source_anchor(message: str) -> tuple:
    """(path, line) a diagnostic points at, or a runtime placeholder.

    Debug-mode handle/task reprs carry ``created at file:line``; when
    present the finding anchors there (and the path is relativized so
    artifacts diff across machines).
    """
    match = _CREATED_AT_RE.search(message)
    if match is None:
        return "<event-loop>", 0
    path = match.group("path").replace("\\", "/")
    try:
        rel = os.path.relpath(path)
    except ValueError:
        rel = path
    if not rel.startswith(".."):
        path = rel.replace("\\", "/")
    return path, int(match.group("line"))


class _AsyncioLogHandler(logging.Handler):
    """Collects the asyncio logger's diagnostics as findings."""

    def __init__(self, sanitizer: "LoopSanitizer") -> None:
        super().__init__(level=logging.WARNING)
        self._sanitizer = sanitizer

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        executing = _EXECUTING_RE.search(message)
        if executing is not None:
            path, line = _source_anchor(message)
            self._sanitizer._add(Finding(
                path=path, line=line, col=0, code=SLOW_CALLBACK_CODE,
                message=(
                    "event loop blocked for %ss (threshold %.3fs) "
                    "executing %s" % (
                        executing.group("seconds"),
                        self._sanitizer.slow_callback_s,
                        executing.group("what").split(" created at")[0],
                    )
                ),
            ))
            return
        if "Task was destroyed but it is pending" in message:
            path, line = _source_anchor(message)
            self._sanitizer._add(Finding(
                path=path, line=line, col=0, code=PENDING_TASK_CODE,
                message="task destroyed while pending: %s"
                        % _task_label(message),
            ))
            return
        if "exception was never retrieved" in message:
            path, line = _source_anchor(message)
            self._sanitizer._add(Finding(
                path=path, line=line, col=0, code=UNRETRIEVED_EXC_CODE,
                message="task exception was never retrieved: %s"
                        % _task_label(message),
            ))


def _task_label(message: str) -> str:
    """A compact, stable label for the task named in a diagnostic."""
    match = re.search(r"name=(?P<name>'[^']*'|[^\s>]+)", message)
    if match is not None:
        return match.group("name").strip("'")
    coro = re.search(r"coro=<(?P<coro>[^\s>]+)", message)
    if coro is not None:
        return coro.group("coro")
    return "<task>"


class _SanitizedPolicy(asyncio.DefaultEventLoopPolicy):
    """Event-loop policy whose loops run in debug mode with the
    sanitizer's slow-callback threshold."""

    def __init__(self, slow_callback_s: float) -> None:
        super().__init__()
        self._slow_callback_s = slow_callback_s

    def new_event_loop(self):
        loop = super().new_event_loop()
        loop.set_debug(True)
        loop.slow_callback_duration = self._slow_callback_s
        return loop


class LoopSanitizer:
    """Armed sanitizer state: install/uninstall plus the finding list."""

    def __init__(
        self, slow_callback_s: float = DEFAULT_SLOW_CALLBACK_S
    ) -> None:
        self.slow_callback_s = slow_callback_s
        self.findings: List[Finding] = []
        self._handler = _AsyncioLogHandler(self)
        self._previous_policy = None
        self._logger = logging.getLogger("asyncio")
        self._previous_level: Optional[int] = None

    def _add(self, finding: Finding) -> None:
        self.findings.append(finding)
        out_path = os.environ.get(ENV_OUT)
        if out_path:
            # Append-as-you-go so findings survive even if the test
            # process dies before teardown.
            with open(out_path, "a", encoding="utf-8") as handle:
                handle.write(
                    json.dumps(finding.to_dict(), sort_keys=True) + "\n"
                )

    def install(self) -> None:
        self._previous_policy = asyncio.get_event_loop_policy()
        asyncio.set_event_loop_policy(
            _SanitizedPolicy(self.slow_callback_s)
        )
        self._previous_level = self._logger.level
        if self._logger.level > logging.WARNING or self._logger.level == 0:
            self._logger.setLevel(logging.WARNING)
        self._logger.addHandler(self._handler)

    def uninstall(self) -> None:
        self._logger.removeHandler(self._handler)
        if self._previous_level is not None:
            self._logger.setLevel(self._previous_level)
        if self._previous_policy is not None:
            asyncio.set_event_loop_policy(self._previous_policy)

    def __enter__(self) -> "LoopSanitizer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def loop_sanitizer(
    slow_callback_s: float = DEFAULT_SLOW_CALLBACK_S,
) -> LoopSanitizer:
    """Context manager arming the sanitizer for a ``with`` block."""
    return LoopSanitizer(slow_callback_s=slow_callback_s)


def _read_findings_jsonl(path: str) -> List[Finding]:
    findings: List[Finding] = []
    if not os.path.exists(path):
        return findings
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            findings.append(Finding(
                path=raw["path"], line=raw["line"], col=raw["col"],
                code=raw["code"], message=raw["message"],
            ))
    return findings


def run_gate(
    suites: Sequence[str] = DEFAULT_SUITES,
    slow_callback_ms: Optional[float] = None,
    json_out: Optional[str] = None,
    out=None,
) -> int:
    """Run the asyncio suites under the sanitizer; 0 clean, 1 dirty.

    Spawns a child pytest with the env contract armed (the conftest
    hook does the per-test install), collects the findings it streamed
    to a JSONL side channel, and writes the shared-schema JSON payload
    to ``json_out`` for the CI artifact.
    """
    from repro.lint.runner import findings_payload

    out = out if out is not None else sys.stdout
    threshold_ms = (
        slow_callback_ms
        if slow_callback_ms is not None
        else DEFAULT_SLOW_CALLBACK_S * 1000.0
    )
    stream_path = (json_out or "sanitize-findings.json") + ".jsonl"
    if os.path.exists(stream_path):
        os.remove(stream_path)
    env = dict(os.environ)
    env[ENV_ENABLE] = "1"
    env[ENV_THRESHOLD_MS] = "%g" % threshold_ms
    env[ENV_OUT] = stream_path
    env.setdefault("PYTHONPATH", "src")
    missing = [s for s in suites if not os.path.exists(s)]
    if missing:
        print("sanitize: missing suites: %s" % ", ".join(missing),
              file=out)
        return 1
    command = [sys.executable, "-m", "pytest", "-q"] + list(suites)
    print("sanitize: running %s (slow-callback %.0fms)"
          % (" ".join(suites), threshold_ms), file=out)
    proc = subprocess.run(command, env=env)
    findings = _read_findings_jsonl(stream_path)
    if os.path.exists(stream_path):
        os.remove(stream_path)
    payload = findings_payload(findings, tool="sanitize")
    payload.update({
        "suites": list(suites),
        "slow_callback_ms": threshold_ms,
        "pytest_exit": proc.returncode,
    })
    if json_out is not None:
        with open(json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    for finding in findings:
        print(finding.format(), file=out)
    clean = proc.returncode == 0 and not findings
    print("sanitize: %s (pytest exit %d, %d finding%s)"
          % ("clean" if clean else "dirty", proc.returncode,
             len(findings), "" if len(findings) == 1 else "s"),
          file=out)
    return 0 if clean else 1
