"""Shared fixtures for the test suite.

The expensive shared artifact is the calibrated PDF Table; it is built once
per session from the default channel and reused by every localization test.
"""

from __future__ import annotations

import gc
import os

import pytest

from repro.core.calibration import build_pdf_table
from repro.net.phy import PathLossModel
from repro.sim.rng import RandomStreams


@pytest.fixture(autouse=True)
def _async_sanitizer():
    """Run every test under the asyncio sanitizer when armed.

    ``REPRO_ASYNC_SANITIZE=1`` (set by ``repro lint --sanitize`` and
    the CI gate) installs an event-loop policy whose loops run in debug
    mode with a slow-callback threshold; blocked-loop and lost-task
    diagnostics become test failures instead of log noise.
    """
    if not os.environ.get("REPRO_ASYNC_SANITIZE"):
        yield
        return
    from repro.lint.sanitize import loop_sanitizer, threshold_from_env

    with loop_sanitizer(slow_callback_s=threshold_from_env()) as armed:
        yield
        # Destroy dropped task handles *inside* the armed window so
        # "Task was destroyed but it is pending" lands on the test that
        # leaked the task, not a later one.
        gc.collect()
    if armed.findings:
        pytest.fail(
            "async sanitizer caught %d finding%s:\n%s" % (
                len(armed.findings),
                "" if len(armed.findings) == 1 else "s",
                "\n".join(f.format() for f in armed.findings),
            ),
            pytrace=False,
        )


@pytest.fixture(scope="session")
def default_path_loss():
    """The default (paper-calibrated) channel model."""
    return PathLossModel()


@pytest.fixture(scope="session")
def pdf_table(default_path_loss):
    """A session-wide calibrated PDF Table (60k samples: fast, adequate).

    Sharing it is safe: a table holds no per-run state (its lazily built
    LUTs are derived data), so no test can leave it changed for the next.
    """
    streams = RandomStreams(1234)
    return build_pdf_table(
        default_path_loss, streams.get("calibration"), n_samples=60_000
    ).table


@pytest.fixture()
def streams():
    """A fresh named-stream factory with a fixed master seed."""
    return RandomStreams(42)
