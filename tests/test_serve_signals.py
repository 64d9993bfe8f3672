"""``repro serve`` drains on SIGINT and SIGTERM, whatever it inherited.

A server started from a background job inherits SIGINT as ignored, and
SIGTERM's default action kills the process without flushing session
checkpoints.  Both signals must instead end serving through the graceful
drain: one live tenant session here means one checkpoint flushed.
"""

import asyncio
import os
import re
import select
import signal
import subprocess
import sys

import pytest

from repro.serve.client import ServeClient

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _open_session(port):
    async def hello():
        async with ServeClient("127.0.0.1", port) as client:
            response = await client.hello(
                "t", calibration_samples=2000, area_side_m=80.0
            )
            assert response.ok

    asyncio.run(hello())


@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
)
def test_signal_drains_with_sigint_ignored(tmp_path, signum):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=str(tmp_path),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        # What a background job hands its children.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        assert ready, "server printed nothing within 60 s"
        match = re.search(rb"serving on [^:]+:(\d+)", proc.stdout.readline())
        assert match is not None
        _open_session(int(match.group(1)))
        proc.send_signal(signum)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert b"drained: 1 checkpoint(s) flushed" in out
