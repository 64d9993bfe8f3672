"""Import boundaries: networkx stays off every run and serve process,
and the orchestrator imports cleanly on its own.

Only analysis helpers (mesh connectivity checks, geographic routing
studies) use networkx, and they load it on first use (their own tests
in ``test_multicast_odmrp.py`` and ``test_ext.py`` exercise that path).
The check runs in a fresh interpreter, because this test process may
already have imported networkx through another test.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: The entry points of the simulator and the service, plus the two
#: packages whose analysis helpers use networkx.
MODULES = (
    "repro.cli",
    "repro.core.team",
    "repro.serve.server",
    "repro.multicast",
    "repro.ext",
)


def test_run_and_serve_imports_do_not_load_networkx():
    code = "".join("import %s\n" % name for name in MODULES) + (
        "import sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


#: Packages that must import on their own: ``repro.orchestrator``'s
#: executor imports ``repro.experiments.runner``, whose package must not
#: import the executor back while it is half initialized.
STANDALONE = ("repro.orchestrator", "repro.orchestrator.cache")


def test_orchestrator_imports_first_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=SRC)
    for name in STANDALONE:
        result = subprocess.run(
            [sys.executable, "-c", "import %s" % name],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, (name, result.stderr)
