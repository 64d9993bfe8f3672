"""Import boundaries: each entry point loads only what it runs.

- networkx stays off every run and serve process.  Only analysis
  helpers (mesh connectivity checks, geographic routing studies) use
  it, and they load it on first use (their own tests in
  ``test_multicast_odmrp.py`` and ``test_ext.py`` exercise that path).
- ``repro serve`` loads none of the simulator's network, multicast or
  team modules, nor the chaos harness, client, replay, orchestrator,
  experiments or linter.
- Every package ``__init__`` is only its docstring, so no import of a
  submodule runs a package-wide re-export, and each name has one
  import path: the module that defines it.
- The orchestrator imports cleanly on its own.

The module checks run in a fresh interpreter, because this test process
has already imported most of the package through other tests.
"""

import ast
import glob
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _package_modules(package):
    """Every module of ``package`` (a ``repro`` subpackage)."""
    folder = os.path.join(SRC, *package.split("."))
    return tuple(
        "%s.%s" % (package, os.path.basename(path)[:-3])
        for path in sorted(glob.glob(os.path.join(folder, "*.py")))
        if not path.endswith("__init__.py")
    )


#: The entry points of the simulator and the service, plus every module
#: of the two packages whose analysis helpers use networkx.
MODULES = (
    ("repro.cli", "repro.core.team", "repro.serve.server")
    + _package_modules("repro.multicast")
    + _package_modules("repro.ext")
)

#: What ``python -m repro serve`` imports before its first request.
SERVE_ENTRY = ("repro.cli", "repro.serve.server")

#: Modules and packages the serve process must not load.
NOT_SERVED = (
    "repro.net.channel",
    "repro.net.mac",
    "repro.multicast",
    "repro.core.team",
    "repro.serve.chaos",
    "repro.serve.client",
    "repro.serve.replay",
    "repro.orchestrator",
    "repro.experiments",
    "repro.lint",
)


def _modules_after(imports):
    """Every module a fresh interpreter holds after ``imports``."""
    code = "".join("import %s\n" % name for name in imports) + (
        "import json, sys\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_run_and_serve_imports_do_not_load_networkx():
    loaded = _modules_after(MODULES)
    assert [m for m in loaded if m.split(".")[0] == "networkx"] == []


def test_serve_entry_loads_no_simulator_or_tooling():
    loaded = _modules_after(SERVE_ENTRY)
    assert "repro.serve.server" in loaded
    unwanted = [
        module for module in loaded
        for name in NOT_SERVED
        if module == name or module.startswith(name + ".")
    ]
    assert unwanted == []


def test_package_inits_are_docstring_only():
    inits = sorted(glob.glob(
        os.path.join(SRC, "repro", "**", "__init__.py"), recursive=True
    ))
    assert len(inits) > 1
    for path in inits:
        with open(path, encoding="utf-8") as handle:
            body = ast.parse(handle.read()).body
        assert len(body) <= 1, path
        for node in body:
            assert isinstance(node, ast.Expr), path
            assert isinstance(node.value, ast.Constant), path
            assert isinstance(node.value.value, str), path


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
